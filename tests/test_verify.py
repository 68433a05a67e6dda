import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import weylheat
from weylheat import heat as ht
from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat import verify as vf
from weylheat.errors import DegenerateInput


def small_psi_config(**kw):
    base = dict(
        rank=1,
        lam_axis=vf.AxisSpec(1e-2, 1e2, 5),
        x_axis=vf.AxisSpec(1e-2, 1e2, 5),
        mode="log_grid",
    )
    base.update(kw)
    return vf.SweepConfig(**base)


def test_axis_validation():
    with pytest.raises(ValueError):
        vf.AxisSpec(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        vf.AxisSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        vf.SweepConfig(rank=1, lam_axis=vf.AxisSpec(0.1, 1, 2),
                       x_axis=vf.AxisSpec(0.1, 1, 2), mode="random")


def test_grid_sweep_record_count():
    # 2-point grids: exactly 2^(2n) records
    cfg = small_psi_config(lam_axis=vf.AxisSpec(0.5, 2.0, 2), x_axis=vf.AxisSpec(0.5, 2.0, 2))
    rep = vf.sweep_psi_ratio(cfg)
    assert len(rep.records) == 2 ** 2
    cfg2 = vf.SweepConfig(rank=2, lam_axis=vf.AxisSpec(0.5, 2.0, 2),
                          x_axis=vf.AxisSpec(0.5, 2.0, 2), mode="grid")
    rep2 = vf.sweep_psi_ratio(cfg2)
    assert len(rep2.records) == 2 ** 4


def test_sweep_deterministic_bytes():
    cfg = small_psi_config()
    a = vf.to_json_bytes(vf.sweep_psi_ratio(cfg))
    b = vf.to_json_bytes(vf.sweep_psi_ratio(cfg))
    assert a == b


def test_random_mode_seeded_and_reproducible():
    cfg = small_psi_config(mode="random", samples=40, seed=123)
    a = vf.to_json_bytes(vf.sweep_psi_ratio(cfg))
    b = vf.to_json_bytes(vf.sweep_psi_ratio(cfg))
    assert a == b
    cfg2 = small_psi_config(mode="random", samples=40, seed=124)
    assert vf.to_json_bytes(vf.sweep_psi_ratio(cfg2)) != a


def test_aggregates_recomputable_and_ordered():
    rep = vf.sweep_psi_ratio(small_psi_config())
    agg = rep.aggregates["overall"]
    ratios = [r.ratio for r in rep.records if r.error is None]
    assert agg["count"] == len(ratios)
    assert agg["min"] == min(ratios)
    assert agg["max"] == max(ratios)
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert agg["geomean"] == pytest.approx(geo, rel=1e-12)
    assert agg["min"] <= agg["geomean"] <= agg["max"]
    hist = rep.aggregates["log_ratio_histogram"]
    assert sum(hist["counts"]) == len(ratios)


def test_psi_sweep_rank1_ratio_bounds_and_sandwich():
    rep = vf.sweep_psi_ratio(vf.default_psi_config(1))
    agg = rep.aggregates["overall"]
    assert not rep.violations
    assert agg["min"] >= 1.0 - 1e-9
    assert agg["max"] <= 1.30


def test_degenerate_sample_flagged():
    for rank in (1, 4):
        cfg = vf.SweepConfig(rank=rank, lam_axis=vf.AxisSpec(0.0, 1.0, 2),
                             x_axis=vf.AxisSpec(0.5, 1.0, 2), mode="grid")
        rep = vf.sweep_psi_ratio(cfg)
        flagged = [r for r in rep.records if "confluent_path" in r.flags]
        assert flagged, "gap 0 samples must route through the confluent path"
        assert all(r.error is None for r in rep.records)
        # exactly the samples with a zero gap are flagged
        tied = [r for r in rep.records if 0.0 in np.diff(r.lam) or 0.0 in np.diff(r.x)]
        assert flagged == tied
        if rank > 1:
            assert {r.method for r in flagged} == {sp.METHOD_CONFLUENT, sp.METHOD_CLOSED}


def test_heat_sweep_runs_and_positive():
    cfg = vf.SweepConfig(rank=1, lam_axis=vf.AxisSpec(0.1, 5.0, 3),
                         x_axis=vf.AxisSpec(0.1, 5.0, 3),
                         t_axis=vf.AxisSpec(0.1, 10.0, 3), mode="log_grid")
    rep = vf.sweep_heat_ratio(cfg)
    assert len(rep.records) == 3 ** 3
    assert not rep.violations
    assert all(r.ratio > 0 and math.isfinite(r.ratio) for r in rep.records)


def test_heat_error_record_carries_coordinates(monkeypatch):
    def fail(*args, **kwargs):
        raise DegenerateInput("forced")

    monkeypatch.setattr(vf.ht, "heat_flat", fail)
    [(rec, violation)] = vf._heat_block((7, np.array([[1.0, 2.0]]), np.array([[0.5, 0.25]]),
                                         np.array([0.3]), 1e-9, 1.0, ht.make_heat_context(2)))
    assert rec.error == "DegenerateInput: forced"
    assert violation == {"index": 7, "kind": "eval_error", "error": "forced"}
    assert rec.lam == (3.0, 2.0, 0.0)
    assert rec.x == (0.75, 0.25, 0.0)
    assert rec.t == 0.3


def _count_as_coords(monkeypatch):
    calls = [0]
    checked = rs.as_coords

    def counted(*args, **kwargs):
        calls[0] += 1
        return checked(*args, **kwargs)

    monkeypatch.setattr(rs, "as_coords", counted)
    return calls


def test_each_sample_checks_its_vectors_a_few_times(monkeypatch):
    ctx = ht.make_heat_context(2)
    calls = _count_as_coords(monkeypatch)
    lam, x = np.array([2.0, 0.7, 0.0]), np.array([1.5, 0.4, 0.0])
    assert sp.psi_stable(lam, x).method == sp.METHOD_ALT
    assert calls[0] <= 4  # the public pair check and psi_alt_sum
    calls[0] = 0
    [(rec, _)] = vf._psi_block((0, np.array([[1.3, 0.7]]), np.array([[1.1, 0.4]]), 1e-9, 1e-9, 1.0))
    assert rec.error is None and calls[0] <= 4
    calls[0] = 0
    [(rec, _)] = vf._heat_block((0, np.array([[1.3, 0.7]]), np.array([[1.1, 0.4]]), np.array([0.5]),
                                 1e-9, 1.0, ctx))
    assert rec.error is None and calls[0] <= 2  # heat_flat's pair check


def _per_sample_gaps(config, with_t):
    """Reference order of the samples: the product of the axes (the last axis
    fastest), or per sample the lam gaps, x gaps and t drawn in turn."""
    n = config.rank
    specs = [config.lam_axis] * n + [config.x_axis] * n + ([config.t_axis] if with_t else [])
    if config.mode != "random":
        yield from itertools.product(*(a.grid(config.mode == "log_grid") for a in specs))
        return
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    for _ in range(config.samples):
        row = []
        for k in (n, n, 1)[: 2 + with_t]:
            a = specs[len(row)]
            row.extend(a.lo * (a.hi / a.lo) ** rng.random(k))
        yield tuple(row)


@pytest.mark.parametrize("mode", ["grid", "log_grid", "random"])
def test_sample_blocks_keep_the_per_sample_order(mode):
    ax = vf.AxisSpec(0.1, 10.0, 3)
    config = vf.SweepConfig(rank=2, lam_axis=ax, x_axis=vf.AxisSpec(0.2, 5.0, 2), t_axis=ax,
                            mode=mode, samples=100, seed=9)
    for with_t in (False, True):
        expected = list(_per_sample_gaps(config, with_t))
        for threads in (1, 3):
            got = []
            for start, lg, xg, t in vf._sample_blocks(config, with_t, threads):
                assert start == len(got) and len(lg) <= vf._SWEEP_BLOCK
                cols = [lg, xg] + ([t[:, None]] if with_t else [])
                got.extend(map(tuple, np.concatenate(cols, axis=1).tolist()))
            assert got == expected, (mode, with_t, threads)


def _within_ulps(a, b, summands, ulps=4):
    """a and b agree within ulps units in the last place of the largest summand."""
    return abs(a - b) <= ulps * np.spacing(max(abs(float(v)) for v in summands))


SIDE_PSI_CONFIGS = [
    vf.default_psi_config(1),
    vf.default_psi_config(2),
    vf.SweepConfig(rank=3, lam_axis=vf.AxisSpec(1e-3, 1e3, 4), x_axis=vf.AxisSpec(1e-3, 1e3, 4)),
    # a zero lam gap: confluent rows
    vf.SweepConfig(rank=2, lam_axis=vf.AxisSpec(0.0, 2.0, 3), x_axis=vf.AxisSpec(0.5, 3.0, 3),
                   mode="grid"),
    vf.SweepConfig(rank=3, lam_axis=vf.AxisSpec(1e-3, 1e3, 2), x_axis=vf.AxisSpec(1e-3, 1e3, 2),
                   mode="random", samples=200, seed=11),
]


@pytest.mark.parametrize("config", SIDE_PSI_CONFIGS, ids=lambda c: f"{c.mode}-n{c.rank}")
def test_psi_sweep_side_values_match_public_functions(config):
    # the envelope, regime label and sandwich bounds are formed for a whole
    # block; each record must carry what the public functions give for its
    # pair.  A negative sandwich tolerance flags records near either bound.
    config = dataclasses.replace(config, sandwich_tol=-0.5)
    rep = vf.sweep_psi_ratio(config)
    expected = []
    for r in rep.records:
        lam, x = np.array(r.lam), np.array(r.x)
        prods = rs.root_values(lam) * rs.root_values(x)
        env = sp.psi_envelope(lam, x)
        assert _within_ulps(r.log_envelope, env, [*(lam * x), *np.log1p(prods)]), r
        assert r.regime == sp.regime_classify(lam, x, config.delta).label
        lower, upper = rs.min_pairing_value(lam, x), float(np.dot(lam, x))
        if r.log_value < lower + 0.5 or r.log_value > upper - 0.5:
            expected.append((r.index, lower, upper))
    got = [(v["index"], v["lower"], v["upper"]) for v in rep.violations]
    assert [e[0] for e in expected] == [g[0] for g in got] and got
    for (i, lower, upper), (_, vl, vu) in zip(expected, got):
        r = rep.records[i]
        terms = list(np.array(r.lam) * np.array(r.x))
        assert _within_ulps(vl, lower, terms) and _within_ulps(vu, upper, terms)


@pytest.mark.parametrize("n", [1, 2])
def test_heat_sweep_side_values_match_public_functions(n):
    config = vf.default_heat_config(n)
    rep = vf.sweep_heat_ratio(config)
    for r in rep.records:
        y, x, t = np.array(r.lam), np.array(r.x), r.t
        prods = rs.root_values(x) * rs.root_values(y)
        summands = [x.size / 2.0 * math.log(t), *((x - y) ** 2 / (4.0 * t)), *np.log(t + prods)]
        assert _within_ulps(r.log_envelope, ht.heat_envelope(t, x, y), summands), r
        assert r.regime == sp.regime_classify(x, y / (2.0 * t), config.delta).label


def _count_calls(monkeypatch, mod, name):
    """Count the outermost calls of mod.name, as the benchmark's record timer does."""
    calls = [0]
    busy = [False]
    fn = getattr(mod, name)

    def counted(*args, **kwargs):
        if busy[0]:
            return fn(*args, **kwargs)
        busy[0] = True
        calls[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            busy[0] = False

    monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_record_makes_one_kernel_call(monkeypatch):
    # the benchmark times each record's own psi_stable / heat_flat call
    # through the module attribute; one call per record is its contract
    calls = _count_calls(monkeypatch, sp, "psi_stable")
    for config in SIDE_PSI_CONFIGS:
        calls[0] = 0
        rep = vf.sweep_psi_ratio(config)
        assert calls[0] == len(rep.records)
    calls = _count_calls(monkeypatch, ht, "heat_flat")
    rep = vf.sweep_heat_ratio(vf.default_heat_config(2))
    assert calls[0] == len(rep.records)


def test_heat_threads_do_not_change_records():
    cfg = vf.default_heat_config(1)
    serial = vf.to_json_bytes(vf.sweep_heat_ratio(cfg, threads=1))
    assert vf.to_json_bytes(vf.sweep_heat_ratio(cfg, threads=2)) == serial


def test_csv_serialization_shape():
    rep = vf.sweep_psi_ratio(small_psi_config())
    data = vf.to_csv_bytes(rep).decode()
    lines = data.strip().split("\n")
    assert lines[0].split(",")[0] == "index"
    assert len(lines) == 1 + len(rep.records)
    assert "\r" not in data
    for row in csv.DictReader(io.StringIO(data)):
        for field in ("lam", "x"):
            for v in row[field].split():
                float(v)  # plain decimal floats, not np.float64(...)


def test_json_schema_fields():
    rep = vf.sweep_psi_ratio(small_psi_config())
    obj = json.loads(vf.to_json_bytes(rep))
    for key in ("schema_version", "kind", "code_version", "config", "config_hash",
                "aggregates", "violations", "records"):
        assert key in obj
    assert obj["schema_version"] == vf.SCHEMA_VERSION
    rec = obj["records"][0]
    for key in ("index", "lam", "x", "log_value", "log_envelope", "ratio",
                "regime", "method", "abs_log_error"):
        assert key in rec


def test_config_roundtrip_and_hash():
    cfg = small_psi_config(seed=5)
    back = vf.config_from_dict(cfg.to_dict())
    assert back == cfg
    assert vf.config_hash(back) == vf.config_hash(cfg)


def test_threads_do_not_change_records():
    cfg = vf.SweepConfig(rank=1, lam_axis=vf.AxisSpec(0.1, 10, 7),
                         x_axis=vf.AxisSpec(0.1, 10, 7), mode="log_grid")
    serial = vf.to_json_bytes(vf.sweep_psi_ratio(cfg, threads=1))
    parallel = vf.to_json_bytes(vf.sweep_psi_ratio(cfg, threads=2))
    assert serial == parallel


def test_cancellation_stress_levels():
    levels = [vf.StressLevel(1.0, 50.0, 4), vf.StressLevel(1e-6, 50.0, 4)]
    rep = vf.cancellation_stress(2, levels, seed=7)
    assert rep.overall_worst_rel_err <= 1e-9
    well, tight = rep.levels
    assert well["bits_used"] == 53
    assert tight["bits_used"] > 64
    assert set(well["methods"]) <= {"alt_sum", "alt_sum_extended"}


def test_stress_bits_grow_with_cancellation():
    levels = [vf.StressLevel(p, 50.0, 3) for p in (1e-2, 1e-6, 1e-9, 1e-12, 1e-15)]
    rep = vf.cancellation_stress(1, levels, seed=2)
    bits = [l["bits_used"] for l in rep.levels]
    assert bits == sorted(bits)
    # above the binary64 floor, growth is linear in -log2 of the gap product
    escalated = [(b, -math.log2(l["gap_product"]))
                 for b, l in zip(bits, rep.levels) if b > 64]
    assert len(escalated) >= 3
    slopes = np.diff([b for b, _ in escalated]) / np.diff([p for _, p in escalated])
    assert np.all((slopes > 0.5) & (slopes < 2.5))


def test_prop_checks_all_pass():
    for n in (1, 2, 3):
        rep = vf.prop_checks(n, samples=150, seed=1)
        failing = [p["name"] for p in rep.properties if not p["passed"]]
        assert rep.all_passed, f"failing properties at rank {n}: {failing}"


def test_prop_checks_rank4_combinatorics():
    rep = vf.prop_checks(4, samples=80, seed=4)
    names = {p["name"]: p for p in rep.properties}
    assert names["decompose_nonnegative"]["passed"]
    assert names["large_regime_alt_sum_bounds"]["passed"]
    assert "factorization_ratio_positive" not in names  # quadrature ranks only


def test_run_suite_rank1():
    results, ok = vf.run_suite(1, "all", seed=0)
    assert ok
    assert results["psi_ratio"]["passed"]
    assert results["psi_ratio"]["report"]["aggregates"]["overall"]["max"] <= 1.30
    assert results["props"]["passed"]
    assert results["cancellation"]["passed"]
    assert abs(results["heat_ratio"]["slope"] + 2.0) < 0.02


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == weylheat.__version__ == vf.CODE_VERSION
