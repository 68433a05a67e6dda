import csv
import io
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
    cfg = vf.SweepConfig(rank=1, lam_axis=vf.AxisSpec(0.0, 1.0, 2),
                         x_axis=vf.AxisSpec(0.5, 1.0, 2), mode="grid")
    rep = vf.sweep_psi_ratio(cfg)
    flagged = [r for r in rep.records if "confluent_path" in r.flags]
    assert flagged, "gap 0 samples must route through the confluent path"
    assert all(r.error is None for r in rep.records)


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
    rec, violation = vf._eval_heat_sample((7, (1.0, 2.0), (0.5, 0.25), 0.3, 1e-9, 1.0, 1.0))
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
    calls = _count_as_coords(monkeypatch)
    lam, x = np.array([2.0, 0.7, 0.0]), np.array([1.5, 0.4, 0.0])
    assert sp.psi_stable(lam, x).method == sp.METHOD_ALT
    assert calls[0] <= 6  # the public pair check, cancellation_bits and psi_alt_sum
    calls[0] = 0
    rec, _ = vf._eval_psi_sample((0, (1.3, 0.7), (1.1, 0.4), 1e-9, 1e-9, 1.0))
    assert rec.error is None and calls[0] <= 12
    calls[0] = 0
    rec, _ = vf._eval_heat_sample((0, (1.3, 0.7), (1.1, 0.4), 0.5, 1e-9, 1.0, ht.mms_constant(2)))
    assert rec.error is None and calls[0] <= 12


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
