"""Grid sweeps, ratio reports, property suites, and the cancellation harness.

Reports are deterministic: given the same config, seed, and code version the
serialized records are byte-for-byte identical (wall-clock metadata is kept
out of the canonical serialization).  Sample evaluation order is fixed by
sample index, so results do not depend on how work is parallelized.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__ as CODE_VERSION
from . import factorization as fz
from . import heat as ht
from . import rootsystem as rs
from . import spherical as sp
from ._quad import log_positive
from .errors import RankTooLarge, WeylHeatError

SCHEMA_VERSION = 1

HIST_BINS = 24


# ---------------------------------------------------------------------------
# configs and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"axis ends must be finite, got {self.lo!r}:{self.hi!r}")
        if not self.hi > self.lo:
            raise ValueError("axis range must have positive length")
        if self.points < 2:
            raise ValueError("axis needs at least 2 points")

    def grid(self, log: bool) -> np.ndarray:
        if log:
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep layout: gap axes for the spectral and base arguments, plus t.

    lam_axis parametrizes the simple-root gaps of the spectral argument (psi's
    lam, the heat kernel's Y); x_axis those of the base point; t_axis only
    applies to heat sweeps.  mode 'random' draws log-uniformly from each axis
    range and requires a seed.
    """

    rank: int
    lam_axis: AxisSpec
    x_axis: AxisSpec
    t_axis: Optional[AxisSpec] = None
    mode: str = "log_grid"  # grid | log_grid | random
    samples: int = 0  # only for random mode
    seed: Optional[int] = None
    target_log_err: float = 1e-9
    sandwich_tol: float = 1e-9
    delta: float = sp.DEFAULT_DELTA

    def __post_init__(self):
        if self.mode not in ("grid", "log_grid", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != "grid":  # log-spaced grids and log-uniform draws
            for axis in (self.lam_axis, self.x_axis, self.t_axis):
                if axis is not None and axis.lo <= 0:
                    raise ValueError("log axis needs lo > 0")
        if self.mode == "random":
            if self.seed is None:
                raise ValueError("random mode requires a seed")
            if self.samples < 1:
                raise ValueError("random mode requires samples >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(d: dict) -> SweepConfig:
    def axis(a):
        return AxisSpec(**a) if a else None

    return SweepConfig(
        rank=d["rank"],
        lam_axis=AxisSpec(**d["lam_axis"]),
        x_axis=AxisSpec(**d["x_axis"]),
        t_axis=axis(d.get("t_axis")),
        mode=d.get("mode", "log_grid"),
        samples=d.get("samples", 0),
        seed=d.get("seed"),
        target_log_err=d.get("target_log_err", 1e-9),
        sandwich_tol=d.get("sandwich_tol", 1e-9),
        delta=d.get("delta", sp.DEFAULT_DELTA),
    )


def config_hash(config: SweepConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RatioRecord:
    index: int
    lam: tuple
    x: tuple
    t: Optional[float]
    log_value: float
    log_envelope: float
    log_ratio: float
    ratio: float
    regime: str
    method: str
    abs_log_error: float
    flags: tuple = ()
    error: Optional[str] = None


@dataclass
class RatioReport:
    kind: str  # "psi_ratio" | "heat_ratio"
    config: SweepConfig
    records: list
    aggregates: dict
    violations: list
    config_hash: str
    code_version: str = CODE_VERSION
    # wall-clock metadata; excluded from the canonical bytes so re-runs with
    # the same (config, seed, code version) serialize identically
    created_at: Optional[str] = None


def _aggregate(records) -> dict:
    def stats(rows):
        ratios = [r.ratio for r in rows if r.error is None]
        if not ratios:
            return {"count": 0, "min": None, "max": None, "geomean": None}
        logs = [r.log_ratio for r in rows if r.error is None]
        return {
            "count": len(ratios),
            "min": min(ratios),
            "max": max(ratios),
            "geomean": math.exp(sum(logs) / len(logs)),
        }

    by_regime = {}
    for reg in (sp.REGIME_SMALL, sp.REGIME_LARGE, sp.REGIME_MIXED):
        rows = [r for r in records if r.regime == reg]
        if rows:
            by_regime[reg] = stats(rows)
    agg = {"overall": stats(records), "by_regime": by_regime}
    good = [r.log_ratio for r in records if r.error is None]
    if good:
        lo, hi = min(good), max(good)
        span = (hi - lo) or 1.0
        edges = [lo + span * k / HIST_BINS for k in range(HIST_BINS + 1)]
        counts = [0] * HIST_BINS
        for v in good:
            k = min(int((v - lo) / span * HIST_BINS), HIST_BINS - 1)
            counts[k] += 1
        agg["log_ratio_histogram"] = {"edges": edges, "counts": counts}
    return agg


# ---------------------------------------------------------------------------
# sample generation (gap space, deterministic order)
# ---------------------------------------------------------------------------

def _coords_from_gaps(gaps: np.ndarray) -> np.ndarray:
    """Dominant vector with the given simple gaps and last coordinate 0."""
    out = np.zeros(gaps.size + 1)
    out[:-1] = np.cumsum(gaps[::-1])[::-1]
    return out


def _iter_samples(config: SweepConfig, with_t: bool):
    """Yield (index, lam_gaps, x_gaps, t or None) in a fixed deterministic order."""
    n = config.rank
    if config.mode in ("grid", "log_grid"):
        log = config.mode == "log_grid"
        gl = config.lam_axis.grid(log)
        gx = config.x_axis.grid(log)
        axes = [gl] * n + [gx] * n
        if with_t:
            if config.t_axis is None:
                raise ValueError("heat sweep requires t_axis")
            axes.append(config.t_axis.grid(log))
        for idx, combo in enumerate(itertools.product(*axes)):
            lam_g = np.array(combo[:n])
            x_g = np.array(combo[n : 2 * n])
            t = float(combo[-1]) if with_t else None
            yield idx, lam_g, x_g, t
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))

        def draw(axis: AxisSpec, k: int) -> np.ndarray:
            u = rng.random(k)
            return axis.lo * (axis.hi / axis.lo) ** u  # log-uniform

        for idx in range(config.samples):
            lam_g = draw(config.lam_axis, n)
            x_g = draw(config.x_axis, n)
            t = float(draw(config.t_axis, 1)[0]) if with_t else None
            yield idx, lam_g, x_g, t


# ---------------------------------------------------------------------------
# sweep records and reports
# ---------------------------------------------------------------------------

def _sample_record(idx, lam, x, t, evaluate):
    """(record, violation) of one sweep sample; evaluate() gives (result,
    envelope, regime, violation), and a WeylHeatError becomes an error record."""
    try:
        res, env, reg, violation = evaluate()
    except WeylHeatError as exc:
        rec = RatioRecord(
            index=idx, lam=tuple(lam), x=tuple(x), t=t,
            log_value=math.nan, log_envelope=math.nan, log_ratio=math.nan,
            ratio=math.nan, regime="", method="", abs_log_error=math.nan,
            error=f"{type(exc).__name__}: {exc}",
        )
        return rec, {"index": idx, "kind": "eval_error", "error": str(exc)}
    log_ratio = res.log_value - env
    confluent = res.method in (sp.METHOD_ITER, sp.METHOD_CLOSED)
    rec = RatioRecord(
        index=idx, lam=tuple(lam), x=tuple(x), t=t,
        log_value=res.log_value, log_envelope=env, log_ratio=log_ratio,
        ratio=math.exp(log_ratio), regime=reg, method=res.method,
        abs_log_error=res.abs_log_error, flags=("confluent_path",) if confluent else (),
    )
    return rec, violation


def _sweep_report(kind: str, config: SweepConfig, fn, tasks, threads: int) -> RatioReport:
    results = _run_tasks(fn, tasks, threads)
    records = [r for r, _v in results]
    return RatioReport(
        kind=kind,
        config=config,
        records=records,
        aggregates=_aggregate(records),
        violations=[v for _r, v in results if v is not None],
        config_hash=config_hash(config),
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# psi ratio sweep
# ---------------------------------------------------------------------------

def _eval_psi_sample(args):
    idx, lam_g, x_g, target, sandwich_tol, delta = args
    lam = _coords_from_gaps(np.asarray(lam_g))
    x = _coords_from_gaps(np.asarray(x_g))

    def evaluate():
        res = sp.psi_stable(lam, x, target)
        env = sp.psi_envelope(lam, x)
        reg = sp.regime_classify(lam, x, delta).label
        lower = rs.min_pairing_value(lam, x)
        upper = float(np.dot(lam, x))
        violation = None
        if res.log_value < lower - sandwich_tol or res.log_value > upper + sandwich_tol:
            violation = {
                "index": idx,
                "kind": "sandwich",
                "log_value": res.log_value,
                "lower": lower,
                "upper": upper,
            }
        return res, env, reg, violation

    return _sample_record(idx, lam, x, None, evaluate)


def sweep_psi_ratio(config: SweepConfig, threads: int = 1) -> RatioReport:
    """Evaluate psi against its envelope over the configured gap grid.

    Per sample: stable evaluation, envelope, regime label, and the two-sided
    pairing bounds (violations are collected, the sweep keeps going).
    """
    tasks = [
        (idx, tuple(lg), tuple(xg), config.target_log_err, config.sandwich_tol, config.delta)
        for idx, lg, xg, _t in _iter_samples(config, with_t=False)
    ]
    return _sweep_report("psi_ratio", config, _eval_psi_sample, tasks, threads)


# ---------------------------------------------------------------------------
# heat ratio sweep
# ---------------------------------------------------------------------------

def _eval_heat_sample(args):
    idx, lam_g, x_g, t, target, delta, ck = args
    n = len(lam_g)
    ctx = ht.HeatContext(n=n, d=n + 1, gamma=rs.gamma(n), c_k=ck, c_k_provenance=ht.PROV_MMS)
    y = _coords_from_gaps(np.asarray(lam_g))
    x = _coords_from_gaps(np.asarray(x_g))

    def evaluate():
        res = ht.heat_flat(ctx, t, x, y, target)
        env = ht.heat_envelope(t, x, y)
        return res, env, sp.regime_classify(x, y / (2.0 * t), delta).label, None

    return _sample_record(idx, y, x, t, evaluate)


def sweep_heat_ratio(config: SweepConfig, threads: int = 1) -> RatioReport:
    """Kernel-to-envelope ratios over a (t, X, Y) grid; same report layout."""
    ck = ht.mms_constant(config.rank)
    tasks = [
        (idx, tuple(lg), tuple(xg), t, config.target_log_err, config.delta, ck)
        for idx, lg, xg, t in _iter_samples(config, with_t=True)
    ]
    return _sweep_report("heat_ratio", config, _eval_heat_sample, tasks, threads)


def _run_tasks(fn, tasks, threads: int):
    if threads <= 1 or len(tasks) < 32:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (threads * 8))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_to_obj(report: RatioReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "code_version": report.code_version,
        "config": report.config.to_dict(),
        "config_hash": report.config_hash,
        "aggregates": report.aggregates,
        "violations": report.violations,
        "records": [dict(vars(r)) for r in report.records],
    }


def to_json_bytes(obj) -> bytes:
    if isinstance(obj, RatioReport):
        obj = report_to_obj(obj)
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True) + "\n").encode()


_CSV_FIELDS = [
    "index", "t", "lam", "x", "log_value", "log_envelope", "log_ratio",
    "ratio", "regime", "method", "abs_log_error", "flags", "error",
]


def to_csv_bytes(report: RatioReport) -> bytes:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    for r in report.records:
        row = []
        for f in _CSV_FIELDS:
            v = getattr(r, f)
            if isinstance(v, tuple):
                v = " ".join(t if isinstance(t, str) else repr(float(t)) for t in v)
            row.append("" if v is None else v)
        w.writerow(row)
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# cancellation stress harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StressLevel:
    gap_product: float
    pairing: float
    samples: int = 12


DEFAULT_STRESS_LEVELS = tuple(
    StressLevel(p, s)
    for p in (1.0, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12)
    for s in (50.0, 500.0)
)


@dataclass
class StressReport:
    n: int
    seed: int
    levels: list
    overall_worst_rel_err: float


def cancellation_stress(n: int, levels=None, seed: int = 0) -> StressReport:
    """Compare psi_stable against a 512-bit alternating-sum reference.

    Each level fixes a target pairwise gap product and a pairing magnitude
    <lam, X>; samples jitter the gaps around the target.  Records the worst
    relative error and the precision the dispatcher selected.
    """
    if n > 3:
        raise RankTooLarge("stress harness runs the 512-bit reference at rank <= 3")
    levels = list(levels) if levels is not None else list(DEFAULT_STRESS_LEVELS)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out_levels = []
    overall = 0.0
    m = n + 1
    for lv in levels:
        worst = 0.0
        bits_max = 53
        methods = {}
        for _ in range(lv.samples):
            half = math.sqrt(lv.gap_product)
            jitter = np.exp(rng.uniform(0.0, 1.0, size=n))
            g_lam = half * jitter
            g_x = half / jitter * np.exp(rng.uniform(0.0, 0.5, size=n))
            lam = _coords_from_gaps(g_lam)
            x = _coords_from_gaps(g_x)
            shift = math.sqrt(lv.pairing / m)
            lam = lam + shift
            x = x + shift
            res = sp.psi_stable(lam, x, 1e-10)
            ref = sp.psi_alt_sum(lam, x, 512)
            err = abs(res.log_value - ref.log_value)
            worst = max(worst, err)
            bits_max = max(bits_max, sp.planned_precision(lam, x, 1e-10))
            methods[res.method] = methods.get(res.method, 0) + 1
        overall = max(overall, worst)
        out_levels.append(
            {
                "gap_product": lv.gap_product,
                "pairing": lv.pairing,
                "samples": lv.samples,
                "worst_rel_err": worst,
                "bits_used": bits_max,
                "methods": methods,
            }
        )
    return StressReport(n=n, seed=seed, levels=out_levels, overall_worst_rel_err=overall)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def sample_dominant(rng, n: int, count: int, lo: float = 1e-2, hi: float = 10.0) -> np.ndarray:
    """(count, n+1) dominant vectors with log-uniform gaps and standard normal shifts."""
    u = rng.random((count, n))
    gaps = lo * (hi / lo) ** u
    coords = np.zeros((count, n + 1))
    coords[:, :-1] = np.cumsum(gaps[:, ::-1], axis=1)[:, ::-1]
    coords += rng.standard_normal((count, 1))
    return coords


def sample_large_regime(rng, n: int, count: int) -> tuple:
    """Pairs (lam, x) with alpha(lam) alpha(x) >= log |W| for every positive root;
    each simple gap is sqrt(log |W|) times e^u, u uniform on [0, 1.5]."""
    floor = math.sqrt(math.log(rs.weyl_order(n)))
    gl = floor * np.exp(rng.uniform(0.0, 1.5, size=(count, n)))
    gx = floor * np.exp(rng.uniform(0.0, 1.5, size=(count, n)))
    lam = np.zeros((count, n + 1))
    lam[:, :-1] = np.cumsum(gl[:, ::-1], axis=1)[:, ::-1]
    x = np.zeros((count, n + 1))
    x[:, :-1] = np.cumsum(gx[:, ::-1], axis=1)[:, ::-1]
    lam += rng.standard_normal((count, 1))
    x += rng.standard_normal((count, 1))
    return lam, x


def batch_log_alt_sum_T(lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """log of sum_w eps(w) e^{<w lam - lam, X>} for row-paired batches."""
    return log_positive(rs.weyl_alt_terms(lams, xs).sum(axis=-1))


@dataclass
class PropReport:
    n: int
    samples: int
    seed: int
    properties: list
    all_passed: bool


def _prop(name, checked, violations, worst=None, detail=None):
    return {
        "name": name,
        "checked": checked,
        "violations": violations,
        "worst": worst,
        "detail": detail,
        "passed": violations == 0,
    }


def prop_checks(n: int, samples: int = 1000, seed: int = 0) -> PropReport:
    """Run the module-level invariant suites and report per-property outcomes.

    Covers the root decomposition (nonnegativity, exact reconstruction, the
    pairing inequality), dominance maximality, the large-regime bounds on the
    alternating sum, the small-regime comparison with e^{<lam,X>}, brute-force
    minimal pairing, and (rank <= 3) factorization positivity and the rank
    recursion.  Failures are collected with counterexamples, not raised.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = n + 1
    props = []

    # decomposition: nonnegative coefficients, exact reconstruction
    Y = sample_dominant(rng, n, samples)
    alphas = np.zeros((n, m))
    for i in range(n):
        alphas[i, i] = 1.0
        alphas[i, i + 1] = -1.0
    bad_nonneg = 0
    bad_recon = 0
    worst_recon = 0.0
    scale = 1.0 + np.abs(Y).max()
    for w in rs.weyl_elements(n):
        perm = np.asarray(w.perm)
        wy = np.empty_like(Y)
        wy[:, perm] = Y
        diff = Y - wy
        c = np.cumsum(diff, axis=1)[:, :-1]
        bad_nonneg += int((c < -1e-12 * scale).sum())
        recon = c @ alphas
        err = np.abs(recon - diff).max(axis=1)
        worst_recon = max(worst_recon, float(err.max()))
        bad_recon += int((err > 1e-12 * scale).sum())
    props.append(_prop("decompose_nonnegative", samples * rs.weyl_order(n), bad_nonneg))
    props.append(_prop("decompose_reconstruction", samples * rs.weyl_order(n), bad_recon, worst_recon))

    # pairing inequality: <lam - w lam, X> >= max_{i: c_i>0} alpha_i(lam) alpha_i(X)
    lam = sample_dominant(rng, n, samples, lo=1e-2, hi=5.0)
    X = sample_dominant(rng, n, samples, lo=1e-2, hi=5.0)
    gl = lam[:, :-1] - lam[:, 1:]
    gx = X[:, :-1] - X[:, 1:]
    bad_pair = 0
    for w in rs.weyl_elements(n):
        if w.is_identity:
            continue
        perm = np.asarray(w.perm)
        wl = np.empty_like(lam)
        wl[:, perm] = lam
        c = np.cumsum(lam - wl, axis=1)[:, :-1]
        lhs = np.einsum("sm,sm->s", lam - wl, X)
        prod = gl * gx
        prod = np.where(c > 1e-11 * (1.0 + np.abs(lam).max()), prod, -np.inf)
        rhs = prod.max(axis=1)
        mask = np.isfinite(rhs)
        bad_pair += int((lhs[mask] < rhs[mask] - 1e-9).sum())
    props.append(_prop("pairing_inequality", samples * (rs.weyl_order(n) - 1), bad_pair))

    # dominance maximality: <w lam, X> <= <lam, X>
    bad_dom = 0
    for w in rs.weyl_elements(n):
        perm = np.asarray(w.perm)
        wl = np.empty_like(lam)
        wl[:, perm] = lam
        gap = np.einsum("sm,sm->s", lam - wl, X)
        bad_dom += int((gap < -1e-10).sum())
    props.append(_prop("dominance_maximality", samples * rs.weyl_order(n), bad_dom))

    # bounded decomposition constant
    cw = rs.remark_bound_constant(n)
    props.append(_prop("decomposition_constant_finite", 1, 0 if math.isfinite(cw) else 1, cw))

    # large regime: 1/2 e^{<lam,X>} <= alt sum <= |W| e^{<lam,X>}
    lamL, xL = sample_large_regime(rng, n, samples)
    TL = batch_log_alt_sum_T(lamL, xL)
    w_count = rs.weyl_order(n)
    viol = int((TL < math.log(0.5) - 1e-12).sum() + (TL > math.log(w_count) + 1e-12).sum())
    props.append(_prop("large_regime_alt_sum_bounds", samples, viol, float(np.min(TL))))

    # small regime: psi / e^{<lam,X>} in (0, 1], bounded below
    gsmall = rng.random((samples, 2 * n)) * 0.9 / max(n, 1) + 1e-4
    lamS = np.zeros((samples, m))
    lamS[:, :-1] = np.cumsum(gsmall[:, :n][:, ::-1], axis=1)[:, ::-1]
    xS = np.zeros((samples, m))
    xS[:, :-1] = np.cumsum(gsmall[:, n:][:, ::-1], axis=1)[:, ::-1]
    logpsi_shift = np.array(
        [sp.psi_stable(lamS[i], xS[i], 1e-10).log_value - float(lamS[i] @ xS[i]) for i in range(samples)]
    )
    bad_small = int((logpsi_shift > 1e-10).sum())
    props.append(
        _prop("small_regime_upper_unit", samples, bad_small, float(np.exp(logpsi_shift.min())),
              detail="worst field reports the observed lower constant")
    )

    # brute-force minimal pairing agrees with the reversed shortcut
    bad_min = 0
    for i in range(min(samples, 50)):
        _w, val = rs.min_weyl_pairing(lam[i], X[i])
        if abs(val - rs.min_pairing_value(lam[i], X[i])) > 1e-10 * (1 + abs(val)):
            bad_min += 1
    props.append(_prop("min_pairing_reversal", min(samples, 50), bad_min))

    # factorization positivity and the rank recursion (quadrature ranks only)
    if n <= 3:
        k = min(samples, 24)
        bad_fact = 0
        worst_ratio = None
        for i in range(k):
            inp = fz.FactorInput.of(lam[i], X[i])
            rep = fz.factorization_ratio(inp, 1e-7)
            if not (math.isfinite(rep.ratio) and rep.ratio > 0.0):
                bad_fact += 1
            if n == 1 and abs(rep.ratio - 1.0) > 1e-9:
                bad_fact += 1
            worst_ratio = rep.ratio if worst_ratio is None else max(worst_ratio, rep.ratio)
        props.append(_prop("factorization_ratio_positive", k, bad_fact, worst_ratio))
    if 1 <= n - 1 and n <= 3:
        k = min(samples, 12)
        bad_rec = 0
        worst = 0.0
        for i in range(k):
            inp = fz.FactorInput.of(lam[i], X[i])
            xv = X[i]
            if xv[0] - xv[1] < xv[-2] - xv[-1]:
                inp = fz.reverse_input(inp)
            est = fz.recursive_estimate(inp, 1e-7)
            mast = fz.master_integral(inp, 1e-7)
            ratio = math.exp(est - mast)
            worst = max(worst, abs(math.log(ratio)))
            if not (math.isfinite(ratio) and ratio > 0.0):
                bad_rec += 1
        props.append(_prop("recursive_estimate_bounded", k, bad_rec, worst,
                           detail="worst field is max |log(estimate/master)|"))

    return PropReport(
        n=n, samples=samples, seed=seed, properties=props,
        all_passed=all(p["passed"] for p in props),
    )


# ---------------------------------------------------------------------------
# suite runner used by the command line
# ---------------------------------------------------------------------------

def default_psi_config(n: int, wide: bool = False) -> SweepConfig:
    pts = {1: 40, 2: 9, 3: 5}.get(n, 4)
    lo, hi = (1e-4, 1e4) if wide else (1e-3, 1e3)
    if wide:
        pts = {1: 53, 2: 11, 3: 6}.get(n, 5)
    ax = AxisSpec(lo, hi, pts)
    return SweepConfig(rank=n, lam_axis=ax, x_axis=ax, mode="log_grid")


def default_heat_config(n: int, wide: bool = False) -> SweepConfig:
    pts = {1: 10, 2: 5}.get(n, 4)
    scale = math.sqrt(10.0) if wide else 1.0
    gap = AxisSpec(0.05 / scale, 10.0 * scale, pts)
    t_ax = AxisSpec(1e-2 / (scale * scale), 1e2 * (scale * scale), pts)
    return SweepConfig(rank=n, lam_axis=gap, x_axis=gap, t_axis=t_ax, mode="log_grid")


def run_suite(n: int, suite: str = "all", seed: int = 0, threads: int = 1):
    """Run a named verification suite; returns (results dict, all_passed)."""
    known = ("psi_ratio", "heat_ratio", "props", "cancellation", "all")
    if suite not in known:
        raise ValueError(f"unknown suite {suite!r}; choose from {known}")
    results = {}
    ok = True

    if suite in ("psi_ratio", "all"):
        rep = sweep_psi_ratio(default_psi_config(n), threads=threads)
        agg = rep.aggregates["overall"]
        passed = not rep.violations and agg["count"] > 0
        if n == 1:
            passed = passed and agg["max"] <= 1.30 and agg["min"] >= 1.0 - 1e-9
        results["psi_ratio"] = {"passed": passed, "report": report_to_obj(rep)}
        ok = ok and passed

    if suite in ("heat_ratio", "all") and n <= 3:
        rep = sweep_heat_ratio(default_heat_config(n), threads=threads)
        agg = rep.aggregates["overall"]
        ratios_ok = (
            agg["count"] > 0
            and not rep.violations
            and math.isfinite(agg["max"])
            and agg["min"] > 0.0
        )
        ctx = ht.make_heat_context(n)
        slope = ht.heat_time_slope(ctx, 0.8 * rs.rho(n).array(), 0.5 * rs.rho(n).array())
        slope_ok = abs(slope + (ctx.d / 2.0 + ctx.gamma)) < 0.01 * (ctx.d / 2.0 + ctx.gamma)
        passed = ratios_ok and slope_ok
        results["heat_ratio"] = {
            "passed": passed,
            "slope": slope,
            "report": report_to_obj(rep),
        }
        ok = ok and passed

    if suite in ("props", "all"):
        rep = prop_checks(n, samples=400, seed=seed)
        results["props"] = {
            "passed": rep.all_passed,
            "n": rep.n,
            "samples": rep.samples,
            "seed": rep.seed,
            "properties": rep.properties,
        }
        ok = ok and rep.all_passed

    if suite in ("cancellation", "all") and n <= 3:
        levels = [StressLevel(1.0, 50.0, 6), StressLevel(1e-6, 50.0, 6), StressLevel(1e-9, 200.0, 6)]
        rep = cancellation_stress(n, levels, seed=seed)
        passed = rep.overall_worst_rel_err <= 1e-9
        results["cancellation"] = {
            "passed": passed,
            "n": rep.n,
            "seed": rep.seed,
            "levels": rep.levels,
            "overall_worst_rel_err": rep.overall_worst_rel_err,
        }
        ok = ok and passed

    return results, ok
