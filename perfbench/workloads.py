"""Seeded op streams for the three benchmark workloads.

Each workload is a stream of cycles.  A cycle is a fixed list of slots (class,
rank, variant) whose order and composition do not depend on the seed; the seed
only draws the numerical inputs of each slot, from a generator keyed by
(seed, cycle index).  So a different seed changes the inputs but never the
class weights, and cycle k of a seed is the same on every run.

Ops call the library through module attributes (``sp.psi_stable`` and so on),
so the span wrappers of ``tracing`` see them when a traced run installs them.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from weylheat import cli
from weylheat import factorization as fz
from weylheat import heat as ht
from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat import verify as vf
from weylheat.errors import ToleranceUnachievable, WeylHeatError

# Memory guard: mms_constant builds a 32^(n+1) tensor grid (33.5M points per
# array at n = 4, 1.07e9 at n = 5), so no heat context or Gaussian constant is
# ever built above this rank.  The (n+1)! enumeration of psi stays at n <= 7.
MAX_HEAT_RANK = 3
MAX_PSI_RANK = 7

WORKLOADS = ("sweep_grid", "point_eval", "oracle_certify")

# Seconds of calls one cycle takes on a 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4, mpmath 1.3 without gmpy2); a run of S seconds does S / this cycles.
NOMINAL_CYCLE_S = {"sweep_grid": 2.3, "point_eval": 3.5, "oracle_certify": 10.0}


def heat_context(n: int) -> ht.HeatContext:
    if n > MAX_HEAT_RANK:
        raise ValueError(f"memory guard: no heat context above rank {MAX_HEAT_RANK} (asked {n})")
    return ht.make_heat_context(n)


def _rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, cycle])))


def _coords(gaps, offset: float = 0.0) -> np.ndarray:
    """Dominant vector with the given simple gaps and last coordinate offset."""
    gaps = np.asarray(gaps, dtype=float)
    out = np.zeros(gaps.size + 1)
    out[:-1] = np.cumsum(gaps[::-1])[::-1]
    return out + offset


def _logu(rng, lo: float, hi: float, k: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=k))


@dataclass
class Op:
    """One unit of work: a public call, or one CLI sweep (many records)."""

    cls: str
    rank: int
    fn: str  # "module.function" resolved at call time
    args: tuple
    target: Optional[float] = None
    known_defect: Optional[str] = None
    # exceptions this op may raise without it being an unexpected failure
    may_raise: tuple = ()
    meta: dict = field(default_factory=dict)  # sweep axes (lo, hi, points)


@dataclass
class Outcome:
    op: Op
    seconds: float  # wall time of the call
    cpu_seconds: float  # CPU time of this process during the call
    result: Any = None
    error: Optional[str] = None
    exc_type: Optional[type] = None
    records: int = 1  # ops this call counts for (sweep records)
    failed_records: int = 0
    record_cpu_seconds: Optional[list] = None  # per-record latency of a sweep

    @property
    def known_failure(self) -> bool:
        """Whether the raise is one the op lists in may_raise."""
        return self.exc_type is not None and issubclass(self.exc_type, self.op.may_raise)


_MODULES = {"sp": sp, "ht": ht, "rs": rs, "fz": fz, "vf": vf}
TAKES_CONTEXT = {"ht.heat_flat", "ht.heat_curved", "ht.images_oracle", "ht.inverse_fourier_oracle",
                 "ht.semigroup_check", "ht.pde_residual"}


def _resolve(name: str) -> Callable:
    mod, fn = name.split(".")
    return getattr(_MODULES[mod], fn)


# ---------------------------------------------------------------------------
# point_eval: single psi_stable / phi_curved / heat_flat calls, ranks 1-7
# ---------------------------------------------------------------------------

TWO_SIDED = "two_sided_confluent: Richardson extrapolation stalls near 5e-6 (ToleranceUnachievable)"
HEAT_CONTRACT = "heat_flat_error_contract: near-diagonal miss at t=1e-8, no raise at t=1e-300"
CSV_REPR = "csv_repr: to_csv_bytes writes coordinates as np.float64(...) under numpy 2"
CLOSED_FORM = "closed_form_bound: eps (1 + |c sum X|) omits the rounding of the coordinate sum"

# (class, rank, variant, slots per cycle).  Rank 7 gets a small share: two
# calls on the 80-bit rung and one on the mpmath rung, which alone costs about
# as much as the rest of a cycle.
POINT_TEMPLATE = (
    [("generic", n, "", 30) for n in (1, 2, 3, 4)]
    + [("large_pairing", n, "", 10) for n in (1, 2, 3)]
    + [("heavy_cancellation", n, "", 16) for n in (2, 3)]
    + [("one_sided", 2, "lam", 4), ("one_sided", 2, "x", 4),
       ("one_sided", 3, "lam", 2), ("one_sided", 3, "x", 2),
       ("one_sided", 4, "lam", 2), ("one_sided", 4, "x", 2)]
    + [("two_sided", 2, "", 2), ("two_sided", 3, "", 6)]
    + [("constant_side", n, v, 1) for n in range(1, 8) for v in ("lam", "x")]
    + [("constant_side", 3, "lam", 1), ("constant_side", 3, "x", 1)]
    + [("high_rank", 5, "", 8), ("high_rank", 6, "", 6),
       ("high_rank", 7, "wide", 2), ("high_rank", 7, "narrow", 1)]
    + [("phi", n, "", 12) for n in (1, 2, 3)]
    + [("heat", n, "", 26) for n in (1, 2, 3)]
    + [("heat_curved", n, "", 2) for n in (1, 2, 3)]
    + [("heat_sentinel", 1, "near_diagonal", 1), ("heat_sentinel", 1, "tiny_t", 1)]
)


def _point_slots() -> list:
    """Slots as (class, rank, variant, stratum, strata) in a fixed order.

    The k slots of one (class, rank, variant) draw their main parameter from
    k equal strata of its range, so every cycle covers the range the same way.
    """
    slots = [(c, n, v, j, k) for c, n, v, k in POINT_TEMPLATE for j in range(k)]
    # a fixed, seed-independent interleaving so classes do not run in blocks
    random.Random(20201222).shuffle(slots)
    return slots


POINT_SLOTS = _point_slots()


def _gaps(rng, scale: float, n: int) -> np.ndarray:
    return scale * np.exp(rng.uniform(-0.25, 0.25, size=n))


def point_op(rng, cls: str, n: int, variant: str, u: float) -> Op:
    """One point_eval op; u in [0, 1) places its main parameter in the range."""
    if cls in ("generic", "phi"):
        scale = 0.3 * 10.0 ** u
        lam = _coords(_gaps(rng, scale, n), rng.normal())
        x = _coords(_gaps(rng, scale, n), rng.normal())
        fn = "sp.psi_stable" if cls == "generic" else "sp.phi_curved"
        return Op(cls, n, fn, (lam, x, 1e-12), target=1e-12)
    if cls == "large_pairing":
        lam = _coords(_logu(rng, 1.0, 3.0, n), 5.0 + 10.0 * u)
        x = _coords(_logu(rng, 1.0, 3.0, n), rng.uniform(5.0, 15.0))
        return Op(cls, n, "sp.psi_stable", (lam, x, 1e-12), target=1e-12)
    if cls == "heavy_cancellation":
        half = math.sqrt(10.0 ** (-10.0 + 6.0 * u))
        jitter = np.exp(rng.uniform(0.0, 1.0, size=n))
        shift = rng.uniform(1.0, 3.0)
        lam = _coords(half * jitter, shift)
        x = _coords(half / jitter * np.exp(rng.uniform(0.0, 0.5, size=n)), shift)
        return Op(cls, n, "sp.psi_stable", (lam, x, 1e-10), target=1e-10)
    if cls in ("one_sided", "two_sided"):
        scale = 0.3 * (1.0 / 0.3) ** (rng.uniform() if cls == "two_sided" else u)
        g_lam = _gaps(rng, scale, n)
        g_x = _gaps(rng, scale, n)
        if cls == "two_sided" or variant == "lam":
            g_lam[rng.integers(n)] = 0.0
        if cls == "two_sided" or variant == "x":
            g_x[rng.integers(n)] = 0.0
        lam = _coords(g_lam, rng.normal())
        x = _coords(g_x, rng.normal())
        if cls == "two_sided":
            target = 10.0 ** (-10.0 + 4.0 * u)
            return Op(cls, n, "sp.psi_stable", (lam, x, target), target=target,
                      known_defect=TWO_SIDED, may_raise=(ToleranceUnachievable,))
        target = 1e-10 if n <= 3 else 1e-6
        return Op(cls, n, "sp.psi_stable", (lam, x, target), target=target)
    if cls == "constant_side":
        const = np.full(n + 1, -2.0 + 4.0 * u)
        other = _coords(_logu(rng, 0.3, 3.0, n), rng.normal())
        lam, x = (const, other) if variant == "lam" else (other, const)
        return Op(cls, n, "sp.psi_stable", (lam, x, 1e-12), target=1e-12, known_defect=CLOSED_FORM)
    if cls == "high_rank":
        if variant == "narrow":
            # gaps of 0.3-0.55 at 1e-10 take the mpmath rung at rank 7; from
            # about 0.8 up the 80-bit rung suffices, at 30 times less cost
            scale, target = 0.3 * (0.55 / 0.3) ** u, 1e-10
        else:
            scale, target = 1.5 * 2.0 ** u, (1e-10 if n == 7 else 1e-12)
        lam = _coords(_gaps(rng, scale, n), rng.normal())
        x = _coords(_gaps(rng, scale, n), rng.normal())
        return Op(cls, n, "sp.psi_stable", (lam, x, target), target=target)
    if cls in ("heat", "heat_curved"):
        x = _coords(_logu(rng, 0.2, 3.0, n), rng.normal())
        y = _coords(_logu(rng, 0.2, 3.0, n), rng.normal())
        if cls == "heat":
            t = 10.0 ** (-10.0 + 14.0 * u)
            return Op(cls, n, "ht.heat_flat", (n, t, x, y, 1e-12), target=1e-12)
        t = 10.0 ** (-2.0 + 4.0 * u)
        return Op(cls, n, "ht.heat_curved", (n, t, x, y, 1e-12), target=1e-12)
    if cls == "heat_sentinel":
        # the two inputs at which heat_flat is known to break its contract
        if variant == "near_diagonal":
            args = (1, 1e-8, np.array([10.0, 0.0]), np.array([10.0 + 1e-5, 0.0]), 1e-12)
            return Op(cls, 1, "ht.heat_flat", args, target=1e-12, known_defect=HEAT_CONTRACT)
        # here the contract asks for a raise, so a WeylHeatError is no failure
        args = (1, 1e-300, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1e-12)
        return Op(cls, 1, "ht.heat_flat", args, target=1e-12, known_defect=HEAT_CONTRACT,
                  may_raise=(WeylHeatError,))
    raise ValueError(f"unknown class {cls}")


# ---------------------------------------------------------------------------
# sweep_grid: log-grid ratio sweeps through the command line
# ---------------------------------------------------------------------------

# (kind, rank, points per axis, format): 4,133 records per cycle, most of
# them in the rank-2 psi grid (2,401) and the rank-3 one (729).
SWEEP_TEMPLATE = (
    ("psi", 1, 20, "json"),
    ("psi", 1, 12, "csv"),
    ("psi", 2, 7, "json"),
    ("psi", 3, 3, "json"),
    ("heat", 1, 6, "json"),
    ("heat", 2, 3, "json"),
)


def _jitter(rng, value: float, decades: float) -> float:
    return value * 10.0 ** rng.uniform(-decades, decades)


def sweep_op(rng, kind: str, n: int, pts: int, fmt: str) -> Op:
    # the seed moves each axis end by up to 5%: every sample changes, while the
    # share of samples on each precision rung (a step function of the gaps,
    # on a grid of few distinct values) stays put
    if kind == "psi":
        axes = {"lam": (_jitter(rng, 1e-3, 0.02), _jitter(rng, 1e3, 0.02), pts),
                "x": (_jitter(rng, 1e-3, 0.02), _jitter(rng, 1e3, 0.02), pts)}
    else:
        axes = {"lam": (_jitter(rng, 0.05, 0.02), _jitter(rng, 10.0, 0.02), pts),
                "x": (_jitter(rng, 0.05, 0.02), _jitter(rng, 10.0, 0.02), pts),
                "t": (_jitter(rng, 1e-2, 0.02), _jitter(rng, 1e2, 0.02), pts)}
    argv = ["sweep", "--kind", kind, "--n", str(n)]
    for name, (lo, hi, k) in axes.items():
        argv += [f"--{name}-range", f"{lo!r}:{hi!r}:{k}"]
    argv += ["--mode", "log_grid", "--threads", "1", "--format", fmt]
    return Op(f"sweep_{kind}", n, "cli.main", (argv,), target=1e-9, meta=axes)


def sweep_config(op: Op) -> vf.SweepConfig:
    """The SweepConfig the command line builds for a sweep op."""
    axes = {k: vf.AxisSpec(*v) for k, v in op.meta.items()}
    return vf.SweepConfig(rank=op.rank, lam_axis=axes["lam"], x_axis=axes["x"],
                          t_axis=axes.get("t"), mode="log_grid")


class _Capture:
    """Stand-in for sys.stdout whose .buffer collects the CLI's bytes."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text):
        return self.buffer.write(text.encode())

    def flush(self):
        pass


class RecordTimer:
    """CPU time of the one public call each sweep record makes.

    A psi sweep calls sp.psi_stable once per record, a heat sweep
    ht.heat_flat; calls nested in that call are part of it.  This is one
    timer per record, not the span tracer: two clock reads per call.
    """

    def __init__(self, mod, name: str):
        self.mod, self.name = mod, name
        self.times: list[float] = []

    def __enter__(self):
        fn = self.fn = getattr(self.mod, self.name)
        times = self.times
        busy = [False]

        def timed(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.process_time() - t0)
                busy[0] = False

        setattr(self.mod, self.name, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.mod, self.name, self.fn)


def run_cli(argv) -> tuple[int, bytes]:
    saved = sys.stdout
    sys.stdout = cap = _Capture()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = saved
    return code, cap.buffer.getvalue()


NP_REPR = re.compile(r"np\.float64\((.*)\)")


def _csv_number(text: str, bad: Counter) -> float:
    """A CSV field as a number; counts fields a plain reader cannot take.

    to_csv_bytes writes coordinates with repr(), which numpy 2 spells
    np.float64(...) (the known defect CSV_REPR): such a field is counted as
    "np_repr" and read through; any other unreadable field as "garbled".
    """
    try:
        return float(text)
    except ValueError:
        m = NP_REPR.fullmatch(text)
        if m is None:
            bad["garbled"] += 1
            return math.nan
        bad["np_repr"] += 1
        return float(m.group(1))


def parse_sweep(op: Op, data: bytes) -> list[dict]:
    """Records of a sweep's output as dicts (lam, x, t, log_value, ...).

    A CSV record also carries "unreadable", a Counter of its fields that
    float() rejects (see _csv_number).
    """
    fmt = op.args[0][op.args[0].index("--format") + 1]
    if fmt == "json":
        return json.loads(data)["records"]
    import csv

    rows = list(csv.DictReader(io.StringIO(data.decode())))
    out = []
    for r in rows:
        bad = Counter()
        out.append({
            "index": int(r["index"]),
            "lam": [_csv_number(v, bad) for v in r["lam"].split()],
            "x": [_csv_number(v, bad) for v in r["x"].split()],
            "t": float(r["t"]) if r["t"] else None,
            "log_value": float(r["log_value"]) if r["log_value"] else math.nan,
            "abs_log_error": float(r["abs_log_error"]) if r["abs_log_error"] else math.nan,
            "method": r["method"],
            "error": r["error"] or None,
            "unreadable": bad,
        })
    return out


# ---------------------------------------------------------------------------
# oracle_certify: the verification routes, ranks 1-3
# ---------------------------------------------------------------------------

# Each route once per cycle at each rank from 1 to 3 it supports: the library
# caps calibrate_constant, inverse_fourier_oracle and semigroup_check at rank 2
# (RankTooLarge above).
ORACLE_TEMPLATE = (
    [(f, n) for f in ("mms_constant", "images_oracle", "pde_residual", "psi_iter_quadrature",
                      "psi_mc_orbit", "master_integral", "factor_integral",
                      "recursive_estimate", "cancellation_stress", "prop_checks")
     for n in (1, 2, 3)]
    + [(f, n) for f in ("calibrate_constant", "inverse_fourier_oracle", "semigroup_check")
       for n in (1, 2)]
)
# interleaved once, independently of the seed
random.Random(20201222).shuffle(ORACLE_TEMPLATE)

MC_SAMPLES = 20000


def oracle_op(rng, fn: str, n: int) -> Op:
    rho = rs.rho(n).array()
    # points near fixed multiples of rho: the quadrature grids the oracles
    # build depend on the spread of their arguments, so jitter stays small
    x = 0.8 * rho + rng.uniform(-0.05, 0.05, size=n + 1) * np.arange(n + 1)[::-1]
    y = 0.5 * rho + 0.2 + rng.uniform(-0.05, 0.05, size=n + 1) * np.arange(n + 1)[::-1]
    x = np.sort(x)[::-1]
    y = np.sort(y)[::-1]
    t = rng.uniform(0.6, 0.8)
    mod = {"psi_iter_quadrature": "sp", "psi_mc_orbit": "sp", "master_integral": "fz",
           "factor_integral": "fz", "recursive_estimate": "fz", "cancellation_stress": "vf",
           "prop_checks": "vf"}.get(fn, "ht")
    name = f"{mod}.{fn}"
    sub_seed = int(rng.integers(2**31))
    if fn == "mms_constant":
        return Op(fn, n, name, (n,))
    if fn == "calibrate_constant":
        return Op(fn, n, name, (n,), target=1e-8)
    if fn == "images_oracle":
        return Op(fn, n, name, (n, t, x, y))
    if fn == "inverse_fourier_oracle":
        return Op(fn, n, name, (n, t, x, y, 1e-8))
    if fn == "semigroup_check":
        return Op(fn, n, name, (n, 0.5, 0.5, x, y, 1e-8))
    if fn == "pde_residual":
        return Op(fn, n, name, (n, t, x, y, 1e-3))
    if fn == "psi_iter_quadrature":
        return Op(fn, n, name, (x, y, 1e-9), target=1e-9)
    if fn == "psi_mc_orbit":
        return Op(fn, n, name, (x, y - y.mean(), MC_SAMPLES, sub_seed))
    if fn in ("master_integral", "factor_integral", "recursive_estimate"):
        lam = x + 0.1 * np.arange(n + 1)[::-1]
        inp = fz.FactorInput.of(lam, y)
        if fn == "recursive_estimate" and y[0] - y[1] < y[-2] - y[-1]:
            inp = fz.reverse_input(inp)
        if fn == "master_integral":
            return Op(fn, n, name, (inp, 1e-7))
        if fn == "factor_integral":
            return Op(fn, n, name, (inp, n, 1e-10))
        return Op(fn, n, name, (inp, 1e-7))
    if fn == "cancellation_stress":
        levels = [vf.StressLevel(1.0, 50.0, 4), vf.StressLevel(1e-6, 50.0, 4),
                  vf.StressLevel(1e-9, 200.0, 4)]
        return Op(fn, n, name, (n, levels, sub_seed))
    if fn == "prop_checks":
        return Op(fn, n, name, (n, 100, sub_seed))
    raise ValueError(f"unknown oracle {fn}")


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def cycle_ops(workload: str, seed: int, k: int) -> list[Op]:
    rng = _rng(seed, k)
    if workload == "point_eval":
        return [point_op(rng, c, n, v, (j + rng.uniform()) / strata)
                for c, n, v, j, strata in POINT_SLOTS]
    if workload == "sweep_grid":
        return [sweep_op(rng, *slot) for slot in SWEEP_TEMPLATE]
    if workload == "oracle_certify":
        return [oracle_op(rng, fn, n) for fn, n in ORACLE_TEMPLATE]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def record_latencies(call_times: list, total: float, records: int) -> list:
    """Per-record latency of a sweep: the record's own timed call plus an
    equal share of the sweep's other work (parsing, envelope, regime label,
    aggregation, serialization), all in CPU time."""
    if len(call_times) != records:
        raise RuntimeError(f"sweep made {len(call_times)} timed calls for {records} records")
    shared = (total - sum(call_times)) / records
    return [t + shared for t in call_times]


class Runner:
    """Executes ops of one workload against heat contexts built once."""

    def __init__(self, workload: str):
        self.workload = workload
        self.contexts = {}

    def warm(self) -> None:
        """The set-up a caller pays once: import, contexts, warm caches."""
        ranks = {"sweep_grid": (1, 2), "point_eval": (1, 2, 3), "oracle_certify": (1, 2, 3)}
        for n in ranks[self.workload]:
            self.contexts[n] = heat_context(n)
        top = {"sweep_grid": 4, "point_eval": 7, "oracle_certify": 4}[self.workload]
        for m in range(2, top + 1):
            for _ in rs.perm_sign_chunks(m):
                pass
        if self.workload in ("point_eval", "oracle_certify"):
            for n in (2, 3):
                rho = rs.rho(n).array()
                sp.psi_iter_quadrature(0.8 * rho, 0.5 * rho + 0.2, 1e-10)
        if self.workload == "oracle_certify":
            for n in (1, 2):
                ht.fourier_constant(self.contexts[n])

    def _call_args(self, op: Op) -> tuple:
        if op.fn in TAKES_CONTEXT:  # the op carries the rank in place of the context
            return (self.contexts[op.args[0]],) + tuple(op.args[1:])
        return op.args

    def run(self, op: Op) -> Outcome:
        if op.fn == "cli.main":
            timer = RecordTimer(*((sp, "psi_stable") if op.cls == "sweep_psi"
                                  else (ht, "heat_flat")))
            with timer:
                t0, c0 = time.perf_counter(), time.process_time()
                code, data = run_cli(*op.args)
                dt, dc = time.perf_counter() - t0, time.process_time() - c0
            records = parse_sweep(op, data)
            return Outcome(op, dt, dc, result=(code, records), records=len(records),
                           failed_records=sum(1 for r in records if r["error"]),
                           record_cpu_seconds=record_latencies(timer.times, dc, len(records)))
        fn = _resolve(op.fn)
        args = self._call_args(op)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            res = fn(*args)
        except Exception as exc:  # failures are classified by the caller
            return Outcome(op, time.perf_counter() - t0, time.process_time() - c0,
                           error=f"{type(exc).__name__}: {exc}", exc_type=type(exc))
        return Outcome(op, time.perf_counter() - t0, time.process_time() - c0, result=res)
