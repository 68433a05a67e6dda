"""weylheat benchmark.

    python3 perfbench/run.py --workload {sweep_grid,point_eval,oracle_certify}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  One
client in a closed loop calls the library and waits for each result.  The
timed section runs a fixed number of whole cycles of the workload's op stream
(see workloads.py): --seconds over the workload's nominal cycle time, so about
--seconds of calls on the machine the nominal times were taken on.

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter
(median of SETUP_REPEATS), completed ops per second of wall time, per-op
latency in CPU time (median and the tail: the highest percentile with ten
samples beyond it) and peak resident memory.  --trace 1 installs span wrappers (tracing.py), runs the
workload's stream and one cycle of each other stream so that every layer is
measured, and prints the per-layer metrics.

Fail and wrong counts are taken over the first cycle of each stream, a fixed
set of ops for a seed, and the reference check (checks.py) runs on it after
the timed section.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent


def _import_library(root: Path) -> None:
    src = root / "src"
    if not (src / "weylheat" / "__init__.py").is_file():
        sys.exit(f"error: no weylheat sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import weylheat

    if Path(weylheat.__file__).resolve().parent != (src / "weylheat").resolve():
        sys.exit(f"error: weylheat imported from {weylheat.__file__}, not from {src}")


def measure_setup(workload: str, root: Path) -> list[float]:
    """Seconds a fresh interpreter needs to import and warm up, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=root, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def p50(samples: list) -> float:
    """Median by nearest rank: the ceil(n/2)-th smallest sample.

    Always a sample of the run, as the tail is; the midpoint average of an
    even count would fall between two routes of different cost.
    """
    return sorted(samples)[(len(samples) + 1) // 2 - 1]


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0 * (n - 1) / n
    return s[n - 11], 100.0 * (n - 10) / n


class StreamResult:
    def __init__(self):
        self.busy = 0.0
        self.ops = 0
        self.cycles = 0
        self.failed_unexpected = 0
        self.failed_known = 0
        self.samples: list[float] = []  # per-op latency, CPU seconds
        self.window: list = []  # outcomes of the first cycle
        self.errors: list[str] = []
        self.cycle_rates: list[float] = []

    @property
    def ops_per_s(self) -> float:
        """Median over cycles of ops per second in calls; steadier than the total."""
        return statistics.median(self.cycle_rates)


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles that take about `seconds` of calls at the nominal cycle time.

    The count, not a clock, ends the timed section: a run does the same work
    however fast the machine is at the moment, so order statistics such as
    the tail compare like with like across runs.
    """
    from workloads import NOMINAL_CYCLE_S

    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def run_stream(runner, workload: str, seed: int, cycles: int, tracer=None) -> StreamResult:
    """Run cycles 0 .. cycles-1 of the workload's stream, timing each call."""
    from workloads import cycle_ops

    out = StreamResult()
    for k in range(cycles):
        ops = cycle_ops(workload, seed, k)
        if tracer is not None:
            tracer.counting = k == 0
        cycle_busy = 0.0
        cycle_ops_done = 0
        for op in ops:
            o = runner.run(op)
            cycle_busy += o.seconds
            cycle_ops_done += o.records
            out.samples.extend(o.record_cpu_seconds if o.record_cpu_seconds is not None
                               else [o.cpu_seconds])
            if o.error is not None:
                if o.known_failure:
                    out.failed_known += 1
                else:
                    out.failed_unexpected += 1
                    out.errors.append(f"{op.cls} rank {op.rank} {op.fn}: {o.error}")
            elif o.failed_records:
                out.failed_unexpected += o.failed_records
                out.errors.append(f"{op.cls} rank {op.rank}: {o.failed_records} records with error")
            if k == 0:
                out.window.append(o)
        out.busy += cycle_busy
        out.ops += cycle_ops_done
        out.cycle_rates.append(cycle_ops_done / cycle_busy)
        if tracer is not None:
            tracer.counting = False
    out.cycles = cycles
    return out


def check_window(window, contexts):
    """Reference check and self checks of a stream's first cycle."""
    import checks

    tally = checks.CheckTally()
    problems = []
    ops = fails = 0
    for o in window:
        ops += o.records
        if o.op.fn == "cli.main":
            code, records = o.result
            fails += o.failed_records
            if code != 0 and not o.failed_records:
                problems.append(f"sweep {o.op.args[0]} exited {code} with no failed record")
            tally.add(checks.check_sweep(o))
        else:
            fails += o.error is not None
            tally.add(checks.check_point(o, contexts))
            problems.extend(checks.self_check(o))
    problems.extend(tally.unexpected)
    return tally, problems, ops, fails


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, root: Path) -> tuple[bool, int, int, dict]:
    from workloads import CSV_REPR, Runner

    setup = measure_setup(args.workload, root)
    runner = Runner(args.workload)
    runner.warm()
    res = run_stream(runner, args.workload, args.seed, cycles_for(args.workload, args.seconds))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally, problems, window_ops, window_fails = check_window(res.window, runner.contexts)

    tail_s, tail_pct = tail(res.samples)
    median = p50(res.samples)
    n = len(res.samples)
    print(f"workload {args.workload} seed {args.seed}: {res.ops} ops in {res.cycles} cycles, "
          f"{res.busy:.3f} s in calls")
    print(f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)}: "
          + ", ".join(f"{t:.4f}" for t in setup) + ")")
    print(f"ops_per_s {res.ops_per_s:.2f} 1/s (median of {res.cycles} cycles)")
    print(f"latency_p50_ms {median * 1e3:.4f} ms (n={n})")
    print(f"latency_tail_ms {tail_s * 1e3:.4f} ms (p{tail_pct:.3f}, 10 of n={n} beyond)")
    print(f"peak_rss_mb {peak_mb:.1f} MB")
    print(f"fail_ratio {window_fails / window_ops:.6f} ({window_fails} of {window_ops} ops in "
          f"the first cycle; run: {res.failed_known} known-defect, "
          f"{res.failed_unexpected} unexpected of {res.ops})")
    print(f"wrong_ratio {tally.wrong / max(tally.checked, 1):.6f} ({tally.wrong} of "
          f"{tally.checked} checked, {tally.known_wrong} known-defect; "
          f"{tally.no_reference} without reference)")
    if tally.csv_unreadable:
        print(f"csv_unreadable {tally.csv_unreadable} records (known defect {CSV_REPR})")
    for p in res.errors[:20] + problems[:20]:
        print(f"problem: {p}")

    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(res.ops_per_s, "1/s"),
        "latency_p50_ms": _metric(median * 1e3, "ms"),
        "latency_tail_ms": _metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    correct = not problems and res.failed_unexpected == 0
    return correct, res.ops, res.failed_unexpected, metrics


def sweep_self_ratio(window) -> float:
    """Share of sweep time not covered by the per-sample public calls.

    Each sweep of the first cycle runs again through the verify layer, timed,
    and its samples are replayed through psi_stable, psi_envelope,
    regime_classify and min_pairing_value (heat: heat_flat, heat_envelope,
    regime_classify) on the same inputs.
    """
    import numpy as np

    from weylheat import heat as ht, rootsystem as rs, spherical as sp, verify as vf
    from workloads import sweep_config

    sweep_s = replay_s = 0.0
    for o in window:
        config = sweep_config(o.op)
        with_t = config.t_axis is not None
        t0 = time.perf_counter()
        rep = vf.sweep_heat_ratio(config) if with_t else vf.sweep_psi_ratio(config)
        sweep_s += time.perf_counter() - t0
        inputs = [(np.array(r.lam), np.array(r.x), r.t) for r in rep.records]
        if with_t:
            n = config.rank
            ctx = ht.HeatContext(n=n, d=n + 1, gamma=rs.gamma(n), c_k=ht.mms_constant(n),
                                 c_k_provenance=ht.PROV_MMS)
            t0 = time.perf_counter()
            for y, x, t in inputs:
                ht.heat_flat(ctx, t, x, y, config.target_log_err)
                ht.heat_envelope(t, x, y)
                sp.regime_classify(x, y / (2.0 * t), config.delta)
        else:
            t0 = time.perf_counter()
            for lam, x, _t in inputs:
                sp.psi_stable(lam, x, config.target_log_err)
                sp.psi_envelope(lam, x)
                sp.regime_classify(lam, x, config.delta)
                rs.min_pairing_value(lam, x)
        replay_s += time.perf_counter() - t0
    return 1.0 - replay_s / sweep_s


PER_LAYER_US = ("rootsystem.as_coords", "rootsystem.min_pairing_value",
                "spherical.psi_stable.b53", "spherical.psi_stable.ld80",
                "spherical.psi_stable.closed", "spherical.cancellation_bits",
                "spherical.psi_envelope",
                "spherical.regime_classify", "spherical.phi_curved", "heat.heat_flat",
                "heat.heat_curved", "heat.heat_envelope", "heat.images_oracle")
PER_LAYER_MS = (("rootsystem.perm_sign_chunks.m8", "spherical.psi_stable.mp",
                 "spherical.psi_stable.confluent")
                + tuple(f"spherical.psi_stable.rank{n}" for n in range(1, 8))
                + ("spherical.psi_iter_quadrature.rank2", "spherical.psi_iter_quadrature.rank3")
                + tuple(f"heat.mms_constant.n{n}" for n in (1, 2, 3))
                + tuple(f"heat.calibrate_constant.n{n}" for n in (1, 2))
                + ("heat.inverse_fourier_oracle", "heat.semigroup_check", "heat.pde_residual",
                   "factorization.master_integral", "factorization.factor_integral",
                   "factorization.recursive_estimate", "verify.to_json_bytes",
                   "verify.to_csv_bytes"))
PER_LAYER_S = ("verify.sweep_psi_ratio", "verify.sweep_heat_ratio", "verify.prop_checks",
               "verify.cancellation_stress", "cli.main.sweep")
PER_LAYER_OTHER = (
    ("spherical.psi_stable.b53_miss_ratio", "ratio"), ("spherical.psi_mc_orbit.us_per_sample", "us"),
    ("heat.heat_flat.wrong_count", "count"), ("verify.to_csv_bytes.unreadable_count", "count"),
    ("verify.sweep.self_ratio", "ratio"),
    ("cli.main.self_ratio", "ratio"), ("workload.traced_ops_per_s", "1/s"),
    ("workload.fail_ratio", "ratio"), ("workload.wrong_ratio", "ratio"),
    ("workload.checked", "count"), ("workload.no_reference", "count"))
HIGHER_IS_BETTER = {"spherical.psi_stable.count.b53", "spherical.psi_stable.count.closed",
                    "workload.traced_ops_per_s", "workload.checked"}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    from tracing import RUNGS

    specs = ([(f"{n}.us", "us") for n in PER_LAYER_US] + [(f"{n}.ms", "ms") for n in PER_LAYER_MS]
             + [(f"{n}.s", "s") for n in PER_LAYER_S]
             + [(f"spherical.psi_stable.count.{r}", "count") for r in RUNGS]
             + list(PER_LAYER_OTHER))
    return [(n, u, "higher" if n in HIGHER_IS_BETTER else "lower") for n, u in specs]


def run_traced(args, root: Path) -> tuple[bool, int, int, dict]:
    from tracing import RUNGS, Tracer
    from workloads import WORKLOADS, Runner

    streams = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    runners = {w: Runner(w) for w in streams}
    for r in runners.values():
        r.warm()
    tracer = Tracer()
    tracer.install()
    try:
        results = {}
        for w in streams:
            cycles = cycles_for(w, args.seconds) if w == args.workload else 1
            results[w] = run_stream(runners[w], w, args.seed, cycles, tracer)
    finally:
        tracer.uninstall()
    own = results[args.workload]
    self_ratio = sweep_self_ratio(results["sweep_grid"].window)

    heat_wrong = csv_unreadable = 0
    correct = True
    for w in streams:
        tally, problems, window_ops, window_fails = check_window(results[w].window,
                                                                runners[w].contexts)
        heat_wrong += tally.heat_flat_wrong
        csv_unreadable += tally.csv_unreadable
        correct = correct and not problems and results[w].failed_unexpected == 0
        for p in results[w].errors[:20] + problems[:20]:
            print(f"problem ({w}): {p}")
        if w == args.workload:
            own_tally, own_ops, own_fails = tally, window_ops, window_fails

    v = {}
    for name in PER_LAYER_US:
        v[f"{name}.us"] = tracer.mean(name, 1e6)
    for name in PER_LAYER_MS:
        v[f"{name}.ms"] = tracer.mean(name, 1e3)
    for name in PER_LAYER_S:
        v[f"{name}.s"] = tracer.mean(name, 1.0)
    for rung in RUNGS:
        v[f"spherical.psi_stable.count.{rung}"] = tracer.rung_counts[rung]
    v["spherical.psi_stable.b53_miss_ratio"] = tracer.b53_miss / max(tracer.planned53, 1)
    v["spherical.psi_mc_orbit.us_per_sample"] = (
        tracer.total("spherical.psi_mc_orbit") / max(tracer.mc_samples, 1) * 1e6)
    v["heat.heat_flat.wrong_count"] = heat_wrong
    v["verify.to_csv_bytes.unreadable_count"] = csv_unreadable
    v["verify.sweep.self_ratio"] = self_ratio
    cli_s = tracer.total("cli.main.sweep")
    inner = sum(tracer.total(n) for n in ("verify.sweep_psi_ratio", "verify.sweep_heat_ratio",
                                          "verify.to_json_bytes", "verify.to_csv_bytes"))
    v["cli.main.self_ratio"] = (cli_s - inner) / cli_s if cli_s else 0.0
    v["workload.traced_ops_per_s"] = own.ops_per_s
    v["workload.fail_ratio"] = own_fails / own_ops
    v["workload.wrong_ratio"] = own_tally.wrong / max(own_tally.checked, 1)
    v["workload.checked"] = own_tally.checked
    v["workload.no_reference"] = own_tally.no_reference
    m = {name: _metric(v[name], unit) for name, unit, _better in per_layer_specs()}

    print(f"workload {args.workload} seed {args.seed} (traced): {own.ops} ops in {own.cycles} "
          f"cycles, {own.busy:.3f} s in calls; other streams ran their first cycle")
    for k, v in m.items():
        print(f"{k} {v['value']!r} {v['unit']}")
    attempted = sum(r.ops for r in results.values())
    failed = sum(r.failed_unexpected for r in results.values())
    return correct, attempted, failed, m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep_grid", "point_eval", "oracle_certify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    root = Path.cwd()
    _import_library(root)
    run = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = run(args, root)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
