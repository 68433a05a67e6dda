"""Batch command-line front end.

Subcommands: eval (spherical kernel), heat (heat kernels and envelopes),
sweep (ratio sweeps to JSON/CSV), verify (named property suites), constants
(rank-level constants).  Exit codes: 0 success, 1 failed verification
properties, 2 usage or input errors, 3 numerical failures.  All output is
machine readable (json, csv, or plain, one value per line); non-dominant
coordinate input is sorted into the chamber and flagged in the output rather
than rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import heat as ht
from . import rootsystem as rs
from . import spherical as sp
from . import verify as vf
from .errors import (
    CalibrationError,
    DegenerateInput,
    DominanceError,
    PreconditionViolated,
    QuadratureNonconvergence,
    RankTooLarge,
    ToleranceUnachievable,
)

_INPUT_ERRORS = (DominanceError, RankTooLarge, PreconditionViolated, DegenerateInput, ValueError)
_NUMERIC_ERRORS = (QuadratureNonconvergence, ToleranceUnachievable, CalibrationError,
                   FloatingPointError, OverflowError)

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_vector(text: str, name: str):
    """Comma-separated floats -> (chamber coords, sorted_flag)."""
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {name}={text!r}: {exc}") from None
    if len(vals) < 2:
        raise ValueError(f"{name} needs at least two coordinates")
    srt = sorted(vals, reverse=True)
    return np.array(srt), vals == srt


def _emit(payload: dict, fmt: str, out_path):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        data = text.encode()
    elif fmt == "plain":
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (list, tuple)):
                v = " ".join(str(t) for t in v)
            lines.append(f"{v}")
        data = ("\n".join(lines) + "\n").encode()
    else:
        raise ValueError(f"format {fmt!r} not supported for this subcommand")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _axis_from_arg(text: str) -> vf.AxisSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be lo:hi:points, got {text!r}")
    return vf.AxisSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def _build_parser(config: dict) -> argparse.ArgumentParser:
    """The parser, with the --config values as subcommand flag defaults; a flag
    the config supplies is no longer required on the command line."""

    def required(dest: str) -> bool:
        return dest not in config

    p = argparse.ArgumentParser(prog="weylheat", description=__doc__.splitlines()[0])
    p.add_argument("--config", default=None, help="JSON file with defaults for the subcommand flags")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the spherical kernel and its envelope")
    pe.add_argument("--n", type=int, required=required("n"))
    pe.add_argument("--lambda", dest="lam", required=required("lam"), help="comma separated coordinates")
    pe.add_argument("--x", required=required("x"), help="comma separated coordinates")
    pe.add_argument("--method", choices=["stable", "alt", "iter", "mc"], default="stable")
    pe.add_argument("--tolerance", type=float, default=1e-12)
    pe.add_argument("--precision-bits", type=int, default=53)
    pe.add_argument("--samples", type=int, default=100000, help="Monte Carlo samples")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--format", choices=["json", "plain"], default="json")
    pe.add_argument("--output", default=None)

    ph = sub.add_parser("heat", help="evaluate heat kernels and their envelopes")
    ph.add_argument("--n", type=int, required=required("n"))
    ph.add_argument("--t", type=float, required=required("t"))
    ph.add_argument("--x", required=required("x"))
    ph.add_argument("--y", required=required("y"))
    ph.add_argument("--kind", choices=["flat", "curved"], default="flat")
    ph.add_argument("--tolerance", type=float, default=1e-12)
    ph.add_argument("--format", choices=["json", "plain"], default="json")
    ph.add_argument("--output", default=None)

    ps = sub.add_parser("sweep", help="ratio sweeps over gap grids")
    ps.add_argument("--kind", choices=["psi", "heat"], default="psi")
    ps.add_argument("--n", type=int, required=required("n"))
    ps.add_argument("--lam-range", default="1e-3:1e3:8", help="lo:hi:points for spectral gaps")
    ps.add_argument("--x-range", default="1e-3:1e3:8")
    ps.add_argument("--t-range", default="1e-2:1e2:6")
    ps.add_argument("--mode", choices=["grid", "log_grid", "random"], default="log_grid")
    ps.add_argument("--samples", type=int, default=0)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--threads", type=int, default=None)
    ps.add_argument("--format", choices=["json", "csv"], default="json")
    ps.add_argument("--output", default=None)

    pv = sub.add_parser("verify", help="run named verification suites")
    pv.add_argument("--n", type=int, required=required("n"))
    pv.add_argument("--suite", default="all",
                    choices=["psi_ratio", "heat_ratio", "props", "cancellation", "all"])
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--threads", type=int, default=None)
    pv.add_argument("--format", choices=["json"], default="json")
    pv.add_argument("--output", default=None)

    pc = sub.add_parser("constants", help="print rank-level constants")
    pc.add_argument("--n", type=int, required=required("n"))
    pc.add_argument("--t-ref", type=float, default=1.0)
    pc.add_argument("--format", choices=["json", "plain"], default="json")
    pc.add_argument("--output", default=None)

    # keys no subcommand flag has stay unused; the parent's own dests are not flag defaults
    flags = {k: v for k, v in config.items() if k not in ("command", "config")}
    for spp in (pe, ph, ps, pv, pc):
        spp.set_defaults(**flags)
    return p


def _default_threads(value):
    if value is not None:
        return value
    env = os.environ.get("WEYLHEAT_THREADS")
    return int(env) if env else 1


def _cmd_eval(args) -> int:
    lam, lam_sorted = _parse_vector(args.lam, "lambda")
    x, x_sorted = _parse_vector(args.x, "x")
    if lam.size != args.n + 1 or x.size != args.n + 1:
        raise ValueError(f"--n {args.n} needs {args.n + 1} coordinates per vector")
    warnings = []
    if not lam_sorted:
        warnings.append("lambda was sorted into the chamber")
    if not x_sorted:
        warnings.append("x was sorted into the chamber")
    if args.method == "stable":
        res = sp.psi_stable(lam, x, args.tolerance)
    elif args.method == "alt":
        res = sp.psi_alt_sum(lam, x, args.precision_bits)
    elif args.method == "iter":
        res = sp.psi_iter_quadrature(lam, x, args.tolerance)
    else:
        res = sp.psi_mc_orbit(lam, x, args.samples, args.seed)
    payload = {
        "lambda": lam.tolist(),
        "x": x.tolist(),
        "log_value": res.log_value,
        "value": res.value if math.isfinite(res.value) else None,
        "method": res.method,
        "abs_log_error": res.abs_log_error,
        "mc_std_error": res.mc_std_error,
        "log_envelope": sp.psi_envelope(lam, x),
        "warnings": warnings,
    }
    _emit(payload, args.format, args.output)
    return EXIT_OK


def _cmd_heat(args) -> int:
    x, x_sorted = _parse_vector(args.x, "x")
    y, y_sorted = _parse_vector(args.y, "y")
    if x.size != args.n + 1 or y.size != args.n + 1:
        raise ValueError(f"--n {args.n} needs {args.n + 1} coordinates per vector")
    warnings = []
    if not x_sorted:
        warnings.append("x was sorted into the chamber")
    if not y_sorted:
        warnings.append("y was sorted into the chamber")
    ctx = ht.make_heat_context(args.n)
    if args.kind == "flat":
        res = ht.heat_flat(ctx, args.t, x, y, args.tolerance)
        env = ht.heat_envelope(args.t, x, y)
    else:
        res = ht.heat_curved(ctx, args.t, x, y, args.tolerance)
        env = ht.heat_curved_envelope(args.t, x, y)
    payload = {
        "kind": args.kind,
        "t": args.t,
        "x": x.tolist(),
        "y": y.tolist(),
        "log_value": res.log_value,
        "value": res.value if math.isfinite(res.value) else None,
        "method": res.method,
        "abs_log_error": res.abs_log_error,
        "log_envelope": env,
        "c_k": ctx.c_k,
        "c_k_provenance": ctx.c_k_provenance,
        "warnings": warnings,
    }
    _emit(payload, args.format, args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    with_t = args.kind == "heat"
    config = vf.SweepConfig(
        rank=args.n,
        lam_axis=_axis_from_arg(args.lam_range),
        x_axis=_axis_from_arg(args.x_range),
        t_axis=_axis_from_arg(args.t_range) if with_t else None,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
    )
    threads = _default_threads(args.threads)
    rep = vf.sweep_psi_ratio(config, threads) if args.kind == "psi" else vf.sweep_heat_ratio(config, threads)
    data = vf.to_json_bytes(rep) if args.format == "json" else vf.to_csv_bytes(rep)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK if not rep.violations else EXIT_PROPERTY_FAIL


def _cmd_verify(args) -> int:
    results, ok = vf.run_suite(args.n, args.suite, seed=args.seed,
                               threads=_default_threads(args.threads))
    payload = {"schema_version": vf.SCHEMA_VERSION, "n": args.n, "suite": args.suite,
               "passed": ok, "results": results}
    data = (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK if ok else EXIT_PROPERTY_FAIL


def _cmd_constants(args) -> int:
    n = args.n
    rs.check_positive(args.t_ref, "t_ref")  # also where no calibration runs (n > 2)
    c_mms = ht.mms_constant(n)  # first: it refuses ranks past binary64
    sysn = rs.root_system(n)
    c_cal = ht.calibrate_constant(n, args.t_ref) if n <= 2 else None
    payload = {
        "n": n,
        "d": n + 1,
        "gamma": sysn.gamma,
        "weyl_order": sysn.weyl_order(),
        "rho": list(sysn.rho.coords),
        "positive_roots": [list(r) for r in sysn.positive_roots],
        "c_k_chamber_mms": c_mms,
        "c_k_calibrated": c_cal,
        "mms_fullspace": ht.mms_constant(n, chamber=False),
        "convention_note": (
            "c_k normalizes the kernel against pi(Y)^2 dY on the closed chamber; "
            "the full-space Gaussian moment is |W| times the chamber value"
        ),
    }
    _emit(payload, args.format, args.output)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # --config supplies defaults; explicit flags win because they are parsed after
    config = {}
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            with open(argv[idx + 1]) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError, IndexError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if not isinstance(config, dict):
            print("error: config must be a JSON object of flag defaults", file=sys.stderr)
            return EXIT_INPUT
    parser = _build_parser(config)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "eval": _cmd_eval,
        "heat": _cmd_heat,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "constants": _cmd_constants,
    }
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
