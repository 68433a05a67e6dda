"""Reference check of benchmark outputs, run outside the timed section.

References:
* strictly dominant psi ops (psi_stable, psi_iter_quadrature, phi_curved's
  psi factor): psi_alt_sum at 512 bits;
* heat_flat: images_oracle, the signed-image route that does not go through psi;
* constant-side confluent ops: the exact e^{c sum X}, summed in mpmath;
* the Gaussian constants: Mehta's closed form (2 pi)^{m/2} prod_{j<=m} j! / m!.

An op is wrong when it returned a value that misses its reference by more than
its own abs_log_error (plus the reference's), or when it declared an
abs_log_error above its target plus the ulp floor psi_stable allows.  Ops of
the other routes have no reference and are counted as such; the oracle runs
that carry their own pass/fail gate are held to it in ``self_check``.

A wrong op counts as a known defect only when it shows that defect's
signature (``closed_form_known``, ``heat_known``); any other wrong op makes
the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from weylheat import heat as ht
from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat.errors import WeylHeatError

from workloads import CLOSED_FORM, HEAT_CONTRACT, Outcome

EPS = float(np.finfo(float).eps)
REF_BITS = 512
# heat_flat_cancellation: heat_flat sums log terms of size g = (|X|^2+|Y|^2)/4t
# that cancel, plus the result; its bound adds 8 eps (1 + |log p|) to the
# error of psi (which may itself exceed the target by psi's ulp floor) and
# does not check the target.  A wrong heat op counts as this defect when its
# excess is within this many ulps of (1 + |log p| + g).
HEAT_ULPS = 16.0


@dataclass
class CheckTally:
    checked: int = 0
    wrong: int = 0
    no_reference: int = 0
    heat_flat_wrong: int = 0
    known_wrong: int = 0
    csv_unreadable: int = 0  # CSV records with np.float64(...) fields (CSV_REPR)
    unexpected: list = field(default_factory=list)  # wrong ops outside the known defects

    def add(self, other: "CheckTally") -> None:
        self.checked += other.checked
        self.wrong += other.wrong
        self.no_reference += other.no_reference
        self.heat_flat_wrong += other.heat_flat_wrong
        self.known_wrong += other.known_wrong
        self.csv_unreadable += other.csv_unreadable
        self.unexpected.extend(other.unexpected)


def mehta_constant(n: int) -> float:
    """Chamber Gaussian moment int e^{-|y|^2/2} pi(y)^2 dy over m = n+1 coordinates."""
    m = n + 1
    with mp.workprec(REF_BITS):
        val = (2 * mp.pi) ** (mp.mpf(m) / 2) * mp.fprod(mp.factorial(j) for j in range(1, m + 1))
        return float(val / mp.factorial(m))


def _strict(v) -> bool:
    v = np.asarray(v, dtype=float)
    return bool(np.min(v[:-1] - v[1:]) > sp.DEFAULT_DEGENERATE_TOL)


def _const_side(lam, x):
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    with mp.workprec(REF_BITS):
        if np.all(lam == lam[0]):
            return float(mp.mpf(float(lam[0])) * mp.fsum(mp.mpf(float(v)) for v in x)), 0.0
        if np.all(x == x[0]):
            return float(mp.mpf(float(x[0])) * mp.fsum(mp.mpf(float(v)) for v in lam)), 0.0
    return None


def psi_reference(lam, x):
    """(log psi, error) of a reference route, or None when none applies."""
    const = _const_side(lam, x)
    if const is not None:
        return const
    if not (_strict(lam) and _strict(x)):
        return None
    ref = sp.psi_alt_sum(lam, x, REF_BITS)
    return ref.log_value, ref.abs_log_error


def _phi_prefactor(x) -> float:
    ax = rs.root_values(x)
    with mp.workprec(REF_BITS):
        return float(mp.fsum(mp.log(mp.mpf(float(a))) - mp.log(mp.sinh(mp.mpf(float(a))))
                             for a in ax))


def _wrong(value: float, err: float, target, ref):
    """(kind, excess): kind is "miss", "overclaim" (error bound above the
    target) or None; excess is by how much the op is out."""
    ref_value, ref_err = ref
    if not math.isfinite(value):
        return "miss", math.inf
    miss = abs(value - ref_value) - (err + ref_err)
    if miss > 0.0:
        return "miss", miss
    if target is not None:
        over = err - (target + 2.0 * EPS * (1.0 + abs(value)))
        if over > 0.0:
            return "overclaim", over
    return None, 0.0


def closed_form_known(lam, x):
    """closed_form_bound: a miss of the constant-side closed form within the
    rounding of its coordinate sum, (n + 1) eps |c| sum |X|."""
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    c, other = (lam[0], x) if np.all(lam == lam[0]) else (x[0], lam)
    slack = other.size * EPS * abs(c) * float(np.abs(other).sum())
    return lambda kind, excess, value: kind == "miss" and excess <= slack


def heat_known(t: float, x, y, sentinel: bool = False):
    """heat_flat_cancellation (see HEAT_ULPS), or any wrong of the two
    heat_flat_error_contract sentinel inputs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = (float(x @ x) + float(y @ y)) / (4.0 * t)
    return lambda kind, excess, value: sentinel or (
        excess <= HEAT_ULPS * EPS * (1.0 + abs(value) + g))


def _never(kind, excess, value) -> bool:
    return False


def _tally_one(tally: CheckTally, label: str, value, err, target, ref, known) -> None:
    """known(kind, excess, value): whether a wrong of this op is a listed defect."""
    if ref is None:
        tally.no_reference += 1
        return
    tally.checked += 1
    kind, excess = _wrong(value, err, target, ref)
    if kind is not None:
        tally.wrong += 1
        if known(kind, excess, value):
            tally.known_wrong += 1
        else:
            tally.unexpected.append(f"{label}: {kind}, value {value!r} err {err!r} ref {ref!r}")


def check_point(outcome: Outcome, contexts) -> CheckTally:
    """Reference check of a single-call op (point_eval or oracle_certify)."""
    tally = CheckTally()
    op = outcome.op
    if outcome.error is not None:
        return tally  # failures are counted separately, not as wrong
    res = outcome.result
    label = f"{op.cls} rank {op.rank} {op.fn}"
    if op.fn == "sp.psi_stable":
        lam, x = op.args[0], op.args[1]
        known = closed_form_known(lam, x) if op.known_defect == CLOSED_FORM else _never
        _tally_one(tally, label, res.log_value, res.abs_log_error, op.target,
                   psi_reference(lam, x), known)
    elif op.fn == "sp.psi_iter_quadrature":
        lam, x = op.args[0], op.args[1]
        ref = psi_reference(lam, x)
        _tally_one(tally, label, res.log_value, res.abs_log_error, None, ref, _never)
    elif op.fn == "sp.phi_curved":
        lam, x = op.args[0], op.args[1]
        ref = psi_reference(lam, x)
        if ref is not None:
            ref = (ref[0] + _phi_prefactor(x), ref[1])
        _tally_one(tally, label, res.log_value, res.abs_log_error, op.target, ref, _never)
    elif op.fn == "ht.heat_flat":
        n, t, x, y = op.args[:4]
        try:
            img = ht.images_oracle(contexts[n], t, x, y)
            ref = (img.log_value, img.abs_log_error)
        except WeylHeatError:
            ref = None  # the image sum loses all significance at large t
        known = heat_known(t, x, y, sentinel=op.known_defect == HEAT_CONTRACT)
        before = tally.wrong
        _tally_one(tally, label, res.log_value, res.abs_log_error, op.target, ref, known)
        tally.heat_flat_wrong += tally.wrong - before
    elif op.fn in ("ht.mms_constant", "ht.calibrate_constant"):
        ref = mehta_constant(op.rank)
        tol = op.target if op.target is not None else 1e-12
        _tally_one(tally, label, math.log(res), tol, None, (math.log(ref), 0.0), _never)
    else:
        tally.no_reference += 1
    return tally


def self_check(outcome: Outcome) -> list:
    """Failures of the pass/fail gates the oracle routes carry themselves."""
    op = outcome.op
    if outcome.error is not None:
        return []
    res = outcome.result
    bad = []
    if op.fn == "vf.prop_checks" and not res.all_passed:
        bad.append(f"prop_checks n={op.rank}: " + ", ".join(
            p["name"] for p in res.properties if not p["passed"]))
    elif op.fn == "vf.cancellation_stress" and res.overall_worst_rel_err > 1e-9:
        bad.append(f"cancellation_stress n={op.rank}: worst {res.overall_worst_rel_err:.3g}")
    elif op.fn == "ht.semigroup_check" and not res <= 1e-6:
        bad.append(f"semigroup_check n={op.rank}: defect {res!r}")
    elif op.fn in ("ht.pde_residual", "fz.master_integral", "fz.factor_integral",
                   "fz.recursive_estimate") and not math.isfinite(res):
        bad.append(f"{op.fn} n={op.rank}: {res!r}")
    return bad


def check_sweep(outcome: Outcome, per_call: int = 96) -> CheckTally:
    """Reference check of every k-th record of a sweep, about per_call records."""
    tally = CheckTally()
    op = outcome.op
    _code, records = outcome.result
    stride = max(1, math.ceil(len(records) / per_call))
    kind = "psi" if op.cls == "sweep_psi" else "heat"
    ctx = None
    if kind == "heat":
        n = op.rank
        ctx = ht.HeatContext(n=n, d=n + 1, gamma=rs.gamma(n), c_k=ht.mms_constant(n),
                             c_k_provenance=ht.PROV_MMS)
    for rec in records:
        bad = rec.get("unreadable")
        if bad:
            tally.csv_unreadable += 1
            if bad["garbled"]:
                tally.unexpected.append(f"{op.cls} n={op.rank} record {rec['index']}: "
                                        "CSV field that is not a number")
    for rec in records[::stride]:
        if rec["error"]:
            continue
        label = f"{op.cls} n={op.rank} record {rec['index']}"
        if kind == "psi":
            ref = psi_reference(rec["lam"], rec["x"])
            _tally_one(tally, label, rec["log_value"], rec["abs_log_error"], op.target, ref,
                       _never)
        else:
            t, x, y = rec["t"], rec["x"], rec["lam"]
            try:
                img = ht.images_oracle(ctx, t, x, y)
                ref = (img.log_value, img.abs_log_error)
            except WeylHeatError:
                ref = None
            _tally_one(tally, label, rec["log_value"], rec["abs_log_error"], op.target, ref,
                       heat_known(t, x, y))
    return tally
