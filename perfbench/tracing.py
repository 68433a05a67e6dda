"""Spans around calls into each layer, recorded from outside the library.

``Tracer.install`` replaces public functions of the weylheat modules by
wrappers; callers inside the library look these names up on the module, so
nested calls are seen too.  Spans are aggregated in memory (count and total
seconds per name) and read out once at the end of the run.

psi_stable spans are also split by rung.  The rung is inferred from outside:
whether an input is degenerate (a gap at or below psi_stable's
DEFAULT_DEGENERATE_TOL), the method the result carries, and the precisions
of the psi_alt_sum calls psi_stable makes directly (53 bits: the binary64
rung; more: mpmath; the 80-bit rung makes no such call).  Rung counts are
taken only while ``counting`` is set, which the runner sets for the fixed
first cycle of each stream, so they repeat exactly for a seed.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from weylheat import cli
from weylheat import factorization as fz
from weylheat import heat as ht
from weylheat import rootsystem as rs
from weylheat import spherical as sp
from weylheat import verify as vf

TRACED = {
    "rootsystem": (rs, ("as_coords", "min_pairing_value")),
    "spherical": (sp, ("psi_stable", "psi_alt_sum", "cancellation_bits", "psi_envelope",
                       "regime_classify", "phi_curved", "psi_iter_quadrature", "psi_mc_orbit")),
    "heat": (ht, ("heat_flat", "heat_curved", "heat_envelope", "images_oracle", "mms_constant",
                  "calibrate_constant", "inverse_fourier_oracle", "semigroup_check",
                  "pde_residual")),
    "factorization": (fz, ("master_integral", "factor_integral", "recursive_estimate")),
    "verify": (vf, ("sweep_psi_ratio", "sweep_heat_ratio", "prop_checks", "cancellation_stress",
                    "to_json_bytes", "to_csv_bytes")),
    "cli": (cli, ("main",)),
}

RUNGS = ("b53", "ld80", "mp", "confluent", "closed")
PSI = "spherical.psi_stable"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _degenerate(v) -> bool:
    v = np.asarray(v, dtype=float)
    return bool(np.min(v[:-1] - v[1:]) <= sp.DEFAULT_DEGENERATE_TOL)


class Tracer:
    def __init__(self):
        self.stack: list[str] = []  # names of the open spans
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> count, total seconds
        self.counting = False
        self.rung_counts = Counter()
        self.planned53 = 0
        self.b53_miss = 0
        self.mc_samples = 0
        self._alt_bits: list[list[int]] = []  # per open psi_stable: its psi_alt_sum precisions
        self._paused = False
        self._saved = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        s = self.spans[name]
        s[0] += 1
        s[1] += seconds

    def _psi_stable_extra(self, args, kwargs, res, exc, dt, nested, alt_bits) -> None:
        if nested:
            return  # a psi_stable inside psi_stable is part of its confluent path
        lam = np.asarray(_arg(args, kwargs, 0, "lam"), dtype=float)
        x = np.asarray(_arg(args, kwargs, 1, "x"), dtype=float)
        if _degenerate(lam) or _degenerate(x):
            rung = "closed" if res is not None and res.method == sp.METHOD_CLOSED else "confluent"
        elif any(b > 53 for b in alt_bits):
            rung = "mp"
        elif res is not None and res.method == sp.METHOD_ALT:
            rung = "b53"
        elif res is not None and res.method == sp.METHOD_ALT_EXT:
            rung = "ld80"
        else:
            return  # refused before any rung ran
        self.add(f"spherical.psi_stable.{rung}", dt)
        self.add(f"spherical.psi_stable.rank{lam.size - 1}", dt)
        if self.counting:
            self.rung_counts[rung] += 1
            if 53 in alt_bits:
                self.planned53 += 1
                self.b53_miss += rung != "b53"

    def _extra(self, key, args, kwargs, res, exc, dt, nested, alt_bits) -> None:
        if key == PSI:
            self._psi_stable_extra(args, kwargs, res, exc, dt, nested, alt_bits)
        elif key == "spherical.psi_alt_sum":
            if self.stack and self.stack[-1] == PSI:  # called by psi_stable directly
                self._alt_bits[-1].append(int(_arg(args, kwargs, 2, "precision_bits", 53)))
        elif key == "spherical.psi_iter_quadrature":
            lam = _arg(args, kwargs, 0, "lam")
            self.add(f"{key}.rank{len(lam) - 1}", dt)
        elif key == "spherical.psi_mc_orbit" and exc is None:
            self.mc_samples += int(_arg(args, kwargs, 2, "samples"))
        elif key in ("heat.mms_constant", "heat.calibrate_constant"):
            self.add(f"{key}.n{_arg(args, kwargs, 0, 'n')}", dt)
        elif key == "cli.main":
            argv = _arg(args, kwargs, 0, "argv") or []
            if argv and argv[0] == "sweep":
                self.add("cli.main.sweep", dt)

    def _wrap(self, key, fn):
        def span(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            nested = key in self.stack
            self.stack.append(key)
            if key == PSI:
                self._alt_bits.append([])
            res = exc = None
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                alt_bits = self._alt_bits.pop() if key == PSI else None
                self.add(key, dt)
                self._paused = True
                try:
                    self._extra(key, args, kwargs, res, exc, dt, nested, alt_bits)
                finally:
                    self._paused = False

        span.__wrapped__ = fn
        return span

    def _wrap_chunks(self, fn):
        """perm_sign_chunks is a generator: time only the work inside it."""
        tracer = self

        def chunks(m, *args, **kwargs):
            gen = fn(m, *args, **kwargs)
            spent = 0.0
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    spent += time.perf_counter() - t0
                    if not tracer._paused:
                        tracer.add(f"rootsystem.perm_sign_chunks.m{m}", spent)
                    return
                spent += time.perf_counter() - t0
                yield item

        chunks.__wrapped__ = fn
        return chunks

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for layer, (mod, names) in TRACED.items():
            for name in names:
                fn = getattr(mod, name)
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{layer}.{name}", fn))
        self._saved.append((rs, "perm_sign_chunks", rs.perm_sign_chunks))
        rs.perm_sign_chunks = self._wrap_chunks(rs.perm_sign_chunks)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    # -- read-out ------------------------------------------------------------

    def mean(self, name: str, scale: float) -> float:
        count, total = self.spans.get(name, (0, 0.0))
        return total / count * scale if count else 0.0

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]
