#!/usr/bin/env python3
"""Precision escalation under catastrophic cancellation, and ratio sweeps.

The alternating sum loses one leading bit per halving of the gap products;
the stable evaluator watches the loss estimate and escalates from binary64
to the determinant in arbitrary precision.  The sweep layer then
certifies the envelope bounds over a grid and emits a deterministic report.
"""

import math

import numpy as np

from weylheat import AxisSpec, SweepConfig, psi_alt_sum, psi_stable, sweep_psi_ratio
from weylheat.spherical import planned_precision
from weylheat.verify import to_json_bytes

print("gap product   method              bits   |log err| vs 512-bit reference")
for product in (1.0, 1e-3, 1e-6, 1e-9, 1e-12):
    g = math.sqrt(product)
    lam = np.array([2.0 + g, 2.0, 0.5])
    x = np.array([1.0 + g, 1.0, 0.2])
    res = psi_stable(lam, x, 1e-10)
    ref = psi_alt_sum(lam, x, 512)
    bits = planned_precision(lam, x, 1e-10)
    err = abs(res.log_value - ref.log_value)
    print(f"{product:11.0e}   {res.method:18s}  {bits:4d}   {err:.2e}")
print()

cfg = SweepConfig(
    rank=1,
    lam_axis=AxisSpec(1e-3, 1e3, 25),
    x_axis=AxisSpec(1e-3, 1e3, 25),
    mode="log_grid",
)
rep = sweep_psi_ratio(cfg)
agg = rep.aggregates["overall"]
print(f"rank-1 sweep over {agg['count']} grid points:")
print(f"  ratio psi/envelope in [{agg['min']:.9f}, {agg['max']:.6f}]")
print(f"  geometric mean {agg['geomean']:.6f}; sandwich violations: {len(rep.violations)}")
print(f"  canonical report: {len(to_json_bytes(rep))} bytes, hash {rep.config_hash}")
print("  (re-running the same config reproduces those bytes exactly)")
