#!/usr/bin/env python3
"""Phase sums and mode bookkeeping: where the collective description holds.

Prints the resolvable-mode spacing for a sodium-like cell, then shows how
the collective phase sum S(k) = sum_j e^{i k z_j} behaves on a lattice
(exact geometric closed form) and for a random gas (continuum envelope),
and finally runs the full validity-condition report.
"""

from coldstore import (
    Geometry,
    ModeSet,
    check_mode_conditions,
    continuum_phase_sum,
    mode_spacing_estimate,
    phase_sum,
    phase_sum_crosscheck,
)

# resolvable modes of a centimeter-scale cell are spaced by lambda^2/(2 pi L)
lam, cell = 589.6e-9, 339e-6
print(f"mode spacing at lambda = {lam*1e9:.1f} nm, L = {cell*1e6:.0f} um: "
      f"{mode_spacing_estimate(lam, cell)*1e9:.4f} nm")

n = 64
lattice = Geometry.lattice(n, spacing=0.5)
gas = Geometry.uniform_random(n, length=lattice.length, seed=2)

print(f"\nlattice N = {n}, d = {lattice.spacing}, L = {lattice.length}")
print(f"{'k':>6} {'|S|/N lattice':>14} {'closed form':>12} {'|S|/N gas':>10} "
      f"{'continuum':>10}")
for k in (0.0, 0.05, 0.2, 0.8, 2.5):
    rep = phase_sum_crosscheck(lattice, k)
    s_gas = phase_sum(gas, k)
    print(f"{k:6.2f} {abs(rep.direct)/n:14.6f} {abs(rep.lattice_closed)/n:12.6f} "
          f"{abs(s_gas)/n:10.6f} {abs(continuum_phase_sum(n, k, gas.length))/n:10.6f}")

# two storage modes are effectively orthogonal once |dk| L is large; the
# residual decays like 1/(N sin(dk d / 2)) on a lattice
print("\nsuppression of the cross phase sum:")
for dkl in (5.0, 20.0, 40.0, 120.0, 300.0):
    dk = dkl / lattice.length
    print(f"  |dk| L = {dkl:6.1f}  ->  |S(dk)|/N = "
          f"{abs(phase_sum(lattice, dk))/n:.4f}")

# quantified validity report -- the q = 2.0 sideband is chosen to fail
# the wavelength-resolution check on purpose, to show the flag trip
modes = ModeSet(k_signal=0.2, k_control=0.19, detunings=(0.0, 2.0),
                transition="raman")
report = check_mode_conditions(lattice, modes, n_max=3, min_ratio=10.0)
print(f"\ncondition report (all_ok = {report.all_ok}):")
print(f"  N / n_max             = {report.excitation_ratio:.1f}")
print(f"  L / d                 = {report.length_over_spacing:.1f}")
for rec in report.mode_records:
    print(f"  lambda/d at q = {rec.q:4.1f}  = {rec.wavelength_over_spacing:.1f}"
          f"  (ok = {rec.ok})")
for rec in report.pair_records:
    print(f"  |dk| L for ({rec.q_low:.1f}, {rec.q_high:.1f}) = "
          f"{rec.dk_times_length:.1f}, achieved residual {rec.residual:.4f}"
          f"  (ok = {rec.ok})")
