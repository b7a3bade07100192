#!/usr/bin/env python3
"""Storing a photon by ramping down the control field.

Integrates the full sector-restricted Schrodinger equation while the
mixing angle sweeps 0 -> pi/2, writes the trajectory to CSV, and shows
the adiabaticity contrast between a slow and a fast ramp.

Usage: python3 04_adiabatic_sweep.py [duration_in_coupling_units]
"""

import math
import sys

from coldstore import (
    EitParams,
    Geometry,
    ModeSet,
    RampSchedule,
    adiabatic_sweep,
    dark_state,
    fidelity,
    joint_space,
    vacuum,
    with_field_occupation,
)

duration_coupling = float(sys.argv[1]) if len(sys.argv) > 1 else 80.0

geom = Geometry.lattice(8, 0.5)
modes = ModeSet(1.0, 0.8, (0.0,), "raman")
params = EitParams(geom, modes, g=1.0, rabi=0.0)
space = joint_space(params, 1)
initial = with_field_occupation(vacuum(space), (1,))
cc = params.collective_coupling
target = dark_state(params, 1, form="exact", space=space, theta=math.pi / 2)


def sweep(tc):
    ramp = RampSchedule(0.0, math.pi / 2, tc / cc, shape="smooth-cosine")
    return adiabatic_sweep(initial, params, ramp, rabi_max=50.0 * cc)


print(f"N = 8, one signal photon, g sqrt(N) = {cc:.3f}")
print(f"slow ramp: T * g sqrt(N) = {duration_coupling:g}")
traj = sweep(duration_coupling)
print(f"  steps = {traj.n_steps}, dt = {traj.dt:.2e}")
print(f"  storage fidelity   = {fidelity(traj.final_state, target):.6f}")
print(f"  norm drift         = {traj.norm_drift:.2e}")
print(f"  photon expectation = {traj.photon_expectation[0]:.4f} -> "
      f"{traj.photon_expectation[-1]:.4f}")
print(f"  c-level population = {traj.c_population[0]:.4f} -> "
      f"{traj.c_population[-1]:.4f}")

out = "sweep_trajectory.csv"
traj.to_csv(out)
print(f"  trajectory written to {out} ({len(traj.times)} samples)")

fast_tc = 0.1
fast = sweep(fast_tc)
print(f"\nfast ramp: T * g sqrt(N) = {fast_tc:g}")
print(f"  storage fidelity   = {fidelity(fast.final_state, target):.2e}")
print(f"  photon expectation = {fast.photon_expectation[-1]:.4f} "
      f"(the photon never leaves the field)")
