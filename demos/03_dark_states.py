#!/usr/bin/env python3
"""Dark states of the storage interaction: exact vs approximate forms.

The interaction Hamiltonian g sqrt(N) (a sigma-dagger rho + h.c.) has
null eigenvectors containing no excited-level amplitude.  The exact form
(polariton ladder) nulls the coupling identically at any N; the textbook
product form is only asymptotic, with residual shrinking as N grows.
"""

import math

from coldstore import (
    EitParams,
    Geometry,
    ModeSet,
    apply_hamiltonian,
    dark_state,
    inner_product,
    joint_space,
    mixing_angle,
    multimode_dark_state,
    null_eigenvalue_residual,
    storage_direct,
    vacuum,
    with_field_occupation,
    StorageSpec,
)


def params_at(n_atoms, theta):
    geom = Geometry.lattice(n_atoms, 0.5)
    modes = ModeSet(1.0, 0.8, (0.0,), "raman")
    rabi = math.sqrt(n_atoms) / math.tan(theta)
    return EitParams(geom, modes, 1.0, rabi)


theta = math.pi / 4
print(f"null-eigenvalue residual ||H |D^n>|| at theta = pi/4, n = 2")
print(f"{'N':>5} {'exact form':>14} {'approx form':>14}")
for n_atoms in (4, 8, 16, 24):
    p = params_at(n_atoms, theta)
    exact = null_eigenvalue_residual(p, 2, form="exact")
    approx = null_eigenvalue_residual(p, 2, form="approx")
    print(f"{n_atoms:5d} {exact:14.2e} {approx:14.6f}")
print("(the approximate residual falls off like 1/sqrt(N))")

# endpoints: at theta = 0 the dark state is the bare photon; at pi/2 it is
# the stored atomic state with a (-1)^n phase -- the negative copy
n_atoms, n = 6, 2
p = params_at(n_atoms, theta)
space = joint_space(p, n)
photonic = with_field_occupation(vacuum(space), (n,))
stored = storage_direct(StorageSpec(p.geometry, ((p.modes.k_eff(0.0), n),)),
                        space=space)
at_zero = dark_state(p, n, form="approx", theta=0.0, space=space)
at_half = dark_state(p, n, form="approx", theta=math.pi / 2, space=space)
print(f"\nendpoints for n = {n}, N = {n_atoms}:")
print(f"  <n, C^0 | D(theta=0)>    = {inner_product(photonic, at_zero):+.12f}")
print(f"  <0, C^n | D(theta=pi/2)> = {inner_product(stored, at_half):+.12f}"
      f"   (expect (-1)^n = {(-1.0)**n:+.0f})")

# the mixing angle interpolates: photon weight cos^2, atomic weight sin^2
print("\nphoton content of the one-quantum dark state vs control strength:")
from coldstore import photon_expectation
for rabi in (8.0, 4.0, 2.0, 1.0, 0.5):
    geom = Geometry.lattice(8, 0.5)
    modes = ModeSet(1.0, 0.8, (0.0,), "raman")
    p = EitParams(geom, modes, 1.0, rabi)
    d = dark_state(p, 1)
    th = mixing_angle(1.0, 8, rabi)
    print(f"  Omega = {rabi:4.1f}: theta = {th:.3f}, <n_photon> = "
          f"{photon_expectation(d):.4f} (cos^2 theta = {math.cos(th)**2:.4f})")

# two detuned modes can share one dark state when the free term is off
geom = Geometry.lattice(6, 0.5)
modes = ModeSet(1.0, 0.8, (0.0, 0.3), "raman")
p = EitParams(geom, modes, 1.0, rabi=1.4)
shared = multimode_dark_state(p, {0.0: 1, 0.3: 1})
print(f"\ntwo-mode dark state (one quantum each): residual "
      f"{apply_hamiltonian(shared, p).norm():.2e}")
