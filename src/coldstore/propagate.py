"""Sector-restricted dense propagation for time evolution.

The interaction Hamiltonians used here conserve the total quantum number
(photons + storage excitations + excited-level atoms), so time evolution
never leaves the sector(s) the initial state starts in.  These helpers
enumerate exactly those sectors, cache the Hamiltonian restricted to them
as a small dense matrix (built column by column from the same on-the-fly
operator expansion used everywhere else), and integrate with a fixed-step
4th-order Runge-Kutta scheme.  No matrix over the full Hilbert space is
ever formed; sector dimensions stay in the hundreds for every workload in
this package.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import IntegrationError
from .states import AtomConfig, JointLabel, SparseKet, StateSpace


def _field_occupations(mode_caps: Sequence[int], total: int):
    if not mode_caps:
        if total == 0:
            yield ()
        return
    head = min(mode_caps[0], total)
    for m in range(head + 1):
        for rest in _field_occupations(mode_caps[1:], total - m):
            yield (m,) + rest


def _atom_configs(n_atoms: int, n_exc: int, a_max: int):
    for n_a in range(min(a_max, n_exc) + 1):
        n_c = n_exc - n_a
        if n_c > n_atoms:
            continue
        for c_combo in combinations(range(n_atoms), n_c):
            rest = [j for j in range(n_atoms) if j not in c_combo]
            for a_combo in combinations(rest, n_a):
                yield AtomConfig(n_atoms, c_combo, tuple(a_combo))


def enumerate_sector(space: StateSpace, totals: Iterable[int]) -> list[JointLabel]:
    """All labels whose total quantum number lies in ``totals``, sorted."""
    labels = []
    photon_cap = space.total_photon_cap
    for q in sorted(set(totals)):
        if q < 0:
            raise ValueError("total quantum number cannot be negative")
        for s in range(min(q, photon_cap) + 1):
            r = q - s
            if r > space.n_exc_max:
                continue
            for occ in _field_occupations(space.mode_caps, s):
                for atoms in _atom_configs(space.n_atoms, r, space.a_max):
                    labels.append(JointLabel(occ, atoms))
    return sorted(labels)


def enumerate_basis(space: StateSpace) -> list[JointLabel]:
    """Every label the space admits (all total quantum numbers)."""
    max_total = space.total_photon_cap + space.n_exc_max
    return enumerate_sector(space, range(max_total + 1))


def _count_field_occupations(mode_caps: Sequence[int], total: int) -> int:
    counts = [1] + [0] * total
    for cap in mode_caps:
        new = [0] * (total + 1)
        for s in range(total + 1):
            if counts[s]:
                for m in range(min(cap, total - s) + 1):
                    new[s + m] += counts[s]
        counts = new
    return counts[total]


def estimate_sector_size(space: StateSpace, totals: Iterable[int]) -> int:
    """Label count of :func:`enumerate_sector` without enumerating."""
    n = space.n_atoms
    total_count = 0
    photon_cap = space.total_photon_cap
    for q in sorted(set(totals)):
        for s in range(min(q, photon_cap) + 1):
            r = q - s
            if r > space.n_exc_max:
                continue
            atom_count = 0
            for n_a in range(min(space.a_max, r) + 1):
                n_c = r - n_a
                if n_c > n:
                    continue
                atom_count += math.comb(n, n_c) * math.comb(n - n_c, n_a)
            total_count += _count_field_occupations(space.mode_caps, s) * atom_count
    return total_count


def estimate_basis_size(space: StateSpace) -> int:
    max_total = space.total_photon_cap + space.n_exc_max
    return estimate_sector_size(space, range(max_total + 1))


def present_totals(ket: SparseKet) -> list[int]:
    """Distinct total quantum numbers (photons + excited atoms) in a ket."""
    return sorted({sum(label.field) + label.atoms.n_excited
                   for label in ket.raw()})


def ket_to_vector(ket: SparseKet, index: dict[JointLabel, int]) -> np.ndarray:
    vec = np.zeros(len(index), dtype=complex)
    for label, amp in ket.raw().items():
        i = index.get(label)
        if i is None:
            raise IntegrationError(
                f"state component {label} lies outside the enumerated sector")
        vec[i] = amp
    return vec


def vector_to_ket(space: StateSpace, basis: Sequence[JointLabel],
                  vec: np.ndarray) -> SparseKet:
    entries = {basis[i]: vec[i] for i in np.flatnonzero(np.abs(vec) > 0)}
    return SparseKet(space, entries, _checked=True)


def operator_matrix(apply_fn: Callable[[SparseKet], SparseKet],
                    space: StateSpace,
                    basis: Sequence[JointLabel]) -> np.ndarray:
    """Dense restriction of an operator to the enumerated basis.

    Raises if the operator maps any basis label outside the basis: a
    restriction must be exact, never a silent truncation.
    """
    index = {label: i for i, label in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, label in enumerate(basis):
        column = apply_fn(SparseKet(space, {label: 1.0}, _checked=True))
        for out_label, amp in column.raw().items():
            i = index.get(out_label)
            if i is None:
                raise IntegrationError(
                    f"operator maps {label} to {out_label}, which is outside "
                    f"the enumerated sector; widen the caps or the totals")
            mat[i, j] = amp
    return mat


def step_grid(t: float, dt_max: float) -> tuple[float, int]:
    """(dt, n_steps): the fewest equal steps covering ``t`` with |dt| <= dt_max.

    At least one step is taken, so ``t = 0`` gives one step of length 0, and
    ``dt_max = inf`` one step of length ``t``.
    """
    n_steps = max(1, math.ceil(abs(t) / dt_max))
    return t / n_steps, n_steps


def rk4_propagate(h0: np.ndarray, psi0: np.ndarray, dt: float, n_steps: int,
                  h1: np.ndarray | None = None,
                  control: np.ndarray | float | None = None,
                  sample_every: int = 1,
                  on_sample: Callable[[int, float, np.ndarray], None] | None = None,
                  ) -> np.ndarray:
    """Integrate i d/dt psi = (h0 + u(t) h1) psi with fixed-step RK4.

    ``control`` supplies u: a scalar for constant control, or an array of
    length 2*n_steps + 1 sampled on the half-step grid t_0, t_0 + dt/2, ...
    ``on_sample(step, t, psi)`` is invoked at step 0, every ``sample_every``
    steps, and at the final step.
    """
    psi = np.array(psi0, dtype=complex, copy=True)
    if h1 is None:
        u = None
    elif np.isscalar(control) or control is None:
        u = np.full(2 * n_steps + 1, 0.0 if control is None else float(control))
    else:
        u = np.asarray(control, dtype=float)
        if u.shape != (2 * n_steps + 1,):
            raise ValueError(
                f"control array must have length {2*n_steps+1}, got {u.shape}")

    def deriv(v, ui):
        hv = h0 @ v
        if h1 is not None:
            hv = hv + ui * (h1 @ v)
        return -1j * hv

    if on_sample is not None:
        on_sample(0, 0.0, psi)
    half = 0.5 * dt
    for step in range(n_steps):
        u0 = u[2 * step] if u is not None else 0.0
        um = u[2 * step + 1] if u is not None else 0.0
        u1 = u[2 * step + 2] if u is not None else 0.0
        k1 = deriv(psi, u0)
        k2 = deriv(psi + half * k1, um)
        k3 = deriv(psi + half * k2, um)
        k4 = deriv(psi + dt * k3, u1)
        psi += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if on_sample is not None and (
                (step + 1) % sample_every == 0 or step == n_steps - 1):
            on_sample(step + 1, (step + 1) * dt, psi)
    return psi
