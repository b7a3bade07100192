"""Sector-restricted propagation for time evolution.

The interaction Hamiltonians used here conserve the total quantum number
(photons + storage excitations + excited-level atoms), so time evolution
never leaves the sector(s) the initial state starts in.  These helpers
enumerate exactly those sectors, compile the Hamiltonian restricted to them
once (column by column, from the same on-the-fly operator expansion used
everywhere else), and integrate with a fixed-step 4th-order Runge-Kutta
scheme.  No matrix over the full Hilbert space is ever formed.  Sector
dimensions range from a few states to thousands (2,325 for 24 atoms with
three quanta), so :func:`sector_operator` keeps a small sector as a dense
matrix and a large one as a :class:`SparseOperator`, whose non-zeros are a
fraction of a percent of its dim^2 entries.
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


def _operator_triplets(apply_fn: Callable[[SparseKet], SparseKet],
                       space: StateSpace, basis: Sequence[JointLabel],
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, amps) of an operator restricted to the basis, column
    by column.

    Raises if the operator maps any basis label outside the basis: a
    restriction must be exact, never a silent truncation.
    """
    index = {label: i for i, label in enumerate(basis)}
    rows: list[int] = []
    cols: list[int] = []
    amps: list[complex] = []
    for j, label in enumerate(basis):
        column = apply_fn(SparseKet(space, {label: 1.0}, _checked=True))
        for out_label, amp in column.raw().items():
            i = index.get(out_label)
            if i is None:
                raise IntegrationError(
                    f"operator maps {label} to {out_label}, which is outside "
                    f"the enumerated sector; widen the caps or the totals")
            rows.append(i)
            cols.append(j)
            amps.append(amp)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(amps, dtype=complex))


def operator_matrix(apply_fn: Callable[[SparseKet], SparseKet],
                    space: StateSpace,
                    basis: Sequence[JointLabel]) -> np.ndarray:
    """Dense restriction of an operator to the enumerated basis.

    Raises if the operator maps any basis label outside the basis: a
    restriction must be exact, never a silent truncation.
    """
    rows, cols, amps = _operator_triplets(apply_fn, space, basis)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    mat[rows, cols] = amps
    return mat


class SparseOperator:
    """A square operator held as its non-zero entries, sorted by row.

    ``op @ v`` gathers ``v`` at the entries' columns, multiplies by the
    amplitudes and sums each row's run with ``np.add.reduceat``; rows
    without entries stay 0.  Within a row the entries keep the order they
    were given in.
    """

    __slots__ = ("shape", "_rows", "_cols", "_amps", "_row_ids",
                 "_row_starts")

    def __init__(self, rows, cols, amps, dim: int):
        rows = np.asarray(rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        self.shape = (dim, dim)
        self._rows = rows[order]
        self._cols = np.asarray(cols, dtype=np.intp)[order]
        self._amps = np.asarray(amps, dtype=complex)[order]
        self._row_ids, self._row_starts = np.unique(self._rows,
                                                    return_index=True)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != self.shape[1:]:
            raise ValueError(
                f"operator of shape {self.shape} cannot act on a vector of "
                f"shape {v.shape}")
        if not self._amps.size:
            return np.zeros(self.shape[0], dtype=complex)
        sums = np.add.reduceat(self._amps * v[self._cols], self._row_starts)
        if len(sums) == self.shape[0]:
            return sums
        out = np.zeros(self.shape[0], dtype=complex)
        out[self._row_ids] = sums
        return out

    def toarray(self) -> np.ndarray:
        mat = np.zeros(self.shape, dtype=complex)
        mat[self._rows, self._cols] = self._amps
        return mat


# Sectors with at least this many states are compiled to a SparseOperator,
# smaller ones to a dense matrix.  Measured as the fastest RK4 step over
# interleaved repeats on the transfer Hamiltonian and on the sweep's
# H_static + u H_control (2-core Xeon VM, Python 3.11, numpy 2.4, OpenBLAS
# with 2 threads): dense was faster up to 56 states; from 73 to 106 states
# the faster form changed from run to run; from 129 states on the sparse
# form was faster or tied in every run, 5x faster at 697 states.
SPARSE_MIN_DIM = 128


def sector_operator(apply_fn: Callable[[SparseKet], SparseKet],
                    space: StateSpace, basis: Sequence[JointLabel],
                    ) -> np.ndarray | SparseOperator:
    """Restriction of an operator to the enumerated basis, for RK4.

    A dense :func:`operator_matrix` below ``SPARSE_MIN_DIM`` states, a
    :class:`SparseOperator` (never a dense dim^2 array) from there on.
    Raises like :func:`operator_matrix` if the operator leaves the basis.
    """
    if len(basis) < SPARSE_MIN_DIM:
        return operator_matrix(apply_fn, space, basis)
    return SparseOperator(*_operator_triplets(apply_fn, space, basis),
                          len(basis))


def step_grid(t: float, dt_max: float) -> tuple[float, int]:
    """(dt, n_steps): the fewest equal steps covering ``t`` with |dt| <= dt_max.

    At least one step is taken, so ``t = 0`` gives one step of length 0, and
    ``dt_max = inf`` one step of length ``t``.
    """
    n_steps = max(1, math.ceil(abs(t) / dt_max))
    return t / n_steps, n_steps


def rk4_propagate(h0: np.ndarray | SparseOperator, psi0: np.ndarray,
                  dt: float, n_steps: int,
                  h1: np.ndarray | SparseOperator | None = None,
                  control: np.ndarray | float | None = None,
                  sample_every: int = 1,
                  on_sample: Callable[[int, float, np.ndarray], None] | None = None,
                  ) -> np.ndarray:
    """Integrate i d/dt psi = (h0 + u(t) h1) psi with fixed-step RK4.

    ``h0`` and ``h1`` may be any operators with ``.shape`` and ``@`` on a
    vector: dense arrays or the :class:`SparseOperator` of
    :func:`sector_operator`.
    ``control`` supplies u: a scalar for constant control, or an array of
    length 2*n_steps + 1 sampled on the half-step grid t_0, t_0 + dt/2, ...
    It is an error to give ``control`` without ``h1``.
    ``on_sample(step, t, psi)`` is invoked at step 0, every ``sample_every``
    steps (at least 1), and at the final step.
    """
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    psi = np.array(psi0, dtype=complex, copy=True)
    if h1 is None:
        if control is not None:
            raise ValueError("control given without a control operator h1")
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
