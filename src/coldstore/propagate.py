"""Sector-restricted propagation for time evolution.

The interaction Hamiltonians used here conserve the total quantum number
(photons + storage excitations + excited-level atoms), so time evolution
never leaves the sector(s) the initial state starts in.  These helpers
enumerate exactly those sectors, restrict the Hamiltonian to them and
integrate with a fixed-step 4th-order Runge-Kutta scheme.  No matrix over
the full Hilbert space is ever formed.  Sector dimensions range from a few
states to thousands (2,325 for 24 atoms with three quanta).
:func:`enumerate_sector` builds a sector as integer digit arrays and
returns it as one :class:`SparseKet` of one column per label; no label
object is made.  :func:`sector_operator` applies the Hamiltonian to that
ket in one pass of the operator kernels and keeps the image as a
:class:`SparseOperator`, the sum of its (row, column, amplitude) triplets,
never a dense dim^2 matrix.

:func:`rk4_propagate` first closes psi under h0 (and h1): each new
direction h v is orthogonalized against the space so far (classical
Gram-Schmidt, done twice) and kept unless it is rounding.  The storage
states are symmetric, so that space is tiny: the 17-state sweep sector of
one quantum reduces to 3 states, the 129-state one of two quanta to 6, the
2,325-state transfer sector of 24 atoms to 4.  Each closure row costs one
``bincount`` matvec per operator, and its rows grow by doubling, so memory
follows the closure, not the cap.  The closure certifies itself: every |h v|
must be finite, and the part of h V outside the span of V, computed from the
images it already holds, must be rounding, or the call is refused.  A
closure larger than ``REACHABLE_MAX_DIM`` states is refused with a budget
error, so there is no second path.  The RK4 core runs on the small dense
V^dag h V, and the result is lifted back to the sector at every sample.

One step is psi <- psi + D psi, D a fixed polynomial in the step's three
control samples (``_rk4_step_terms``).  A controlled call holds each D as
its real block [[Re D, -Im D], [Im D, Re D]] acting on (Re psi, Im psi),
composes the D of a stretch between two samples into one increment up to
``COMPOSE_MAX_DIM`` states, one stacked real matmul per level of a product
tree, else applies them in turn (``_rk4_compiled``); a control-free one
takes the k steps of a stretch as one power (I + D0)^k.  Each applies the
map of stage-by-stage RK4, up to rounding.  Each block reads its control as
the steps reach it (``_control_reader``: a callable ahead, in calls of at
least ``_CONTROL_HALF_STEPS``), so no array of the step count is formed.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, IntegrationError, SpaceMismatchError
from .states import (SparseKet, StateSpace, _combinations, _digit_type,
                     _in_order, _keys, _occupied)


def _field_occupations(mode_caps: Sequence[int], total: int):
    if not mode_caps:
        if total == 0:
            yield ()
        return
    head = min(mode_caps[0], total)
    for m in range(head + 1):
        for rest in _field_occupations(mode_caps[1:], total - m):
            yield (m,) + rest


def _sector_blocks(space: StateSpace, totals: Iterable[int]):
    """(photons, n_c, n_a) of every block of labels whose total quantum
    number lies in ``totals``: ``photons`` spread over the modes, n_c atoms
    in c and n_a in a, within every cap of the space."""
    for q in sorted(set(totals)):
        if q < 0:
            raise ValueError("total quantum number cannot be negative")
        for s in range(min(q, space.total_photon_cap) + 1):
            r = q - s
            if r > space.n_exc_max:
                continue
            for n_a in range(min(space.a_max, r) + 1):
                if r - n_a <= space.n_atoms:
                    yield s, r - n_a, n_a


def enumerate_sector(space: StateSpace, totals: Iterable[int]) -> SparseKet:
    """Every label whose total quantum number lies in ``totals``, as one
    :class:`SparseKet` in label order, column i holding label i at
    amplitude 1: ``len()`` is the dimension, ``.labels()`` the sorted
    labels.  Each block is one digit array (every (n_c + n_a)-subset of the
    atoms, split every way into n_c atoms in c and n_a in a, for every
    photon spread).  Rows already in label order, as one total of one
    mode with no atom in a is built, are kept as built; any others are
    ordered by one ``np.lexsort``."""
    n_atoms, kc, modes = space.n_atoms, space.n_exc_max, space.n_modes
    width, digit = modes + kc + space.a_max, _digit_type(space)
    blocks = [np.zeros((0, width), dtype=digit)]
    for s, n_c, n_a in _sector_blocks(space, totals):
        excited = _combinations(n_atoms, n_c + n_a)
        # row i of in_c is the rest of range(n_c + n_a) after row i of in_a:
        # taking complements reverses the lexicographic order of subsets
        in_a = _combinations(n_c + n_a, n_a)
        in_c = _combinations(n_c + n_a, n_c)[::-1]
        occ = list(_field_occupations(space.mode_caps, s))
        rows = np.zeros((len(occ), len(excited), len(in_a), width), digit)
        rows[..., :modes] = np.reshape(occ, (len(occ), 1, 1, modes))
        rows[..., modes:modes + n_c] = excited[:, in_c] + 1
        rows[..., modes + kc:modes + kc + n_a] = excited[:, in_a] + 1
        blocks.append(rows.reshape(math.prod(rows.shape[:3]), width))
    rows = np.concatenate(blocks)
    keys = _keys(space, rows[:, :modes], rows[:, modes:])
    if not _in_order(keys):
        rows = rows[np.lexsort(keys)]
    dim = len(rows)
    cols = np.arange(dim, dtype=np.min_scalar_type(dim))
    return SparseKet._of(space, dim, cols, rows[:, :modes], rows[:, modes:],
                         np.ones(dim, dtype=complex))


def enumerate_basis(space: StateSpace) -> SparseKet:
    """Every label the space admits (all total quantum numbers)."""
    max_total = space.total_photon_cap + space.n_exc_max
    return enumerate_sector(space, range(max_total + 1))


def estimate_sector_size(space: StateSpace, totals: Iterable[int]) -> int:
    """Label count of :func:`enumerate_sector` without building a label:
    per block, the photon spreads :func:`_field_occupations` yields times
    the choices of atoms."""
    n = space.n_atoms
    return sum(sum(1 for _ in _field_occupations(space.mode_caps, s))
               * math.comb(n, n_c) * math.comb(n - n_c, n_a)
               for s, n_c, n_a in _sector_blocks(space, totals))


def estimate_basis_size(space: StateSpace) -> int:
    max_total = space.total_photon_cap + space.n_exc_max
    return estimate_sector_size(space, range(max_total + 1))


def present_totals(ket: SparseKet) -> list[int]:
    """Distinct total quantum numbers (photons + excited atoms) in a ket."""
    return sorted(set((ket.field.sum(axis=1, dtype=np.intp)
                       + _occupied(ket.sites)).tolist()))


def ket_to_vector(ket: SparseKet, basis: SparseKet) -> np.ndarray:
    """The amplitudes of ``ket`` over the sector ``basis``.  Raises
    :class:`IntegrationError` naming a component outside the sector."""
    at = ket.find(basis)
    if (at < 0).any():
        raise IntegrationError(
            f"state component {ket.labels()[int(np.argmax(at < 0))]} lies "
            f"outside the enumerated sector")
    vec = np.zeros(len(basis), dtype=complex)
    vec[at] = ket.amps
    return vec


def _same_space(space: StateSpace, basis: SparseKet) -> None:
    if space != basis.space:
        raise SpaceMismatchError(
            f"incompatible spaces: {space} vs the basis's {basis.space}")


def vector_to_ket(space: StateSpace, basis: SparseKet,
                  vec: np.ndarray) -> SparseKet:
    """The ket of amplitudes ``vec`` over the sector ``basis``, less those
    at or below ``DROP_TOL``.  Raises :class:`SpaceMismatchError` unless
    ``space`` is the basis's space, as do the two restrictions below."""
    _same_space(space, basis)
    return SparseKet._of(space, 1, np.zeros(len(basis), dtype=np.uint8),
                         basis.field, basis.sites, np.array(vec, complex))


class SparseOperator:
    """A square operator held as (row, column, amplitude) triplets, in the
    order given; the operator is the sum of its entries, so a (row, column)
    pair given twice counts twice.

    ``op @ v`` gathers ``v`` at the entries' columns, multiplies by the
    amplitudes and sums them into their rows with ``np.bincount`` (real and
    imaginary parts apart); ``toarray()`` sums the same entries with
    ``np.add.at``.  Rows without entries are 0.  Raises ``ValueError``
    unless ``rows``, ``cols`` and ``amps`` are 1-D of one length and every
    index lies in [0, dim).  Arrays already of the right type are held, not
    copied.
    """

    __slots__ = ("shape", "_rows", "_cols", "_amps")

    def __init__(self, rows, cols, amps, dim: int):
        dim = _integer("dim", dim)
        if dim < 0:
            raise ValueError(f"dim must be nonnegative, got {dim}")
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        amps = np.asarray(amps, dtype=complex)
        if not (rows.ndim == cols.ndim == amps.ndim == 1
                and len(rows) == len(cols) == len(amps)):
            raise ValueError(
                f"rows, cols and amps must be 1-D of one length, got shapes "
                f"{rows.shape}, {cols.shape} and {amps.shape}")
        for name, index in (("row", rows), ("column", cols)):
            if index.size and not 0 <= index.min() <= index.max() < dim:
                raise ValueError(
                    f"{name} indices must lie in [0, {dim}), got "
                    f"{index.min()} to {index.max()}")
        self.shape = (dim, dim)
        self._rows, self._cols, self._amps = rows, cols, amps

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """The complex vector op v.  A complex ``v`` is gathered as it is,
        other types are converted first; ``v`` itself is never written."""
        v = np.asarray(v)
        if v.shape != self.shape[1:]:
            raise ValueError(
                f"operator of shape {self.shape} cannot act on a vector of "
                f"shape {v.shape}")
        terms = v.astype(complex, copy=False)[self._cols]
        terms *= self._amps
        dim = self.shape[0]
        return (np.bincount(self._rows, terms.real, dim)
                + 1j * np.bincount(self._rows, terms.imag, dim))

    def toarray(self) -> np.ndarray:
        mat = np.zeros(self.shape, dtype=complex)
        np.add.at(mat, (self._rows, self._cols), self._amps)
        return mat


# What rk4_propagate accepts for h0 and h1: ``.shape`` and ``@`` on a vector.
SquareOperator = np.ndarray | SparseOperator


def sector_operator(apply_fn: Callable[[SparseKet], SparseKet],
                    space: StateSpace, basis: SparseKet) -> SparseOperator:
    """Restriction of an operator to the sector ``basis``, compiled once.

    ``apply_fn`` runs once on the sector, whose column i holds label i: the
    ``apply_*`` operators and ket arithmetic act on every column at once.
    Each image entry is looked up in the basis, which gives the (row,
    column, amplitude) triplets.  Raises :class:`IntegrationError`, naming
    the label, if the operator maps any basis label outside the basis: a
    restriction must be exact, never a silent truncation.
    """
    _same_space(space, basis)
    image = apply_fn(basis)
    rows = image.find(basis)
    if (rows < 0).any():
        bad = int(np.argmax(rows < 0))
        raise IntegrationError(
            f"operator maps {basis.labels()[image.cols[bad]]} to "
            f"{image.labels()[bad]}, which is outside the enumerated "
            f"sector; widen the caps or the totals")
    return SparseOperator(rows, image.cols, image.amps, len(basis))


def plus_adjoint(op: SparseOperator) -> SparseOperator:
    """op + op^dag as one operator: op's entries beside their mirror
    images (row and column swapped, amplitude conjugated), all in (column,
    row) order, as :func:`sector_operator` would compile the sum of two
    terms that share no entry."""
    rows = np.concatenate((op._rows, op._cols))
    cols = np.concatenate((op._cols, op._rows))
    adjoint = op._amps.conjugate()
    adjoint.imag += 0.0     # -0.0 to 0.0, as compiling the term would
    dim = op.shape[0]
    order = np.argsort(cols * dim + rows, kind="stable")
    return SparseOperator(rows[order], cols[order],
                          np.concatenate((op._amps, adjoint))[order], dim)


def operator_matrix(apply_fn: Callable[[SparseKet], SparseKet],
                    space: StateSpace, basis: SparseKet) -> np.ndarray:
    """Dense restriction of an operator to the sector ``basis``, the test
    reference for :func:`sector_operator`: column j is the image of label j
    of ``basis.labels()`` alone, looked up in a dict of those labels.
    Raises like :func:`sector_operator` if the operator leaves the basis."""
    _same_space(space, basis)
    labels = basis.labels()
    index = {label: i for i, label in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for j, source in enumerate(labels):
        image = apply_fn(SparseKet(space, {source: 1.0}, _checked=True))
        for label, amp in image.items():
            i = index.get(label)
            if i is None:
                raise IntegrationError(
                    f"operator maps {source} to {label}, which is outside "
                    f"the enumerated sector; widen the caps or the totals")
            mat[i, j] = amp
    return mat


def step_grid(t: float, dt_max: float) -> tuple[float, int]:
    """(dt, n_steps): the fewest equal steps covering ``t`` with |dt| <= dt_max.

    At least one step is taken, so ``t = 0`` gives one step of length 0, and
    ``dt_max = inf`` one step of length ``t``.  ``t`` must be finite and
    ``dt_max`` positive.
    """
    if not math.isfinite(t):
        raise ValueError(f"time span must be finite, got {t}")
    if not dt_max > 0:
        raise ValueError(f"maximum step must be positive, got {dt_max}")
    n_steps = max(1, math.ceil(abs(t) / dt_max))
    return t / n_steps, n_steps


# Bytes a block of the compiled controlled step takes at once: its real
# blocks of the D_n (4 dim^2 floats, 32 dim^2 bytes, each) and the first
# level of their product tree (16 dim^2 bytes a step), 48 dim^2 bytes a step.
# A block of the sweep's 3-state closure holds 4,854 steps, more than one of
# its sample stretches (2,500 steps at default, 625 at duration_coupling
# 50), so blocks split only unsampled or very long stretches.
STEP_BLOCK_BYTES = 1 << 21
# Half-steps the control is asked for at least per call.  A call of the
# sweep's schedule costs about 21 us of overhead against 23-24 ns per value,
# so the slow sweep's stretches (1,250 half-steps or more) take one call
# each, the fast sweep's one-step stretches 500 per call.
_CONTROL_HALF_STEPS = 1000

# Exponents (a, b, c) of the monomials u1^a um^b u0^c of one RK4 step.
_STEP_MONOMIALS = [(a, b, c) for a in (0, 1) for b in (0, 1, 2)
                   for c in (0, 1)]


def _rk4_step_terms(h0: np.ndarray, h1: np.ndarray | None,
                    dt: float) -> np.ndarray:
    """Coefficients of one RK4 step's increment, (12, dim, dim); without
    ``h1`` only the first, D0, the whole increment of a control-free step.

    With A(u) = -i (h0 + u h1), the step from psi to psi + D psi takes
    A(u0), A(um), A(um), A(u1) through the stages k1..k4; expanding them
    as polynomials in (u1, um, u0) gives D = sum_j C_j u1^a um^b u0^c over
    ``_STEP_MONOMIALS``.  The identity of psi + D psi stays out of D: its
    rounding would be the same at every step and accumulate.
    """
    dim = h0.shape[0]
    ops = [(0, -1j * h0)] + ([] if h1 is None else [(1, -1j * h1)])

    def times_a(var, poly):
        """A(u_var) @ poly, poly mapping exponents to matrices."""
        out = {}
        for key, mat in poly.items():
            for shift, op in ops:
                k = key[:var] + (key[var] + shift,) + key[var + 1:]
                out[k] = out[k] + op @ mat if k in out else op @ mat
        return out

    eye = np.eye(dim, dtype=complex)

    def plus_identity(scale, poly):
        out = {k: scale * m for k, m in poly.items()}
        out[(0, 0, 0)] = out[(0, 0, 0)] + eye
        return out

    u1, um, u0 = 0, 1, 2        # positions in the exponent tuples
    k1 = times_a(u0, {(0, 0, 0): eye})
    k2 = times_a(um, plus_identity(0.5 * dt, k1))
    k3 = times_a(um, plus_identity(0.5 * dt, k2))
    k4 = times_a(u1, plus_identity(dt, k3))
    zero = np.zeros((dim, dim), dtype=complex)
    return np.array([(dt / 6.0) * (k1.get(k, zero)
                                   + 2.0 * (k2.get(k, zero) + k3.get(k, zero))
                                   + k4.get(k, zero))
                     for k in _STEP_MONOMIALS if k in k4])


# Reduced dimensions up to which the steps of a stretch are composed into one
# increment before they touch the state; above it each step is one matvec.
# Measured as controlled rk4_propagate calls of 20,000 steps sampled every
# 625 and every 2,500 steps on random Hermitian h0 and h1, composing against
# stepping, both on real blocks, interleaved, best of 7 (2-core Xeon VM,
# Python 3.11, numpy 2.4, OpenBLAS): composing took 0.1-0.2x the time at 2
# and 3 states (the sweep's one-quantum closure), 0.2-0.3x at 4 and 5,
# 0.4x at 6 (two quanta), 0.5x at 7 and 8, 0.7x at 9, 0.8-0.85x at 10 (three
# quanta) and 0.9-1.0x at 11 and 12 states.
COMPOSE_MAX_DIM = 10


def _real_blocks(mats: np.ndarray) -> np.ndarray:
    """The real block form [[Re M, -Im M], [Im M, Re M]] of each complex
    matrix M on the last two axes, (..., 2 dim, 2 dim): the block maps
    (Re x, Im x) to (Re Mx, Im Mx), and the product of two blocks is the
    block of the product."""
    return np.block([[mats.real, -mats.imag], [mats.imag, mats.real]])


def _compose(steps: np.ndarray) -> np.ndarray:
    """Increment E of a stack of step increments D_n, (n, m, m) and earliest
    first, with I + E the product of the I + D_n, the later step on the
    left; like the D_n, E leaves the identity out.  Each tree level composes
    all adjacent pairs at once, E <- E_late E_early + E_early + E_late, as
    one stacked matmul and two adds.  A level of odd length first sets its
    last increment aside; those are composed onto the result at the end,
    earliest first.  The controlled step passes real blocks
    (``_real_blocks``), whose products are those of the complex D_n.
    """
    later = []      # the increments set aside, latest first
    while len(steps) > 1:
        if len(steps) % 2:
            later.append(steps[-1])
            steps = steps[:-1]
        early, late = steps[::2], steps[1::2]
        steps = np.matmul(late, early)
        steps += early
        steps += late
    composed = steps[0]
    for late in reversed(later):
        composed = late @ composed + composed + late
    return composed


def _step_blocks(stops: Sequence[int], max_block: int):
    """(lo, hi, sampled) of each block of steps in order: every stretch up
    to the next stop cut into equal blocks of at most ``max_block`` steps,
    ``sampled`` on the stretch's last block."""
    start = 0
    for stop in stops:
        n_blocks = -(-(stop - start) // max_block)
        edges = [start + (stop - start) * i // n_blocks
                 for i in range(n_blocks + 1)]
        for i in range(n_blocks):
            yield edges[i], edges[i + 1], i == n_blocks - 1
        start = stop


def _rk4_compiled(h0: np.ndarray, h1: np.ndarray, psi: np.ndarray,
                  dt: float, read: Callable[[int, int], np.ndarray],
                  stops: Sequence[int], on_sample) -> None:
    """Advance ``psi`` in place through ``stops``.

    ``read(lo, hi)`` returns the control at half-steps lo..hi-1.  Each
    stretch up to the next stop is cut into equal blocks of at most
    ``STEP_BLOCK_BYTES`` (48 dim^2 bytes a step), so no block straddles a
    sample and every stretch of equal length does the same work.  The stops
    are those of the sample schedule, so the first stretch is the longest.
    Each block of k steps reads its 2k + 1 half-steps of control.  The 12
    coefficient matrices are compiled once into real blocks
    (``_real_blocks``), and a block's increments D_n are one real GEMM of
    its monomials, held [a, b, c, step], against them, each written in
    place as a (2 dim, 2 dim) block.  Up to COMPOSE_MAX_DIM states they are
    composed (``_compose``) and applied with one matvec, else in turn, each
    to (Re psi, Im psi); ``psi`` is written back at every sample.
    """
    if not stops:
        return
    dim = psi.shape[0]
    terms = _real_blocks(_rk4_step_terms(h0, h1, dt))
    terms = terms.reshape(len(_STEP_MONOMIALS), -1)
    max_block = max(1, STEP_BLOCK_BYTES // (48 * dim * dim))
    block = np.empty((min(max_block, stops[0]), terms.shape[1]))
    # monomials u1^a um^b u0^c as _STEP_MONOMIALS; u^0 = 1 is never written
    monomials = np.ones((2, 3, 2, len(block)))
    v = np.concatenate((psi.real, psi.imag))
    for lo, hi, sampled in _step_blocks(stops, max_block):
        u = read(2 * lo, 2 * hi + 1)    # step lo + n: u[2n], u[2n+1], u[2n+2]
        mono = monomials[..., :hi - lo]
        mono[0, 0, 1] = u[:-1:2]
        mono[0, 1] = mono[0, 0] * u[1::2]
        mono[0, 2] = mono[0, 1] * u[1::2]
        mono[1] = mono[0] * u[2::2]
        steps = np.matmul(mono.reshape(-1, hi - lo).T, terms,
                          out=block[:hi - lo])
        steps = steps.reshape(-1, 2 * dim, 2 * dim)
        if dim <= COMPOSE_MAX_DIM:
            steps = _compose(steps)[None]
        for e in steps:
            v += e @ v
        if sampled:
            psi.real, psi.imag = v[:dim], v[dim:]
            if on_sample is not None:
                on_sample(hi, hi * dt, psi)


def _control_reader(control, n_steps: int,
                    dt: float) -> Callable[[int, int], np.ndarray]:
    """``read(lo, hi)``, the control at half-steps lo..hi-1 of the grid
    t_i = i dt/2, for ``lo`` that never decreases.  ``control`` is asked for
    each half-step once and in order, at least ``_CONTROL_HALF_STEPS`` of
    them per call unless the grid ends, and its values are checked as they
    arrive; the reader holds only those from the latest ``lo`` on."""
    held, start = np.empty(0), 0    # the values from half-step start on

    def read(lo, hi):
        nonlocal held, start
        held, start = held[lo - start:], lo
        end = lo + len(held)
        if hi > end:    # | 1: whole steps, and the first read one more
            stop = min(max(hi, end + _CONTROL_HALF_STEPS) | 1,
                       2 * n_steps + 1)
            t = np.arange(end, stop, dtype=float)
            t *= dt / 2
            u = np.asarray(control(t), dtype=float)
            if u.shape != t.shape:
                raise ValueError(
                    f"control callable returned shape {u.shape} for "
                    f"{len(t)} times")
            if not np.isfinite(u).all():
                i = int(np.argmin(np.isfinite(u)))
                raise ValueError(
                    f"control must be finite, got {u[i]!r} at "
                    f"t = {float(t[i])!r} (half-step {end + i})")
            held = np.concatenate((held, u))
        return held[:hi - lo]
    return read


# States the reachable subspace of one call may have; a call whose closure
# needs more is refused rather than run on the full sector.
REACHABLE_MAX_DIM = 512
# A new direction joins the reachable subspace only if its part orthogonal
# to the subspace exceeds this fraction of the largest |h v| seen for that
# operator.  What Gram-Schmidt leaves of a direction already in the space is
# rounding, 1e-16 to 1e-15 of |h v| in the sectors here.  The symmetric
# states close on the same few states at 1e-14 and at 1e-13, but at 1e-14
# a random state in the 24-atom transfer sector keeps 14 states, not 9.
REACHABLE_TOL = 1e-13
# The part of h V outside the span of V, relative to |h V| (Frobenius), above
# which a closure is refused as not invariant.  Measured at 6e-16 to 4e-15 on
# the transfer closures and 1e-16 on the sweep's.
REACHABLE_LEAK_TOL = 1e-12


def _combination(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] rows[i], as elementwise products and one sum.  As a
    complex vector-matrix product (a zgemv with a long output) the same sum
    stalls for a scheduler tick, about 8 ms, in some processes under two
    OpenBLAS threads."""
    return (coeffs[:, None] * rows).sum(axis=0)


def _reachable_subspace(ops: Sequence[SquareOperator],
                        psi: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(V, [V^dag h V for h in ops]): orthonormal rows V spanning the closure
    of ``psi`` under ``ops``.

    The first row is psi / |psi| (psi itself if it is zero).  Each row v in
    turn is mapped by every operator, and the part of h v orthogonal to the
    rows so far (classical Gram-Schmidt, done twice) becomes a new row
    unless its norm is at most ``REACHABLE_TOL`` times the largest |h v| of
    that operator.  Raises :class:`BudgetExceededError` when the closure
    needs more than ``REACHABLE_MAX_DIM`` rows, and :class:`IntegrationError`
    when an |h v| is not finite or the images h V it holds leave the span of
    V by more than ``REACHABLE_LEAK_TOL`` of |h V|.
    """
    dim = psi.shape[0]
    norm = np.linalg.norm(psi)
    basis = np.empty((1, dim), dtype=complex)
    basis[0] = psi / norm if norm else psi
    conj = basis.conj()     # the rows conjugated, grown beside them
    images: list[list[np.ndarray]] = [[] for _ in ops]
    scales = [0.0] * len(ops)
    m, j = 1, 0
    while j < m:
        for i, h in enumerate(ops):
            w = h @ basis[j]
            images[i].append(w)
            with np.errstate(over="ignore"):
                scale = float(np.linalg.norm(w))
            if not math.isfinite(scale):
                raise IntegrationError(f"|h v| of closure row {j} is {scale}")
            scales[i] = max(scales[i], scale)
            for _ in range(2):
                w = w - _combination(conj[:m] @ w, basis[:m])
            beta = float(np.linalg.norm(w))
            if beta <= REACHABLE_TOL * scales[i] or m == dim:
                continue
            if m == REACHABLE_MAX_DIM:
                raise BudgetExceededError(
                    f"the space reachable from psi0 has more than "
                    f"REACHABLE_MAX_DIM = {REACHABLE_MAX_DIM} of the {dim} "
                    f"states of the sector; refusing to propagate it")
            if m == len(basis):     # double the rows; copy only those in use
                rows = min(2 * m, REACHABLE_MAX_DIM)
                grown = np.empty((2, rows, dim), complex)
                grown[0, :m], grown[1, :m] = basis, conj
                basis, conj = grown
            basis[m] = w / beta
            np.conjugate(basis[m], out=conj[m])
            m += 1
        j += 1
    basis, conj = basis[:m], conj[:m]
    reduced = []
    for image in map(np.array, images):
        block = conj @ image.T
        scale = float(np.linalg.norm(image))
        image -= block.T @ basis
        leak = float(np.linalg.norm(image))
        if leak > REACHABLE_LEAK_TOL * scale:
            raise IntegrationError(
                f"the closure of psi0 ({m} states) is not invariant: "
                f"{leak:.3g} of |h V| = {scale:.3g} leaves its span")
        reduced.append(block)
    return basis, reduced


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def rk4_propagate(h0: SquareOperator, psi0: np.ndarray,
                  dt: float, n_steps: int,
                  h1: SquareOperator | None = None,
                  control: Callable[[np.ndarray], np.ndarray] | None = None,
                  sample_every: int = 1,
                  on_sample: Callable[[int, float, np.ndarray], None] | None = None,
                  ) -> np.ndarray:
    """Integrate i d/dt psi = (h0 + u(t) h1) psi with fixed-step RK4.

    ``h0`` and ``h1`` may be any square operators with ``.shape`` and ``@``
    on a vector: the :class:`SparseOperator` of :func:`sector_operator`
    that the evolutions pass, or a dense array such as that of
    :func:`operator_matrix`.  Each is applied once per row of the closure
    and never again.  ``h1`` must have the shape of ``h0``
    and ``psi0`` the shape ``(h0.shape[0],)``.
    ``control``, given with ``h1`` and only with it, is a callable ``u(t)``
    mapping an array of times of the half-step grid t_i = i dt/2, i = 0 ..
    2*n_steps, to as many values.  It is asked for the grid as the
    integration reaches it, each time once and in order, at least
    ``_CONTROL_HALF_STEPS`` half-steps per call (nothing as long as the step
    count is held); a non-finite value raises ``ValueError`` when its call
    returns, before any sample past it.
    ``on_sample(step, t, psi)`` is invoked at step 0, every ``sample_every``
    steps (at least 1), and at the final step.
    ``n_steps`` must be a nonnegative integer, ``sample_every`` an integer,
    and ``dt`` and ``psi0`` finite.

    Every call runs on the subspace reachable from ``psi0``, with the small
    dense V^dag h V, and lifts the result back to the sector at every
    sample and at the end; the closure is refused with
    :class:`BudgetExceededError` above ``REACHABLE_MAX_DIM`` states and with
    :class:`IntegrationError` if an |h v| is not finite or the closure
    leaks.  The steps are applied as the module docstring says, with the
    map of stage-by-stage RK4, up to rounding.
    """
    n_steps = _integer("n_steps", n_steps)
    sample_every = _integer("sample_every", sample_every)
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if not math.isfinite(dt):
        raise ValueError(f"step dt must be finite, got {dt}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    shape = tuple(h0.shape)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"h0 must be a square operator, got shape {shape}")
    if h1 is not None and tuple(h1.shape) != shape:
        raise ValueError(
            f"h1 of shape {tuple(h1.shape)} does not match h0 of shape {shape}")
    psi = np.array(psi0, dtype=complex, copy=True)
    if psi.shape != shape[:1]:
        raise ValueError(
            f"psi0 of shape {psi.shape} does not match h0 of shape {shape}")
    if not np.isfinite(psi).all():
        raise ValueError("psi0 must be finite, got a NaN or infinite entry")
    if h1 is None:
        if control is not None:
            raise ValueError("control given without a control operator h1")
    elif callable(control):
        read = _control_reader(control, n_steps, dt)
    else:
        raise ValueError(f"control must be a callable u(t) when h1 is "
                         f"given, got {type(control).__name__}")

    if on_sample is None:
        stops = [n_steps] if n_steps else []
    else:
        on_sample(0, 0.0, psi)
        stops = list(range(sample_every, n_steps, sample_every))
        stops += [n_steps] if n_steps else []
    if not stops:
        return psi
    basis, reduced = _reachable_subspace((h0,) if h1 is None else (h0, h1),
                                         psi)
    norm = np.linalg.norm(psi)

    def lift(y):
        # y is in units of |psi| and psi stands for |psi| times the first
        # basis vector, so a map that leaves e_1 alone returns psi exactly
        return psi * y[0] + norm * _combination(y[1:], basis[1:])

    y = np.zeros(len(basis), dtype=complex)
    y[0] = 1.0
    if h1 is not None:
        _rk4_compiled(*reduced, y, dt, read, stops, None if on_sample is None
                      else lambda step, t, v: on_sample(step, t, lift(v)))
        return lift(y)
    step = np.eye(len(y)) + _rk4_step_terms(reduced[0], None, dt)[0]
    start = 0
    for stop in stops:
        y = np.linalg.matrix_power(step, stop - start) @ y
        if on_sample is not None:
            on_sample(stop, stop * dt, lift(y))
        start = stop
    return lift(y)
