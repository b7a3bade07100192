"""Collective atomic operators applied to integer-coded kets.

Every collective transition is one phased sum of single-atom level changes;
no matrix over the full Hilbert space is ever formed.  The operators take a
:class:`SparseKet` as it is held, integer arrays of photon numbers and site
digits beside the amplitudes, and return one; a ket holding one ket per
column of an operator, as :func:`~coldstore.propagate.sector_operator`
compiles, goes through the same kernels.  Each primitive is one numpy
kernel over all entries at once.  ``_flip`` marks the atoms in level
``src`` on a boolean plane, moves each one to ``dst`` by taking its site
out of one site list and putting it into the other, and weights the move
with the phase e^{+i k z_j} when it goes up the level order b < c < a and
e^{-i k z_j} when it goes down; :func:`apply_field` shifts one mode's photon
number and :func:`apply_population` counts the atoms of a level.  Equal
targets are merged after one stable sort, so each target sums its terms in
(source label, atom j) order.  With N atoms at positions z_j and
wavevector k:

    sigma(k)        = N^{-1/2} sum_j |b_j><c_j| e^{-i k z_j}
    sigma_dagger(k) = N^{-1/2} sum_j |c_j><b_j| e^{+i k z_j}
    rho_ab(k)       = N^{-1}   sum_j |a_j><b_j| e^{+i k z_j}
    rho_ac(k)       = N^{-1}   sum_j |a_j><c_j| e^{+i k z_j}

and the quadrature/inversion combinations built from sigma:

    r1 = (sqrt(N)/2)(sigma_dagger + sigma)
    r2 = (-i sqrt(N)/2)(sigma_dagger - sigma)
    r3 = (N/2)(sigma_dagger sigma - sigma sigma_dagger)
    r_squared = (N/2)(sigma_dagger sigma + sigma sigma_dagger) + r3^2

Moves that would leave the truncated space raise SectorOverflowError (and
photon creation past a cap FockOverflowError) rather than silently
truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FockOverflowError, SectorOverflowError
from .geometry import Geometry
from .states import (
    SparseKet,
    StateSpace,
    _level_count,
    _merge,
    _occupied,
    _times,
    inner_product,
)


_LEVELS = ("b", "c", "a")


def _flip(ket: SparseKet, geometry: Geometry, k: float, src: str, dst: str,
          scale: float) -> SparseKet:
    """sum_j |dst><src|_j times e^{+i k z_j} (upward move) or e^{-i k z_j}
    (downward move, in the order b < c < a), divided by ``scale``.

    Leaving b adds an atomic excitation and entering a adds an excited-level
    atom; a move that would break ``n_exc_max`` or ``a_max`` raises
    SectorOverflowError, provided some atom is there to move.
    """
    space = ket.space
    n_atoms, kc = space.n_atoms, space.n_exc_max
    if geometry.n_atoms != n_atoms:
        raise ValueError(
            f"geometry has {geometry.n_atoms} atoms, space has {n_atoms}")
    coeffs = geometry.phases(k)
    if _LEVELS.index(dst) < _LEVELS.index(src):
        coeffs = coeffs.conjugate()
    coeffs = coeffs / scale
    span = {"b": slice(None), "c": slice(0, kc), "a": slice(kc, None)}
    # column j + 1 marks atom j; b is every atom in neither c nor a
    plane = np.zeros((len(ket), n_atoms + 1), dtype=bool)
    plane[np.arange(len(ket))[:, None], ket.sites[:, span[src]]] = True
    if src == "b":
        plane = ~plane
    plane[:, 0] = False
    full = np.zeros(len(ket), dtype=bool)
    if src == "b":
        full |= _occupied(ket.sites) >= kc
    if dst == "a":
        full |= _occupied(ket.sites[:, kc:]) >= space.a_max
    if (full & plane.any(axis=1)).any():
        raise SectorOverflowError(
            f"moving an atom {src} -> {dst} would exceed the sector caps "
            f"(n_exc_max {space.n_exc_max}, a_max {space.a_max})")
    source, digit = np.divmod(np.flatnonzero(plane), n_atoms + 1)
    sites = ket.sites[source]
    moved = digit[:, None].astype(sites.dtype)
    for level in {src, dst} - {"b"}:
        block = sites[:, span[level]]
        width = block.shape[1]
        # the moved site goes out (to 0) or in (over a free 0); the digits
        # less one sort each 0 last, as 0 - 1 wraps past every digit
        block = (np.where(block == moved, 0, block) if level == src
                 else np.concatenate([block, moved], axis=1))
        sites[:, span[level]] = np.sort(block - 1, axis=1)[:, :width] + 1
    return _merge(space, ket.n_cols, ket.cols[source], ket.field[source],
                  sites, _times(ket.amps[source], coeffs[digit - 1]))


def apply_sigma(ket: SparseKet, geometry: Geometry, k: float,
                dagger: bool = False) -> SparseKet:
    """Apply the collective b<->c lowering operator sigma(k) (or its adjoint)."""
    src, dst = ("b", "c") if dagger else ("c", "b")
    return _flip(ket, geometry, k, src, dst, math.sqrt(ket.space.n_atoms))


def apply_rho_ab(ket: SparseKet, geometry: Geometry, k: float,
                 dagger: bool = False) -> SparseKet:
    """b -> a promotion density rho_ab(k); the adjoint demotes a -> b."""
    src, dst = ("a", "b") if dagger else ("b", "a")
    return _flip(ket, geometry, k, src, dst, ket.space.n_atoms)


def apply_rho_ac(ket: SparseKet, geometry: Geometry, k: float,
                 dagger: bool = False) -> SparseKet:
    """c -> a promotion density rho_ac(k); the adjoint demotes a -> c."""
    src, dst = ("a", "c") if dagger else ("c", "a")
    return _flip(ket, geometry, k, src, dst, ket.space.n_atoms)


def apply_population(ket: SparseKet, level: str) -> SparseKet:
    """Diagonal operator counting atoms in 'b', 'c' or 'a'."""
    count = _level_count(ket, level)
    rows = np.flatnonzero(count)
    return SparseKet._of(ket.space, ket.n_cols, ket.cols[rows],
                         ket.field[rows], ket.sites[rows],
                         ket.amps[rows] * count[rows])


def _check_creation(space: StateSpace, field: np.ndarray,
                    mode_index: int) -> None:
    """Raise FockOverflowError if one more photon in mode ``mode_index``
    would pass a cap of ``space`` on any row of photon numbers ``field``."""
    if np.any(field[:, mode_index] >= space.mode_caps[mode_index]) or np.any(
            field.sum(axis=1) >= space.total_photon_cap):
        raise FockOverflowError(
            f"creation on mode {mode_index} exceeds its Fock cap")


def apply_field(ket: SparseKet, mode_index: int, dagger: bool = False) -> SparseKet:
    """Photon annihilation (or creation) on one tracked field mode."""
    space = ket.space
    if not 0 <= mode_index < space.n_modes:
        raise ValueError(f"no tracked mode with index {mode_index}")
    occ = ket.field[:, mode_index]
    if dagger:
        _check_creation(space, ket.field, mode_index)
    rows = np.arange(len(ket)) if dagger else np.flatnonzero(occ)
    field = ket.field[rows]
    field[:, mode_index] = occ[rows] + 1 if dagger else occ[rows] - 1
    # sqrt(m + 1) up, sqrt(m) down: the larger of the two occupations
    coeff = np.sqrt(np.maximum(occ[rows], field[:, mode_index]), dtype=float)
    return SparseKet._of(space, ket.n_cols, ket.cols[rows], field,
                         ket.sites[rows], ket.amps[rows] * coeff)


# -- quadrature / inversion combinations ---------------------------------

def apply_r1(ket: SparseKet, geometry: Geometry, k: float) -> SparseKet:
    n = ket.space.n_atoms
    up = apply_sigma(ket, geometry, k, dagger=True)
    down = apply_sigma(ket, geometry, k)
    return (math.sqrt(n) / 2.0) * (up + down)


def apply_r2(ket: SparseKet, geometry: Geometry, k: float) -> SparseKet:
    n = ket.space.n_atoms
    up = apply_sigma(ket, geometry, k, dagger=True)
    down = apply_sigma(ket, geometry, k)
    return (-0.5j * math.sqrt(n)) * (up - down)


def _updown_minus_downup(ket, geometry, k):
    up_down = apply_sigma(apply_sigma(ket, geometry, k), geometry, k, dagger=True)
    down_up = apply_sigma(apply_sigma(ket, geometry, k, dagger=True), geometry, k)
    return up_down, down_up


def apply_r3(ket: SparseKet, geometry: Geometry, k: float) -> SparseKet:
    """Half-inversion operator; needs one unit of sector headroom."""
    n = ket.space.n_atoms
    up_down, down_up = _updown_minus_downup(ket, geometry, k)
    return (n / 2.0) * (up_down - down_up)


def apply_r_squared(ket: SparseKet, geometry: Geometry, k: float) -> SparseKet:
    """Total-angular-momentum-squared analogue; needs sector headroom 1."""
    n = ket.space.n_atoms
    up_down, down_up = _updown_minus_downup(ket, geometry, k)
    diff = up_down - down_up
    dd_up_down, dd_down_up = _updown_minus_downup(diff, geometry, k)
    return ((n / 2.0) * (up_down + down_up)
            + (n * n / 4.0) * (dd_up_down - dd_down_up))


def commutator_matrix_element(apply_a, apply_b, x: SparseKet,
                              y: SparseKet) -> complex:
    """<x| [A, B] |y> of the ket maps ``apply_a`` and ``apply_b``."""
    ab = apply_a(apply_b(y))
    ba = apply_b(apply_a(y))
    return inner_product(x, ab) - inner_product(x, ba)


def sigma_commutator_element(geometry: Geometry, k: float, k_prime: float,
                             x: SparseKet, y: SparseKet) -> complex:
    """<x| [sigma(k), sigma_dagger(k')] |y> convenience wrapper."""
    # the lambdas look apply_sigma up at call time, so a rebinding of the
    # module name reaches every application
    return commutator_matrix_element(
        lambda ket: apply_sigma(ket, geometry, k),
        lambda ket: apply_sigma(ket, geometry, k_prime, dagger=True), x, y)


@dataclass(frozen=True)
class AngularMomentumCheck:
    """Rayleigh quotients and eigen-residuals for r3 and r_squared."""

    r3_eigenvalue: float
    r3_residual: float
    r_squared_eigenvalue: float
    r_squared_residual: float


def angular_momentum_eigencheck(ket: SparseKet, geometry: Geometry,
                                k: float) -> AngularMomentumCheck:
    """Measure how close ``ket`` is to a joint (r3, r_squared) eigenvector.

    The eigenvalue estimates are Rayleigh quotients; each residual is
    || R x - lambda x || / || x ||, so an exact eigenvector gives 0.
    """
    nrm2 = inner_product(ket, ket).real
    if nrm2 == 0.0:
        raise ValueError("eigencheck needs a nonzero vector")
    out = []
    for apply_fn in (apply_r3, apply_r_squared):
        image = apply_fn(ket, geometry, k)
        lam = inner_product(ket, image).real / nrm2
        residual = (image - lam * ket).norm() / math.sqrt(nrm2)
        out.extend([lam, residual])
    return AngularMomentumCheck(*out)
