"""Collective atomic operators applied to integer-coded kets.

Every collective transition is one phased sum of single-atom level changes;
no matrix over the full Hilbert space is ever formed.  The operators act on
a :class:`CodedKet`, a ket (or one ket per column of an operator) held as
integer arrays: per entry a column, the photon number of each tracked mode,
the sites of the atoms in c and in a, and an amplitude.  Each primitive is
one numpy kernel over all entries at once.  ``_flip`` marks the atoms in
level ``src`` on a boolean plane, moves each one to ``dst`` by taking its
site out of one site list and putting it into the other, and weights the
move with the phase e^{+i k z_j} when it goes up the level order b < c < a
and e^{-i k z_j} when it goes down; ``_ladder`` shifts one mode's photon
number and ``_count`` counts the atoms of a level.  Equal targets are merged
after one stable sort, so each target sums its terms in (source label, atom
j) order, as a dict of kets would.  A :class:`SparseKet` is encoded and
decoded once per ``apply_*`` call.  With N atoms at positions z_j and
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FockOverflowError, SectorOverflowError, SpaceMismatchError
from .geometry import Geometry
from .states import (
    DROP_TOL,
    AtomConfig,
    JointLabel,
    SparseKet,
    StateSpace,
    inner_product,
)


_LEVELS = ("b", "c", "a")


class CodedKet:
    """A ket, or one ket per column of an operator, as integer arrays.

    Entry r has column ``cols[r]`` of ``n_cols``, photon numbers
    ``field[r]``, amplitude ``amps[r]`` and site digits ``sites[r]``: j + 1
    for each atom j in c, increasing and padded with 0 to
    ``space.n_exc_max`` digits, then the same for a, padded to
    ``space.a_max``.  Read as digits after the column, the entries strictly
    increase; within a column that is the order of :meth:`SparseKet.items`.
    Amplitudes at or below ``DROP_TOL`` are dropped, as in a SparseKet.
    Supports ``+`` and ``-`` with a coded ket of the same columns, ``+``
    with the zero SparseKet, and scalar ``*``.
    """

    __slots__ = ("space", "n_cols", "cols", "field", "sites", "amps")
    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    def __init__(self, space: StateSpace, n_cols: int, cols, field, sites,
                 amps):
        keep = np.abs(amps) > DROP_TOL
        if not keep.all():
            cols, field, sites, amps = (x[keep] for x in
                                        (cols, field, sites, amps))
        self.space, self.n_cols = space, n_cols
        self.cols, self.field, self.sites, self.amps = cols, field, sites, amps

    @classmethod
    def encode(cls, space: StateSpace, labels, amps, cols=None,
               n_cols: int = 1) -> "CodedKet":
        """Entries of ``labels``, in label order within each column."""
        kc, ka = space.n_exc_max, space.a_max
        pad_c = [(-1,) * (kc - i) for i in range(kc + 1)]
        pad_a = [(-1,) * (ka - i) for i in range(ka + 1)]
        sites = [c + pad_c[len(c)] + a + pad_a[len(a)]
                 for _n, c, a in (label.atoms for label in labels)]
        n = len(sites)
        # room above the largest digit: 0 - 1 must wrap past every site
        digit = np.min_scalar_type(max([space.n_atoms + 1,
                                        *space.mode_caps]))
        return cls(space, n_cols,
                   np.zeros(n, np.uint8) if cols is None else cols,
                   np.array([label.field for label in labels],
                            dtype=digit).reshape(n, space.n_modes),
                   (np.array(sites, dtype=np.intp).reshape(n, kc + ka)
                    + 1).astype(digit),
                   np.array(amps, dtype=complex))

    def labels(self) -> list[JointLabel]:
        n_atoms, kc = self.space.n_atoms, self.space.n_exc_max
        return [JointLabel(tuple(f), AtomConfig(
                    n_atoms, tuple(d - 1 for d in s[:kc] if d),
                    tuple(d - 1 for d in s[kc:] if d)))
                for f, s in zip(self.field.tolist(), self.sites.tolist())]

    def decode(self) -> SparseKet:
        """The SparseKet of a one-column coded ket."""
        return SparseKet(self.space, dict(zip(self.labels(),
                                              self.amps.tolist())),
                         _checked=True)

    def find(self, labels: "CodedKet") -> np.ndarray:
        """Index of each entry's label among the entries of ``labels``
        (distinct labels in label order), or -1 where it is not there."""
        n = len(labels)
        keys = _keys(self.space, np.concatenate([labels.field, self.field]),
                     np.concatenate([labels.sites, self.sites]))
        order = np.lexsort(keys)    # stable: a label sorts before its equals
        mine = order >= n
        at = np.empty(len(self), dtype=np.intp)
        at[order[mine] - n] = (np.cumsum(~mine) - 1)[mine]
        found = at >= 0
        for key in keys:
            found &= key[n:] == key[np.maximum(at, 0)]
        return np.where(found, at, -1)

    def __len__(self) -> int:
        return len(self.amps)

    def __add__(self, other: "CodedKet") -> "CodedKet":
        if not isinstance(other, CodedKet):
            return NotImplemented
        if (self.space, self.n_cols) != (other.space, other.n_cols):
            raise SpaceMismatchError(
                f"incompatible coded kets: {self.space}, {self.n_cols} "
                f"columns vs {other.space}, {other.n_cols} columns")
        return _merge(self.space, self.n_cols, *(
            np.concatenate(pair) for pair in zip(
                (self.cols, self.field, self.sites, self.amps),
                (other.cols, other.field, other.sites, other.amps))))

    def __radd__(self, other: SparseKet) -> "CodedKet":
        # the zero SparseKet that a sum of terms starts from
        if isinstance(other, SparseKet) and not other \
                and other.space == self.space:
            return self
        return NotImplemented

    def __sub__(self, other: "CodedKet") -> "CodedKet":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "CodedKet":
        return CodedKet(self.space, self.n_cols, self.cols, self.field,
                        self.sites, _times(self.amps, complex(scalar)))

    __rmul__ = __mul__


def _occupied(sites: np.ndarray) -> np.ndarray:
    """Atoms per entry in a block of site digits (0 marks no atom)."""
    return (sites > 0).sum(axis=1)


def _times(amps: np.ndarray, coeffs) -> np.ndarray:
    """amps * coeffs, rounded as Python's complex product (no fused
    multiply-add), so that a coded ket and a SparseKet agree bit for bit."""
    out = np.empty_like(amps)
    out.real = amps.real * coeffs.real - amps.imag * coeffs.imag
    out.imag = amps.real * coeffs.imag + amps.imag * coeffs.real
    return out


def _keys(space: StateSpace, field, sites, cols=None,
          n_cols: int = 1) -> list[np.ndarray]:
    """Labels, after their columns if given, as int64 keys, least
    significant first as ``np.lexsort`` takes them.  The digits (column,
    photon numbers, sites) are packed most significant first, as many per
    key as stay below 2**63."""
    digits = ([] if cols is None else [(cols, n_cols)]) \
        + [(m, cap + 1) for m, cap in zip(field.T, space.mode_caps)] \
        + [(d, space.n_atoms + 1) for d in sites.T]
    keys, weight = [np.zeros(len(sites), dtype=np.int64)], 1
    for digit, radix in reversed(digits):
        if weight * radix >= 2 ** 63:
            keys.append(np.zeros(len(sites), dtype=np.int64))
            weight = 1
        keys[-1] += digit.astype(np.int64) * weight
        weight *= radix
    return keys


def _merge(space: StateSpace, n_cols: int, cols, field, sites,
           amps) -> CodedKet:
    """The coded ket of these entries: sorted by column and label, with
    the amplitudes of equal ones summed in the order given."""
    keys = _keys(space, field, sites, cols, n_cols)
    order = np.lexsort(keys)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    while keys:
        key = keys.pop()[order]
        first[1:] |= key[1:] != key[:-1]
    group = np.cumsum(first) - 1
    summed = np.empty(np.count_nonzero(first), dtype=complex)
    summed.real = np.bincount(group, amps.real[order], len(summed))
    summed.imag = np.bincount(group, amps.imag[order], len(summed))
    take = order[first]
    del order, group
    return CodedKet(space, n_cols, cols[take], field[take], sites[take],
                    summed)


def _flip(ket: CodedKet, geometry: Geometry, k: float, src: str, dst: str,
          scale: float) -> CodedKet:
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


def _on_coded(kernel):
    """Run ``kernel`` on a CodedKet as it is, or on a SparseKet encoded once
    and decoded once."""
    @functools.wraps(kernel)
    def apply(ket, *args, **kwargs):
        if isinstance(ket, CodedKet):
            return kernel(ket, *args, **kwargs)
        labels, amps = zip(*ket.items()) if ket else ((), ())
        return kernel(CodedKet.encode(ket.space, labels, amps), *args,
                      **kwargs).decode()
    return apply


@_on_coded
def apply_sigma(ket: SparseKet, geometry: Geometry, k: float,
                dagger: bool = False) -> SparseKet:
    """Apply the collective b<->c lowering operator sigma(k) (or its adjoint)."""
    src, dst = ("b", "c") if dagger else ("c", "b")
    return _flip(ket, geometry, k, src, dst, math.sqrt(ket.space.n_atoms))


@_on_coded
def apply_rho_ab(ket: SparseKet, geometry: Geometry, k: float,
                 dagger: bool = False) -> SparseKet:
    """b -> a promotion density rho_ab(k); the adjoint demotes a -> b."""
    src, dst = ("a", "b") if dagger else ("b", "a")
    return _flip(ket, geometry, k, src, dst, ket.space.n_atoms)


@_on_coded
def apply_rho_ac(ket: SparseKet, geometry: Geometry, k: float,
                 dagger: bool = False) -> SparseKet:
    """c -> a promotion density rho_ac(k); the adjoint demotes a -> c."""
    src, dst = ("a", "c") if dagger else ("c", "a")
    return _flip(ket, geometry, k, src, dst, ket.space.n_atoms)


@_on_coded
def apply_population(ket: SparseKet, level: str) -> SparseKet:
    """Diagonal operator counting atoms in 'b', 'c' or 'a'."""
    if level not in _LEVELS:
        raise ValueError(f"unknown level {level!r}")
    kc = ket.space.n_exc_max
    count = {"b": ket.space.n_atoms - _occupied(ket.sites),
             "c": _occupied(ket.sites[:, :kc]),
             "a": _occupied(ket.sites[:, kc:])}[level]
    rows = np.flatnonzero(count)
    return CodedKet(ket.space, ket.n_cols, ket.cols[rows], ket.field[rows],
                    ket.sites[rows], ket.amps[rows] * count[rows])


@_on_coded
def apply_field(ket: SparseKet, mode_index: int, dagger: bool = False) -> SparseKet:
    """Photon annihilation (or creation) on one tracked field mode."""
    space = ket.space
    if not 0 <= mode_index < space.n_modes:
        raise ValueError(f"no tracked mode with index {mode_index}")
    occ = ket.field[:, mode_index]
    if dagger and (np.any(occ >= space.mode_caps[mode_index]) or np.any(
            ket.field.sum(axis=1) >= space.total_photon_cap)):
        raise FockOverflowError(
            f"creation on mode {mode_index} exceeds its Fock cap")
    rows = np.arange(len(ket)) if dagger else np.flatnonzero(occ)
    field = ket.field[rows]
    field[:, mode_index] = occ[rows] + 1 if dagger else occ[rows] - 1
    # sqrt(m + 1) up, sqrt(m) down: the larger of the two occupations
    coeff = np.sqrt(np.maximum(occ[rows], field[:, mode_index]), dtype=float)
    return CodedKet(space, ket.n_cols, ket.cols[rows], field,
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


# -- uniform operator handle ----------------------------------------------

# kind -> (apply(ket, geometry, k), adjoint kind).  Entries look the module
# functions up by name at call time, so rebinding those names reaches them.
_KINDS = {
    "sigma": (lambda x, g, k: apply_sigma(x, g, k), "sigma_dagger"),
    "sigma_dagger": (lambda x, g, k: apply_sigma(x, g, k, dagger=True), "sigma"),
    "rho_ab": (lambda x, g, k: apply_rho_ab(x, g, k), "rho_ab_dagger"),
    "rho_ab_dagger": (lambda x, g, k: apply_rho_ab(x, g, k, dagger=True), "rho_ab"),
    "rho_ac": (lambda x, g, k: apply_rho_ac(x, g, k), "rho_ac_dagger"),
    "rho_ac_dagger": (lambda x, g, k: apply_rho_ac(x, g, k, dagger=True), "rho_ac"),
    "pop_b": (lambda x, g, k: apply_population(x, "b"), "pop_b"),
    "pop_c": (lambda x, g, k: apply_population(x, "c"), "pop_c"),
    "pop_a": (lambda x, g, k: apply_population(x, "a"), "pop_a"),
    "r1": (lambda x, g, k: apply_r1(x, g, k), "r1"),
    "r2": (lambda x, g, k: apply_r2(x, g, k), "r2"),
    "r3": (lambda x, g, k: apply_r3(x, g, k), "r3"),
    "r_squared": (lambda x, g, k: apply_r_squared(x, g, k), "r_squared"),
}


@dataclass(frozen=True)
class CollectiveOperator:
    """A named collective operator bound to a geometry and wavevector."""

    kind: str
    geometry: Geometry
    wavevector: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        needs_k = not self.kind.startswith("pop_")
        if needs_k and self.wavevector is None:
            raise ValueError(f"operator kind {self.kind!r} needs a wavevector")
        if not needs_k and self.wavevector is not None:
            raise ValueError(f"operator kind {self.kind!r} takes no wavevector")

    def adjoint(self) -> "CollectiveOperator":
        return CollectiveOperator(_KINDS[self.kind][1], self.geometry,
                                  self.wavevector)

    def apply(self, ket: SparseKet) -> SparseKet:
        return _KINDS[self.kind][0](ket, self.geometry, self.wavevector)


def commutator_matrix_element(op_a: CollectiveOperator, op_b: CollectiveOperator,
                              x: SparseKet, y: SparseKet) -> complex:
    """<x| [A, B] |y> evaluated by two operator applications per ordering."""
    ab = op_a.apply(op_b.apply(y))
    ba = op_b.apply(op_a.apply(y))
    return inner_product(x, ab) - inner_product(x, ba)


def sigma_commutator_element(geometry: Geometry, k: float, k_prime: float,
                             x: SparseKet, y: SparseKet) -> complex:
    """<x| [sigma(k), sigma_dagger(k')] |y> convenience wrapper."""
    op_a = CollectiveOperator("sigma", geometry, k)
    op_b = CollectiveOperator("sigma_dagger", geometry, k_prime)
    return commutator_matrix_element(op_a, op_b, x, y)


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
