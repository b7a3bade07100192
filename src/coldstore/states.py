"""Sparse labeled state vectors over a truncated atoms+field Hilbert space.

Each of N atoms occupies one of three levels: ``b`` (ground), ``c`` (storage)
or ``a`` (excited intermediate).  A basis label records which atoms sit in
``c`` and which in ``a`` (everyone else is in ``b``) together with the Fock
occupation of each tracked field mode.  A state holds its labels as integer
arrays (the photon numbers and the sites of the c and a atoms, one row per
label, in label order) beside an array of complex amplitudes; nothing dense
over the full 3^N space is ever materialized.

All state objects are treated as immutable: every operation returns a new
ket.  Amplitudes with magnitude below ``DROP_TOL`` are dropped on
construction so that kets stay genuinely sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import (
    FockOverflowError,
    NotNormalizedError,
    SectorOverflowError,
    SpaceMismatchError,
    ZeroNormError,
)

DROP_TOL = 1e-15


class AtomConfig(NamedTuple):
    """Which atoms are in the storage level and which in the excited level.

    ``c_sites`` and ``a_sites`` are strictly increasing tuples of 0-based
    atom indices; atoms in neither tuple are in the ground level ``b``.
    Use :meth:`make` to build a validated, canonically sorted instance.
    """

    n_atoms: int
    c_sites: tuple[int, ...]
    a_sites: tuple[int, ...] = ()

    @classmethod
    def make(cls, n_atoms: int, c_sites: Iterable[int] = (),
             a_sites: Iterable[int] = ()) -> "AtomConfig":
        c = tuple(sorted(c_sites))
        a = tuple(sorted(a_sites))
        cfg = cls(n_atoms, c, a)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.n_atoms < 1:
            raise ValueError(f"need at least one atom, got {self.n_atoms}")
        for name, sites in (("c", self.c_sites), ("a", self.a_sites)):
            if any(j < 0 or j >= self.n_atoms for j in sites):
                raise ValueError(f"{name}-site index out of range in {sites}")
            if any(sites[i] >= sites[i + 1] for i in range(len(sites) - 1)):
                raise ValueError(f"{name}-sites not strictly increasing: {sites}")
        if set(self.c_sites) & set(self.a_sites):
            raise ValueError("an atom cannot be in both c and a")

    @property
    def n_c(self) -> int:
        return len(self.c_sites)

    @property
    def n_a(self) -> int:
        return len(self.a_sites)

    @property
    def n_excited(self) -> int:
        """Total atoms outside the ground level."""
        return len(self.c_sites) + len(self.a_sites)

    def levels(self) -> str:
        """Per-atom level tags, e.g. ``'bcb'`` for atom 1 in storage."""
        tags = ["b"] * self.n_atoms
        for j in self.c_sites:
            tags[j] = "c"
        for j in self.a_sites:
            tags[j] = "a"
        return "".join(tags)


class JointLabel(NamedTuple):
    """One basis label: field occupations plus an atomic configuration."""

    field: tuple[int, ...]
    atoms: AtomConfig

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.field:
            return f"|{','.join(map(str, self.field))};{self.atoms.levels()}>"
        return f"|{self.atoms.levels()}>"


@dataclass(frozen=True)
class StateSpace:
    """Truncation metadata: atom count, sector caps, tracked field modes.

    Parameters
    ----------
    n_atoms:
        Number of atoms N.
    n_exc_max:
        Cap on the atomic excitation count n_c + n_a.
    a_max:
        Cap on the number of atoms in the excited intermediate level.
    modes:
        Identifying tag (detuning / wavevector offset) of each tracked field
        mode.  Two kets are compatible only if their spaces agree exactly,
        tags included.
    mode_caps:
        Per-mode Fock truncation, parallel to ``modes``.
    photon_cap:
        Cap on the total photon number across modes (default: sum of the
        per-mode caps).
    """

    n_atoms: int
    n_exc_max: int
    a_max: int = 0
    modes: tuple[float, ...] = ()
    mode_caps: tuple[int, ...] = ()
    photon_cap: int | None = None

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")
        if not 0 <= self.n_exc_max <= self.n_atoms:
            raise ValueError("need 0 <= n_exc_max <= n_atoms")
        if not 0 <= self.a_max <= self.n_exc_max:
            raise ValueError("need 0 <= a_max <= n_exc_max")
        if len(self.modes) != len(self.mode_caps):
            raise ValueError("modes and mode_caps must have equal length")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode tags must be distinct")
        if any(cap < 0 for cap in self.mode_caps):
            raise ValueError("mode caps must be nonnegative")
        if self.photon_cap is not None and self.photon_cap < 0:
            raise ValueError("photon_cap must be nonnegative")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def total_photon_cap(self) -> int:
        if self.photon_cap is None:
            return sum(self.mode_caps)
        return min(self.photon_cap, sum(self.mode_caps))

    def mode_index(self, tag: float) -> int:
        try:
            return self.modes.index(tag)
        except ValueError:
            raise SpaceMismatchError(
                f"mode {tag!r} is not tracked by this space (modes={self.modes})"
            ) from None

    def check_label(self, label: JointLabel) -> None:
        """Raise if ``label`` does not belong to this space."""
        atoms = label.atoms
        atoms.validate()
        if atoms.n_atoms != self.n_atoms:
            raise SpaceMismatchError(
                f"label has {atoms.n_atoms} atoms, space has {self.n_atoms}")
        if atoms.n_excited > self.n_exc_max:
            raise SectorOverflowError(
                f"{atoms.n_excited} atomic excitations exceed the sector cap "
                f"{self.n_exc_max}")
        if atoms.n_a > self.a_max:
            raise SectorOverflowError(
                f"{atoms.n_a} excited-level atoms exceed the cap {self.a_max}")
        if len(label.field) != self.n_modes:
            raise SpaceMismatchError(
                f"label has {len(label.field)} field slots, space tracks "
                f"{self.n_modes} modes")
        for i, m in enumerate(label.field):
            if m < 0 or m > self.mode_caps[i]:
                raise FockOverflowError(
                    f"occupation {m} of mode {i} outside [0, {self.mode_caps[i]}]")
        if sum(label.field) > self.total_photon_cap:
            raise FockOverflowError(
                f"total photon number {sum(label.field)} exceeds the cap "
                f"{self.total_photon_cap}")

    def label(self, c_sites: Iterable[int] = (), a_sites: Iterable[int] = (),
              field: Iterable[int] | None = None) -> JointLabel:
        """Build and validate a basis label of this space."""
        occ = tuple(field) if field is not None else (0,) * self.n_modes
        lbl = JointLabel(occ, AtomConfig.make(self.n_atoms, c_sites, a_sites))
        self.check_label(lbl)
        return lbl


def atomic_space(n_atoms: int, n_exc_max: int, a_max: int = 0) -> StateSpace:
    """Space with no tracked field modes (pure atomic states)."""
    return StateSpace(n_atoms=n_atoms, n_exc_max=n_exc_max, a_max=a_max)




# -- the integer code of a ket --------------------------------------------------

def _encode(space: StateSpace, labels) -> tuple[np.ndarray, np.ndarray]:
    """(field, sites) digits of a list of (field, atoms) labels, in the
    order given; :class:`SparseKet` says what the digits are."""
    kc, ka = space.n_exc_max, space.a_max
    pad_c = [(-1,) * (kc - i) for i in range(kc + 1)]
    pad_a = [(-1,) * (ka - i) for i in range(ka + 1)]
    sites = [c + pad_c[len(c)] + a + pad_a[len(a)]
             for _field, (_n, c, a) in labels]
    n = len(sites)
    # room above the largest digit: 0 - 1 must wrap past every site
    digit = np.min_scalar_type(max([space.n_atoms + 1, *space.mode_caps]))
    return (np.array([f for f, _atoms in labels],
                     dtype=digit).reshape(n, space.n_modes),
            (np.array(sites, dtype=np.intp).reshape(n, kc + ka)
             + 1).astype(digit))


def _occupied(sites: np.ndarray) -> np.ndarray:
    """Atoms per entry in a block of site digits (0 marks no atom)."""
    return (sites > 0).sum(axis=1)


def _level_count(ket: "SparseKet", level: str) -> np.ndarray:
    """Atoms in ``level`` ('b', 'c' or 'a') of each entry of ``ket``."""
    kc = ket.space.n_exc_max
    if level == "c":
        return _occupied(ket.sites[:, :kc])
    if level == "a":
        return _occupied(ket.sites[:, kc:])
    if level != "b":
        raise ValueError(f"unknown level {level!r}")
    return ket.space.n_atoms - _occupied(ket.sites)


def _times(amps: np.ndarray, coeffs) -> np.ndarray:
    """amps * coeffs, rounded as Python's complex product (no fused
    multiply-add), so that ket arithmetic rounds as scalar arithmetic."""
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
           amps) -> "SparseKet":
    """The ket of these entries: sorted by column and label, with the
    amplitudes of equal ones summed in the order given."""
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
    return SparseKet._of(space, n_cols, cols[take], field[take], sites[take],
                         summed)


class SparseKet:
    """A sparse state vector, held as integer-coded arrays.

    Entry r has the photon number of each tracked mode in ``field[r]``, an
    amplitude ``amps[r]`` and site digits ``sites[r]``: j + 1 for each atom
    j in c, increasing and padded with 0 to ``space.n_exc_max`` digits, then
    the same for a, padded to ``space.a_max``.  Read as digits, the entries
    strictly increase, and that is the order of their labels, so
    :meth:`items` needs no sort.

    Construction from a label -> amplitude mapping validates every label
    against the space (unless ``_checked``) and drops amplitudes at or below
    ``drop_tol``; every other ket drops those at or below ``DROP_TOL``.
    Kets support ``+``, ``-``, scalar ``*`` and ``/``; use
    :func:`inner_product`, :func:`normalize` and :func:`fidelity` for
    metric operations.

    Inside the package a ket may also hold one ket per column of an
    operator: entry r then lies in column ``cols[r]`` of ``n_cols``, and the
    entries increase by column first.  The empty one-column ket is the zero
    of every column count.
    """

    __slots__ = ("space", "n_cols", "cols", "field", "sites", "amps")
    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    def __init__(self, space: StateSpace,
                 entries: Mapping[JointLabel, complex] | None = None,
                 drop_tol: float = DROP_TOL, _checked: bool = False):
        labels, amps = [], []
        for label, amp in (entries or {}).items():
            z = complex(amp)
            if abs(z) <= drop_tol:
                continue
            if not _checked:
                space.check_label(label)
            labels.append(label)
            amps.append(z)
        field, sites = _encode(space, labels)
        order = np.lexsort(_keys(space, field, sites))
        self.space, self.n_cols = space, 1
        self.cols = np.zeros(len(amps), dtype=np.uint8)
        self.field, self.sites = field[order], sites[order]
        self.amps = np.array(amps, dtype=complex)[order]

    @classmethod
    def _of(cls, space: StateSpace, n_cols: int, cols, field, sites,
            amps) -> "SparseKet":
        """The ket of entries already in order, less those at or below
        ``DROP_TOL``."""
        keep = np.abs(amps) > DROP_TOL
        if not keep.all():
            cols, field, sites, amps = (x[keep] for x in
                                        (cols, field, sites, amps))
        ket = cls.__new__(cls)
        ket.space, ket.n_cols = space, n_cols
        ket.cols, ket.field, ket.sites, ket.amps = cols, field, sites, amps
        return ket

    @classmethod
    def _columns(cls, space: StateSpace, labels) -> "SparseKet":
        """One column per label: column i holds label i at amplitude 1."""
        n = len(labels)
        return cls._of(space, n, np.arange(n, dtype=np.min_scalar_type(n)),
                       *_encode(space, labels), np.ones(n, dtype=complex))

    # -- basic queries ---------------------------------------------------

    @classmethod
    def zero(cls, space: StateSpace) -> "SparseKet":
        return cls(space, None, _checked=True)

    @classmethod
    def basis_state(cls, space: StateSpace, label: JointLabel) -> "SparseKet":
        return cls(space, {label: 1.0})

    def __len__(self) -> int:
        return len(self.amps)

    def amplitude(self, label: JointLabel) -> complex:
        """Amplitude of ``label``, a JointLabel or a plain (field, atoms)
        pair; 0j if the ket holds no such label, also outside the space.
        Decodes the ket per call: for many lookups, take :meth:`raw` once."""
        return self.raw().get(label, 0j)

    def find(self, labels: "SparseKet") -> np.ndarray:
        """Index of each entry's label among the entries of ``labels`` (a
        one-column ket: distinct labels in label order), or -1 where it is
        not there."""
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

    def items(self) -> Iterator[tuple[JointLabel, complex]]:
        """Entries in canonical (sorted-label) order."""
        return zip(self.labels(), self.amps.tolist())

    def labels(self) -> list[JointLabel]:
        n_atoms, kc = self.space.n_atoms, self.space.n_exc_max
        return [JointLabel(tuple(f), AtomConfig(
                    n_atoms, tuple(d - 1 for d in s[:kc] if d),
                    tuple(d - 1 for d in s[kc:] if d)))
                for f, s in zip(self.field.tolist(), self.sites.tolist())]

    def raw(self) -> dict[JointLabel, complex]:
        """A fresh label -> amplitude dict of the entries, built per call."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = sorted(self.items(), key=lambda kv: -abs(kv[1]))[:4]
        body = " + ".join(f"({amp:.4g}){lbl}" for lbl, amp in terms)
        more = "" if len(self) <= 4 else f" + {len(self)-4} more"
        return f"SparseKet[{body or '0'}{more}]"

    # -- linear algebra ---------------------------------------------------

    def __add__(self, other: "SparseKet") -> "SparseKet":
        if not isinstance(other, SparseKet):
            return NotImplemented
        if self.space != other.space:
            raise SpaceMismatchError(
                f"incompatible spaces: {self.space} vs {other.space}")
        if not self and self.n_cols == 1:
            return other
        if not other and other.n_cols == 1:
            return self
        if self.n_cols != other.n_cols:
            raise SpaceMismatchError(
                f"kets of {self.n_cols} and {other.n_cols} columns")
        return _merge(self.space, self.n_cols, *(
            np.concatenate(pair) for pair in zip(
                (self.cols, self.field, self.sites, self.amps),
                (other.cols, other.field, other.sites, other.amps))))

    def __sub__(self, other: "SparseKet") -> "SparseKet":
        if not isinstance(other, SparseKet):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "SparseKet":
        return SparseKet._of(self.space, self.n_cols, self.cols, self.field,
                             self.sites, _times(self.amps, complex(scalar)))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "SparseKet":
        return self * (1.0 / complex(scalar))

    def __neg__(self) -> "SparseKet":
        return self * (-1.0)

    def norm(self) -> float:
        return abs(sum(abs(a) ** 2 for a in self.amps.tolist())) ** 0.5


def inner_product(x: SparseKet, y: SparseKet) -> complex:
    """Hermitian inner product <x|y>, accumulated in canonical label order.

    The canonical order makes the floating-point result independent of how
    either ket was assembled, so repeated runs are bit-identical.
    """
    if x.space != y.space:
        raise SpaceMismatchError(
            f"incompatible spaces: {x.space} vs {y.space}")
    at = x.find(y)
    common = np.flatnonzero(at >= 0)
    total = 0j
    for a, b in zip(x.amps[common].tolist(), y.amps[at[common]].tolist()):
        total += a.conjugate() * b
    return total


def normalize(x: SparseKet) -> tuple[SparseKet, float]:
    """Return (x/||x||, ||x||); raise ZeroNormError on the zero vector."""
    n = x.norm()
    if n == 0.0:
        raise ZeroNormError("cannot normalize the zero vector")
    return x * (1.0 / n), n


def fidelity(x: SparseKet, y: SparseKet, norm_tol: float = 1e-8) -> float:
    """|<x|y>|^2 for two *normalized* kets.

    Unnormalized input is an error, never silently renormalized: callers
    must decide explicitly how to treat non-unit states.
    """
    for name, ket in (("x", x), ("y", y)):
        n = ket.norm()
        if not abs(n - 1.0) <= norm_tol:
            raise NotNormalizedError(
                f"fidelity requires unit norm, but ||{name}|| = {n!r}")
    return abs(inner_product(x, y)) ** 2


def _mean(x: SparseKet, counts: np.ndarray) -> float:
    """sum |amp|^2 count / sum |amp|^2 over the entries in label order (0
    for the zero vector)."""
    total = 0.0
    nn = 0.0
    for amp, count in zip(x.amps.tolist(), counts.tolist()):
        w = abs(amp) ** 2
        total += w * count
        nn += w
    return total / nn if nn else 0.0


def photon_expectation(x: SparseKet) -> float:
    """<x| total photon number |x> / <x|x> (0 for the zero vector)."""
    return _mean(x, x.field.sum(axis=1, dtype=np.intp))


def level_population(x: SparseKet, level: str) -> float:
    """Mean number of atoms in ``level`` ('b', 'c' or 'a')."""
    return _mean(x, _level_count(x, level))
