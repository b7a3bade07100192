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

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import (
    ColdstoreError,
    FockOverflowError,
    NotNormalizedError,
    SectorOverflowError,
    SpaceMismatchError,
    ZeroNormError,
)

DROP_TOL = 1e-15
# How far the norm of a state that must have unit norm may stray from 1.
_NORM_TOL = 1e-8
# Entries from which SparseKet.norm works on arrays, not in a Python loop:
# the array form costs about 8 us plus 40 ns an entry against 0.13-0.19 us
# an entry for the loop (2-core VM, Python 3.11, numpy 2.4), so it wins from
# about 64 entries.
_NORM_ARRAY_MIN = 64


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
        cfg = cls(n_atoms, tuple(sorted(c_sites)), tuple(sorted(a_sites)))
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


def _joint_space(n_atoms: int, modes, n_quanta: int,
                 a_max: int | None = None) -> StateSpace:
    """Field ``modes`` plus atoms, each mode, the atoms and (unless ``a_max``
    caps it) the excited level sized to hold all ``n_quanta`` quanta."""
    if n_quanta < 0:
        raise ValueError("n_quanta must be nonnegative")
    n_exc = min(n_quanta, n_atoms)
    return StateSpace(
        n_atoms=n_atoms,
        n_exc_max=n_exc,
        a_max=n_exc if a_max is None else a_max,
        modes=tuple(modes),
        mode_caps=(n_quanta,) * len(modes),
        photon_cap=n_quanta,
    )


# -- the integer code of a ket --------------------------------------------------

def _digit_type(space: StateSpace) -> np.dtype:
    """The integer type of a space's photon numbers and site digits."""
    # room above the largest digit: 0 - 1 must wrap past every site
    return np.min_scalar_type(max([space.n_atoms + 1, *space.mode_caps]))


def _combinations(n: int, r: int) -> np.ndarray:
    """The r-subsets of range(n), lexicographic, as a (C(n, r), r) array."""
    count = math.comb(n, r)
    return np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(n), r)), dtype=np.intp, count=count * r).reshape(count, r)


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


def _in_order(keys: list[np.ndarray]) -> bool:
    """True when the entries of these :func:`_keys` are in order and none
    repeats: one packed key holds each label and it strictly increases.
    Labels that take more than one key always answer False."""
    return len(keys) == 1 and bool((keys[0][1:] > keys[0][:-1]).all())


def _merge(space: StateSpace, n_cols: int, cols, field, sites,
           amps) -> "SparseKet":
    """The ket of these entries: sorted by column and label, with the
    amplitudes of equal ones summed in the order given.

    Entries that :func:`_in_order` finds in order are kept as given, with
    no sort and no sum; adding 0.0 turns a -0.0 part into the +0.0 that
    the sum leaves, so both paths give the same bits.  Everything else
    goes through ``np.lexsort``."""
    keys = _keys(space, field, sites, cols, n_cols)
    if _in_order(keys):
        return SparseKet._of(space, n_cols, cols, field, sites, amps + 0.0)
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


def _kept(amps: np.ndarray, label_at) -> np.ndarray:
    """The mask of the amplitudes whose modulus is above ``DROP_TOL``, the
    one drop rule of every ket.  An amplitude with a NaN or infinite part
    raises ColdstoreError naming ``label_at(i)``, its label; one whose
    parts are finite but whose modulus overflows is kept.  Only a modulus
    that is not finite, which the largest shows, costs a second look."""
    moduli = np.abs(amps)
    if len(amps) and not math.isfinite(moduli.max()):
        bad = np.flatnonzero(~np.isfinite(amps))
        if len(bad):
            raise ColdstoreError(f"amplitude {amps[bad[0]]} of label "
                                 f"{label_at(bad[0])} is not finite")
    return moduli > DROP_TOL


def _finite(scalar) -> complex:
    """``scalar`` as a complex; ColdstoreError naming it if a part is NaN
    or infinite."""
    scalar = complex(scalar)
    if not cmath.isfinite(scalar):
        raise ColdstoreError(f"scalar {scalar} is not finite")
    return scalar


class SparseKet:
    """A sparse state vector, held as integer-coded arrays.

    Entry r has the photon number of each tracked mode in ``field[r]``, an
    amplitude ``amps[r]`` and site digits ``sites[r]``: j + 1 for each atom
    j in c, increasing and padded with 0 to ``space.n_exc_max`` digits, then
    the same for a, padded to ``space.a_max``.  Read as digits, the entries
    strictly increase, and that is the order of their labels, so
    :meth:`items` needs no sort.

    Every ket drops the amplitudes whose modulus is at or below
    ``DROP_TOL`` and refuses one with a NaN or infinite part (ColdstoreError
    naming its label); construction from a label -> amplitude mapping
    then validates each label kept against the space (unless ``_checked``).
    Kets support ``+``, ``-``, scalar ``*`` and ``/``; use
    :func:`inner_product`, :func:`normalize` and :func:`fidelity` for
    metric operations.

    A ket may also hold one ket per column of an operator: entry r then
    lies in column ``cols[r]`` of ``n_cols``, and the entries increase by
    column first; a sector of :func:`~coldstore.propagate.enumerate_sector`
    holds label i in column i.  The empty one-column ket is the zero of
    every column count.
    """

    __slots__ = ("space", "n_cols", "cols", "field", "sites", "amps")
    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    def __init__(self, space: StateSpace,
                 entries: Mapping[JointLabel, complex] | None = None,
                 _checked: bool = False):
        entries = entries or {}
        amps = np.array([complex(amp) for amp in entries.values()], complex)
        keep = _kept(amps, lambda i: list(entries)[i])
        labels, amps = list(itertools.compress(entries, keep)), amps[keep]
        if not _checked:
            for label in labels:
                space.check_label(label)
        kc, ka, n = space.n_exc_max, space.a_max, len(amps)
        pad_c = [(-1,) * (kc - i) for i in range(kc + 1)]
        pad_a = [(-1,) * (ka - i) for i in range(ka + 1)]
        field = np.array([f for f, _atoms in labels],
                         dtype=_digit_type(space)).reshape(n, space.n_modes)
        # site digits j + 1: a padding -1 becomes the 0 that marks no atom
        sites = (np.array([c + pad_c[len(c)] + a + pad_a[len(a)]
                           for _field, (_n, c, a) in labels], dtype=np.intp)
                 .reshape(n, kc + ka) + 1).astype(field.dtype)
        order = np.lexsort(_keys(space, field, sites))
        self.space, self.n_cols = space, 1
        self.cols = np.zeros(len(amps), dtype=np.uint8)
        self.field, self.sites = field[order], sites[order]
        self.amps = amps[order]

    @classmethod
    def _of(cls, space: StateSpace, n_cols: int, cols, field, sites,
            amps) -> "SparseKet":
        """The ket of entries already in order, less those at or below
        ``DROP_TOL``; raises as :func:`_kept` does."""
        ket = cls.__new__(cls)
        ket.space, ket.n_cols = space, n_cols
        ket.cols, ket.field, ket.sites, ket.amps = cols, field, sites, amps
        keep = _kept(amps, lambda i: ket.labels()[i])
        if not keep.all():
            ket.cols, ket.field, ket.sites, ket.amps = (
                x[keep] for x in (cols, field, sites, amps))
        return ket

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
        """Index of each entry's label among the entries of ``labels``
        (distinct labels in label order, such as a sector), or -1 where it
        is not there.  Raises SpaceMismatchError unless both share a space.

        Where one packed key holds a label, each is a binary search
        (``np.searchsorted``) in the keys of ``labels``; otherwise both
        kets are lexsorted together."""
        if self.space != labels.space:
            raise SpaceMismatchError(
                f"incompatible spaces: {self.space} vs {labels.space}")
        n = len(labels)
        ref = _keys(self.space, labels.field, labels.sites)
        own = _keys(self.space, self.field, self.sites)
        if len(ref) == 1:
            at = np.searchsorted(ref[0], own[0])
            found = at < n
            found[found] = ref[0][at[found]] == own[0][found]
            return np.where(found, at, -1)
        keys = [np.concatenate(pair) for pair in zip(ref, own)]
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
        # a product past the float range is refused by _kept, by its label
        with np.errstate(over="ignore", invalid="ignore"):
            amps = _times(self.amps, _finite(scalar))
        return SparseKet._of(self.space, self.n_cols, self.cols, self.field,
                             self.sites, amps)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "SparseKet":
        return self * (1.0 / _finite(scalar))

    def __neg__(self) -> "SparseKet":
        return self * (-1.0)

    def norm(self) -> float:
        """sqrt(sum |amp|^2), the squares added left to right (as sum()
        adds before Python 3.12), and to the bit the same on every path.

        From ``_NORM_ARRAY_MIN`` entries on it takes the loop's operations
        on arrays: C ``hypot``, as ``abs()`` of a complex is, C ``pow``, as
        ``** 2`` is (an array exponent takes no square shortcut), and
        ``cumsum``, which adds in order.  Shorter kets, and any whose sum
        is not finite, go through the Python loop, which raises its
        ``OverflowError`` where a modulus or a square leaves the float
        range."""
        amps = self.amps
        if len(amps) >= _NORM_ARRAY_MIN:
            with np.errstate(over="ignore"):
                moduli = np.hypot(amps.real, amps.imag)
                total = float(np.cumsum(np.float_power(
                    moduli, np.full(len(moduli), 2.0)))[-1])
            if math.isfinite(total):
                return total ** 0.5
        total = 0.0
        for amp in amps.tolist():
            total += abs(amp) ** 2
        return total ** 0.5


def inner_product(x: SparseKet, y: SparseKet) -> complex:
    """Hermitian inner product <x|y>, accumulated in canonical label order.

    The canonical order makes the floating-point result independent of how
    either ket was assembled, so repeated runs are bit-identical.
    """
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


def fidelity(x: SparseKet, y: SparseKet) -> float:
    """|<x|y>|^2 for two *normalized* kets.

    Unnormalized input is an error, never silently renormalized: callers
    must decide explicitly how to treat non-unit states.
    """
    for name, ket in (("x", x), ("y", y)):
        n = ket.norm()
        if not abs(n - 1.0) <= _NORM_TOL:
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
