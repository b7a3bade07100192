"""Sparse labeled state vectors over a truncated atoms+field Hilbert space.

Each of N atoms occupies one of three levels: ``b`` (ground), ``c`` (storage)
or ``a`` (excited intermediate).  A basis label records which atoms sit in
``c`` and which in ``a`` (everyone else is in ``b``) together with the Fock
occupation of each tracked field mode.  States are dictionaries mapping such
labels to complex amplitudes; nothing dense over the full 3^N space is ever
materialized.

All state objects are treated as immutable: every operation returns a new
ket.  Amplitudes with magnitude below ``DROP_TOL`` are dropped on
construction so that kets stay genuinely sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

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

    def sites(self, level: str) -> tuple[int, ...]:
        """Increasing indices of the atoms in ``level`` ('b', 'c' or 'a')."""
        if level == "c":
            return self.c_sites
        if level == "a":
            return self.a_sites
        if level != "b":
            raise ValueError(f"unknown level {level!r}")
        excited = set(self.c_sites) | set(self.a_sites)
        return tuple(j for j in range(self.n_atoms) if j not in excited)

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


class SparseKet:
    """A sparse state vector: mapping from basis labels to amplitudes.

    Construction validates every label against the space and drops
    amplitudes below ``drop_tol``.  Kets support ``+``, ``-``, scalar ``*``
    and ``/``; use :func:`inner_product`, :func:`normalize` and
    :func:`fidelity` for metric operations.
    """

    __slots__ = ("space", "_entries")

    def __init__(self, space: StateSpace,
                 entries: Mapping[JointLabel, complex] | None = None,
                 drop_tol: float = DROP_TOL, _checked: bool = False):
        self.space = space
        data = {}
        if entries:
            for label, amp in entries.items():
                z = complex(amp)
                if abs(z) <= drop_tol:
                    continue
                if not _checked:
                    space.check_label(label)
                data[label] = z
        self._entries = data

    # -- basic queries ---------------------------------------------------

    @classmethod
    def zero(cls, space: StateSpace) -> "SparseKet":
        return cls(space, None, _checked=True)

    @classmethod
    def basis_state(cls, space: StateSpace, label: JointLabel) -> "SparseKet":
        return cls(space, {label: 1.0})

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def amplitude(self, label: JointLabel) -> complex:
        return self._entries.get(label, 0j)

    def items(self) -> Iterator[tuple[JointLabel, complex]]:
        """Entries in canonical (sorted-label) order."""
        for label in sorted(self._entries):
            yield label, self._entries[label]

    def labels(self) -> list[JointLabel]:
        return sorted(self._entries)

    def raw(self) -> Mapping[JointLabel, complex]:
        """Read-only view of the underlying mapping (do not mutate)."""
        return self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = sorted(self._entries.items(), key=lambda kv: -abs(kv[1]))[:4]
        body = " + ".join(f"({amp:.4g}){lbl}" for lbl, amp in terms)
        more = "" if len(self._entries) <= 4 else f" + {len(self._entries)-4} more"
        return f"SparseKet[{body or '0'}{more}]"

    # -- linear algebra ---------------------------------------------------

    def _require_same_space(self, other: "SparseKet") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"incompatible spaces: {self.space} vs {other.space}")

    def __add__(self, other: "SparseKet") -> "SparseKet":
        if not isinstance(other, SparseKet):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self._entries)
        for label, amp in other._entries.items():
            out[label] = out.get(label, 0j) + amp
        return SparseKet(self.space, out, _checked=True)

    def __sub__(self, other: "SparseKet") -> "SparseKet":
        if not isinstance(other, SparseKet):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self._entries)
        for label, amp in other._entries.items():
            out[label] = out.get(label, 0j) - amp
        return SparseKet(self.space, out, _checked=True)

    def __mul__(self, scalar: complex) -> "SparseKet":
        z = complex(scalar)
        return SparseKet(
            self.space, {l: a * z for l, a in self._entries.items()},
            _checked=True)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "SparseKet":
        return self * (1.0 / complex(scalar))

    def __neg__(self) -> "SparseKet":
        return self * (-1.0)

    def norm(self) -> float:
        return abs(sum(abs(a) ** 2 for _, a in self.items())) ** 0.5


def inner_product(x: SparseKet, y: SparseKet) -> complex:
    """Hermitian inner product <x|y>, accumulated in canonical label order.

    The canonical order makes the floating-point result independent of how
    either ket was assembled, so repeated runs are bit-identical.
    """
    if x.space != y.space:
        raise SpaceMismatchError(
            f"incompatible spaces: {x.space} vs {y.space}")
    xe, ye = x.raw(), y.raw()
    if len(ye) < len(xe):
        common = [l for l in ye if l in xe]
    else:
        common = [l for l in xe if l in ye]
    total = 0j
    for label in sorted(common):
        total += xe[label].conjugate() * ye[label]
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


def photon_expectation(x: SparseKet) -> float:
    """<x| total photon number |x> / <x|x> (0 for the zero vector)."""
    total = 0.0
    nn = 0.0
    for label, amp in x.items():
        w = abs(amp) ** 2
        total += w * sum(label.field)
        nn += w
    return total / nn if nn else 0.0


def level_population(x: SparseKet, level: str) -> float:
    """Mean number of atoms in ``level`` ('b', 'c' or 'a')."""
    if level not in ("b", "c", "a"):
        raise ValueError(f"unknown level {level!r}")
    total = 0.0
    nn = 0.0
    for label, amp in x.items():
        w = abs(amp) ** 2
        total += w * len(label.atoms.sites(level))
        nn += w
    return total / nn if nn else 0.0
