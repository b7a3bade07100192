"""Collective storage states built two independent ways.

A storage state holds n atomic excitations distributed symmetrically over
all N atoms, with a spatial phase per excitation.  The *direct* route
enumerates every configuration of excited atoms (and, for several modes,
every distinct assignment of modes to the chosen atoms) and writes the
amplitudes down explicitly.  The *ladder* route applies collective raising
operators to the vacuum.  The two agree exactly; keeping both is the point,
because each one cross-checks the other and every normalization factor is
measured rather than assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroNormError
from .geometry import Geometry
from .operators import apply_sigma
from .states import (
    SparseKet,
    StateSpace,
    _combinations,
    _digit_type,
    _merge,
    _times,
    atomic_space,
    normalize,
)


@dataclass(frozen=True)
class StorageSpec:
    """What to build: geometry plus (wavevector, occupation) per mode."""

    geometry: Geometry
    modes: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("need at least one (wavevector, occupation) pair")
        ks = [k for k, _ in self.modes]
        if len(set(ks)) != len(ks):
            raise ValueError("storage wavevectors must be distinct")
        if any(m < 1 for _, m in self.modes):
            raise ValueError("every mode occupation must be >= 1")
        if self.n_total > self.geometry.n_atoms:
            raise ValueError(
                f"{self.n_total} excitations will not fit in "
                f"{self.geometry.n_atoms} atoms")

    @property
    def n_total(self) -> int:
        return sum(m for _, m in self.modes)

    @property
    def occupations(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.modes)


def vacuum(space: StateSpace) -> SparseKet:
    """All atoms in the ground level, every tracked mode empty."""
    zeros = np.zeros((1, space.n_modes + space.n_exc_max + space.a_max),
                     dtype=_digit_type(space))
    return SparseKet._of(space, 1, np.zeros(1, dtype=np.uint8),
                         *np.hsplit(zeros, [space.n_modes]), np.ones(1, complex))


def with_field_occupation(ket: SparseKet, occupations) -> SparseKet:
    """Set the field slots of every entry (product construction helper);
    entries that come to share a label are summed."""
    occ = tuple(occupations)
    ket.space.label(field=occ)      # the atoms of each entry are already valid
    field = np.empty_like(ket.field)
    field[:] = occ
    return _merge(ket.space, ket.n_cols, ket.cols, field, ket.sites, ket.amps)


def falling_factorial(n: int, k: int) -> float:
    """n (n-1) ... (n-k+1), as a float (1.0 for k = 0)."""
    out = 1.0
    for i in range(k):
        out *= n - i
    return out


def asymptotic_coefficient(n_atoms: int, occupations) -> float:
    """sqrt(prod_i m_i! / (N (N-1) ... (N-n+1))) with n = sum m_i."""
    n = sum(occupations)
    num = 1.0
    for m in occupations:
        num *= math.factorial(m)
    return math.sqrt(num / falling_factorial(n_atoms, n))


def ladder_prefactor(n_atoms: int, occupations) -> float:
    """Analytic norm of the raw raising-operator product on the vacuum.

    Exact for a single mode; for several modes it is the leading
    (cross-term-free) value, which the audit compares against measurement.
    """
    n = sum(occupations)
    num = 1.0
    for m in occupations:
        num *= math.factorial(m)
    return math.sqrt(falling_factorial(n_atoms, n) / n_atoms ** n * num)


def _distinct_assignments(items):
    """Distinct permutations of a multiset, in lexicographic order."""
    def rec(remaining, prefix):
        if not remaining:
            yield tuple(prefix)
            return
        seen = set()
        for i, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            yield from rec(remaining[:i] + remaining[i + 1:], prefix + [v])

    yield from rec(sorted(items), [])


def _direct_ket(spec: StorageSpec, space: StateSpace) -> SparseKet:
    """The unnormalized storage state: one entry per choice of the n
    excited atoms, in the label order ``_combinations`` lists them, each
    the sum of the phase factors of its distinct mode assignments.  Raises
    ``ValueError`` unless the geometry has the atoms of ``space``, and like
    :meth:`StateSpace.check_label` if n excitations break its caps."""
    geom, n = spec.geometry, spec.n_total
    if geom.n_atoms != space.n_atoms:
        raise ValueError(
            f"geometry has {geom.n_atoms} atoms, space has {space.n_atoms}")
    space.label(c_sites=range(n))       # the caps, checked once
    combos = _combinations(geom.n_atoms, n)
    positions = np.array(geom.positions)[combos]
    total = np.zeros(len(combos), dtype=complex)
    for pattern in _distinct_assignments(
            [k for k, m in spec.modes for _ in range(m)]):
        # atom by atom, as the float sum 0.0 + k z_i + k' z_j + ...
        phase = sum((k * positions[:, i] for i, k in enumerate(pattern)),
                    np.zeros(len(combos)))
        total.real += np.cos(phase)
        total.imag += np.sin(phase)
    sites = np.zeros((len(combos), space.n_exc_max + space.a_max),
                     dtype=_digit_type(space))
    sites[:, :n] = combos + 1
    alpha = asymptotic_coefficient(geom.n_atoms, spec.occupations)
    return SparseKet._of(space, 1, np.zeros(len(combos), dtype=np.uint8),
                         np.zeros((len(combos), space.n_modes), sites.dtype),
                         sites, _times(total, complex(alpha)))


def storage_direct(spec: StorageSpec, space: StateSpace | None = None,
                   normalized: bool = True) -> SparseKet:
    """Build the storage state by explicit configuration enumeration.

    With ``normalized=True`` (default) the result is numerically
    normalized; a single mode is already exactly normalized, while several
    modes carry cross terms quantified by :func:`normalization_audit`.
    ``normalized=False`` returns the raw coefficient-scaled sum.
    """
    if space is None:
        space = atomic_space(spec.geometry.n_atoms, spec.n_total)
    ket = _direct_ket(spec, space)
    if not normalized:
        return ket
    out, _ = normalize(ket)
    return out


def storage_ladder(spec: StorageSpec, space: StateSpace | None = None,
                   ) -> tuple[SparseKet, float]:
    """Build the storage state by repeated collective raising from vacuum.

    Returns ``(normalized_state, raw_norm)`` where ``raw_norm`` is the norm
    of the bare operator product on the vacuum, to be compared against
    :func:`ladder_prefactor`.
    """
    if space is None:
        space = atomic_space(spec.geometry.n_atoms, spec.n_total)
    ket = vacuum(space)
    for k, m in spec.modes:
        for _ in range(m):
            ket = apply_sigma(ket, spec.geometry, k, dagger=True)
    if not ket:
        raise ZeroNormError("raising-operator product annihilated the vacuum")
    return normalize(ket)


@dataclass(frozen=True)
class NormalizationAudit:
    """Measured vs. analytic normalization of a multimode storage state.

    ``raw_norm_sq`` is the squared norm of the coefficient-scaled state as
    assembled by :func:`storage_direct`;  ``oracle_norm_sq`` recomputes it
    by brute-force double summation over assignment pairs, split into the
    ``leading_term`` (exactly 1 by construction of the coefficient) and the
    phase-dependent ``cross_term``.
    """

    coefficient: float
    raw_norm_sq: float
    oracle_norm_sq: float
    leading_term: float
    cross_term: float

    @property
    def deviation_from_unity(self) -> float:
        return self.raw_norm_sq - 1.0

    @property
    def routes_agree(self) -> float:
        return abs(self.raw_norm_sq - self.oracle_norm_sq)


def normalization_audit(spec: StorageSpec) -> NormalizationAudit:
    """Quantify how far the coefficient-scaled state is from unit norm."""
    geom = spec.geometry
    n = spec.n_total
    space = atomic_space(geom.n_atoms, n)
    ket = storage_direct(spec, space, normalized=False)
    raw_norm_sq = ket.norm() ** 2

    # Independent route: per configuration, deduplicate raw permutations
    # into distinct assignments, then expand |sum_l e^{i phi_l}|^2 as the
    # diagonal count plus the explicit double sum over l != j.
    mode_multiset = [k for k, m in spec.modes for _ in range(m)]
    alpha_sq = asymptotic_coefficient(geom.n_atoms, spec.occupations) ** 2
    patterns = sorted(set(itertools.permutations(mode_multiset)))
    leading = 0.0
    cross = 0.0
    for combo in itertools.combinations(range(geom.n_atoms), n):
        phases = []
        for pattern in patterns:
            phi = 0.0      # left to right, as sum() adds before Python 3.12
            for idx, k in zip(combo, pattern):
                phi += k * geom.positions[idx]
            phases.append(complex(math.cos(phi), math.sin(phi)))
        leading += alpha_sq * len(phases)
        for l in range(len(phases)):
            for j in range(len(phases)):
                if l != j:
                    cross += alpha_sq * (phases[l] * phases[j].conjugate()).real
    return NormalizationAudit(
        coefficient=math.sqrt(alpha_sq),
        raw_norm_sq=raw_norm_sq,
        oracle_norm_sq=leading + cross,
        leading_term=leading,
        cross_term=cross,
    )
