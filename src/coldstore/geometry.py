"""Atom positions, collective phase sums, and mode bookkeeping.

Positions are dimensionless (measured in units of the lattice spacing d;
wavevectors are then k*d).  The only physical-units entry point is
:func:`mode_spacing_estimate`, which works in whatever consistent length
unit the caller supplies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Geometry:
    """Positions z_j of N atoms inside a box of length L.

    Invariants: 0 <= z_j < L for every atom.  ``spacing`` is the nominal
    inter-atomic distance d used in condition ratios (exact for a lattice,
    the mean L/N otherwise).
    """

    positions: tuple[float, ...]
    length: float
    spacing: float = 1.0
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        if not self.positions:
            raise ValueError("geometry needs at least one atom")
        if self.length <= 0 or self.spacing <= 0:
            raise ValueError("length and spacing must be positive")
        for z in self.positions:
            if not 0.0 <= z < self.length:
                raise ValueError(
                    f"position {z} outside [0, {self.length})")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @classmethod
    def lattice(cls, n_atoms: int, spacing: float = 1.0) -> "Geometry":
        """Regular lattice z_j = (j-1) d, j = 1..N, box length L = N d."""
        z = tuple(j * spacing for j in range(n_atoms))
        return cls(z, length=n_atoms * spacing, spacing=spacing, kind="lattice")

    @classmethod
    def uniform_random(cls, n_atoms: int, length: float, seed: int) -> "Geometry":
        """N positions drawn uniformly in [0, L) with a recorded seed."""
        rng = np.random.default_rng(seed)
        z = tuple(sorted(float(v) for v in rng.uniform(0.0, length, n_atoms)))
        return cls(z, length=length, spacing=length / n_atoms,
                   kind="uniform-random", seed=seed)

    @classmethod
    def from_positions(cls, positions, length: float | None = None,
                       spacing: float = 1.0) -> "Geometry":
        z = tuple(float(v) for v in positions)
        if length is None:
            length = max(z) + spacing
        return cls(z, length=length, spacing=spacing, kind="custom")

    @classmethod
    def from_file(cls, path, length: float | None = None,
                  spacing: float = 1.0) -> "Geometry":
        """Read one position per line (blank lines and '#' comments ignored)."""
        z = []
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                z.append(float(line))
        if not z:
            raise ValueError(f"no positions found in {path}")
        g = cls.from_positions(z, length=length, spacing=spacing)
        return g

    def phases(self, k: float) -> np.ndarray:
        """exp(i k z_j) for all atoms, as a numpy array."""
        return np.exp(1j * k * np.asarray(self.positions))


def phase_sum(geometry: Geometry, k: float) -> complex:
    """Direct summation of sum_j exp(i k z_j)."""
    return complex(geometry.phases(k).sum())


def lattice_phase_sum_closed(n_atoms: int, k: float, spacing: float = 1.0) -> complex:
    """Geometric closed form of the lattice phase sum.

    Equals (1 - e^{i k N d}) / (1 - e^{i k d}), with the k d = 2 pi m branch
    evaluating to N.
    """
    kd = k * spacing
    denom = 1.0 - cmath.exp(1j * kd)
    if abs(denom) < 1e-12:
        return complex(n_atoms)
    return (1.0 - cmath.exp(1j * kd * n_atoms)) / denom


def continuum_phase_sum(n_atoms: int, k: float, length: float) -> complex:
    """Uniform-density limit N (e^{i k L} - 1) / (i k L); N at k = 0."""
    x = k * length
    if x == 0.0:
        return complex(n_atoms)
    return n_atoms * (cmath.exp(1j * x) - 1.0) / (1j * x)


@dataclass(frozen=True)
class PhaseSumReport:
    """Direct phase sum next to its analytic cross-checks."""

    k: float
    direct: complex
    lattice_closed: complex | None
    continuum: complex


def phase_sum_crosscheck(geometry: Geometry, k: float) -> PhaseSumReport:
    closed = None
    if geometry.kind == "lattice":
        closed = lattice_phase_sum_closed(geometry.n_atoms, k, geometry.spacing)
    return PhaseSumReport(
        k=k,
        direct=phase_sum(geometry, k),
        lattice_closed=closed,
        continuum=continuum_phase_sum(geometry.n_atoms, k, geometry.length),
    )


def mode_spacing_estimate(wavelength: float, length: float) -> float:
    """Wavelength separation lambda^2 / (2 pi L) of resolvable field modes.

    Any consistent length unit works; the result carries the same unit.
    """
    if wavelength <= 0 or length <= 0:
        raise ValueError("wavelength and length must be positive")
    return wavelength ** 2 / (2.0 * math.pi * length)


@dataclass(frozen=True)
class ModeSet:
    """Signal/control wavevectors plus the tracked signal detunings q.

    ``transition`` selects how the two-photon process imprints atomic
    phase: ``"raman"`` stores at k_eff = k_signal + q - k_control,
    ``"cascade"`` at k_eff = k_signal + q + k_control.
    """

    k_signal: float
    k_control: float
    detunings: tuple[float, ...] = (0.0,)
    transition: str = "raman"

    def __post_init__(self):
        if self.transition not in ("raman", "cascade"):
            raise ValueError(f"unknown transition scheme {self.transition!r}")
        if len(set(self.detunings)) != len(self.detunings):
            raise ValueError("detunings must be distinct")

    def k_eff(self, q: float) -> float:
        """Atomic storage wavevector for signal detuning q."""
        if self.transition == "raman":
            return self.k_signal + q - self.k_control
        return self.k_signal + q + self.k_control

    def signal_wavevector(self, q: float) -> float:
        return self.k_signal + q

    def omega(self, q: float) -> float:
        """Free-evolution frequency of mode q (units with c = 1)."""
        return q


@dataclass(frozen=True)
class ModeConditionRecord:
    q: float
    wavelength_over_spacing: float
    ok: bool


@dataclass(frozen=True)
class PairConditionRecord:
    q_low: float
    q_high: float
    dk: float
    dk_times_length: float
    residual: float        # |phase_sum(dk)| / N achieved by this geometry
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    """Quantified validity of the collective-boson description.

    Three families of checks: excitation dilution (N against the intended
    excitation cap), wavelength resolution (lambda and L against the atomic
    spacing), and mode distinguishability (|k - k'| L per mode pair, with
    the actually-achieved phase-sum residual recorded alongside).
    """

    n_atoms: int
    excitation_ratio: float
    excitation_ok: bool
    length_over_spacing: float
    length_ok: bool
    mode_records: tuple[ModeConditionRecord, ...]
    pair_records: tuple[PairConditionRecord, ...]

    @property
    def all_ok(self) -> bool:
        return (self.excitation_ok and self.length_ok
                and all(r.ok for r in self.mode_records)
                and all(r.ok for r in self.pair_records))


def check_mode_conditions(geometry: Geometry, modes: ModeSet, n_max: int,
                          min_ratio: float = 10.0) -> ConditionReport:
    """Quantify every validity ratio; each passes at ``min_ratio`` or above."""
    n = geometry.n_atoms
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    excitation_ratio = n / n_max
    mode_records = []
    for q in modes.detunings:
        k = modes.signal_wavevector(q)
        lam = math.inf if k == 0 else 2.0 * math.pi / abs(k)
        ratio = lam / geometry.spacing
        mode_records.append(ModeConditionRecord(
            q=q, wavelength_over_spacing=ratio, ok=ratio >= min_ratio))
    pair_records = []
    ds = modes.detunings
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            dk = abs(modes.k_eff(ds[j]) - modes.k_eff(ds[i]))
            dkl = dk * geometry.length
            residual = abs(phase_sum(geometry, dk)) / n
            pair_records.append(PairConditionRecord(
                q_low=ds[i], q_high=ds[j], dk=dk, dk_times_length=dkl,
                residual=residual, ok=dkl >= min_ratio))
    return ConditionReport(
        n_atoms=n,
        excitation_ratio=excitation_ratio,
        excitation_ok=excitation_ratio >= min_ratio,
        length_over_spacing=geometry.length / geometry.spacing,
        length_ok=geometry.length / geometry.spacing >= min_ratio,
        mode_records=tuple(mode_records),
        pair_records=tuple(pair_records),
    )
