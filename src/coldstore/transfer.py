"""Resonant photon <-> collective-excitation transfer dynamics.

In the large-N limit the storage interaction reduces to two coupled boson
modes, H = Omega (a sigma^dag + a^dag sigma), whose Heisenberg evolution
rotates the creation operators into each other:

    a^dag(-t)     = a^dag cos(Omega t) - i sigma^dag sin(Omega t)
    sigma^dag(-t) = sigma^dag cos(Omega t) - i a^dag sin(Omega t)

``evolve_analytic`` applies that rotation in closed form to arbitrary
two-mode amplitude grids; ``evolve_numeric`` integrates the same two-boson
model numerically; ``evolve_exact_atoms`` integrates the true finite-N
atomic Hamiltonian so the bosonic idealization can be quantified.  Quarter
periods of the rotation swap the field and atomic contents up to phase
maps ("associate states"), which ``swap_check`` verifies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    FockOverflowError,
    IntegrationError,
    NotNormalizedError,
    SectorOverflowError,
)
from .geometry import Geometry
from .operators import apply_field, apply_sigma
from .propagate import (
    enumerate_sector,
    ket_to_vector,
    present_totals,
    rk4_propagate,
    sector_operator,
    step_grid,
    vector_to_ket,
)
from .states import SparseKet, StateSpace
from .storage import StorageSpec, storage_direct, vacuum, with_field_occupation


class BosonicState:
    """Amplitudes xi[m, n] over |m photons> |n collective excitations>.

    The grid shape fixes the caps: shape (P+1, Q+1) holds photon numbers
    0..P and excitation numbers 0..Q.  States are unit norm by contract.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, norm_tol: float = 1e-8):
        arr = np.array(amplitudes, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("amplitudes must be a 2-D grid")
        nrm = float(np.linalg.norm(arr))
        if not abs(nrm - 1.0) <= norm_tol:
            raise NotNormalizedError(
                f"bosonic state must be unit norm, got {nrm!r}")
        self.amplitudes = arr

    @property
    def photon_cap(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def excitation_cap(self) -> int:
        return self.amplitudes.shape[1] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def max_quanta(self) -> int:
        out = 0
        for m, n in zip(*np.nonzero(self.amplitudes)):
            out = max(out, int(m) + int(n))
        return out

    @classmethod
    def fock(cls, m: int, n: int, photon_cap: int | None = None,
             excitation_cap: int | None = None) -> "BosonicState":
        p = photon_cap if photon_cap is not None else m + n
        q = excitation_cap if excitation_cap is not None else m + n
        arr = np.zeros((p + 1, q + 1), dtype=complex)
        arr[m, n] = 1.0
        return cls(arr)

    @classmethod
    def from_product(cls, field_amps, atom_amps,
                     photon_cap: int | None = None,
                     excitation_cap: int | None = None) -> "BosonicState":
        f = np.asarray(field_amps, dtype=complex)
        a = np.asarray(atom_amps, dtype=complex)
        total = (len(f) - 1) + (len(a) - 1)
        p = photon_cap if photon_cap is not None else total
        q = excitation_cap if excitation_cap is not None else total
        arr = np.zeros((p + 1, q + 1), dtype=complex)
        arr[:len(f), :len(a)] = np.outer(f, a)
        return cls(arr)

    def overlap(self, other: "BosonicState") -> complex:
        p = min(self.amplitudes.shape[0], other.amplitudes.shape[0])
        q = min(self.amplitudes.shape[1], other.amplitudes.shape[1])
        # amplitudes outside the common window must vanish for the overlap
        # to be meaningful
        for arr, pp, qq in ((self.amplitudes, p, q), (other.amplitudes, p, q)):
            if np.any(np.abs(arr[pp:, :]) > 0) or np.any(np.abs(arr[:, qq:]) > 0):
                raise ValueError("states occupy incompatible grids")
        return complex(np.vdot(self.amplitudes[:p, :q], other.amplitudes[:p, :q]))

    def fidelity_with(self, other: "BosonicState") -> float:
        return abs(self.overlap(other)) ** 2


def _rotation_image(m: int, n: int, omega_t: float) -> dict[tuple[int, int], complex]:
    """Closed-form image of |m, n> under the two-boson rotation."""
    c = math.cos(omega_t)
    s = math.sin(omega_t)
    pref = 1.0 / math.sqrt(math.factorial(m) * math.factorial(n))
    out: dict[tuple[int, int], complex] = {}
    for j in range(m + 1):
        for l in range(n + 1):
            p = m - j + l
            q = n - l + j
            amp = (math.comb(m, j) * math.comb(n, l)
                   * c ** ((m - j) + (n - l)) * (-1j * s) ** (j + l)
                   * math.sqrt(math.factorial(p) * math.factorial(q)))
            if amp != 0:
                out[(p, q)] = out.get((p, q), 0j) + pref * amp
    return out


def evolve_analytic(state: BosonicState, omega_t: float) -> BosonicState:
    """Evolve by the closed-form bosonic rotation through angle Omega t."""
    arr = state.amplitudes
    total = state.max_quanta()
    if total > min(state.photon_cap, state.excitation_cap):
        raise FockOverflowError(
            f"evolution spreads {total} quanta across both modes; enlarge "
            f"the grid to at least ({total + 1}, {total + 1})")
    out = np.zeros_like(arr)
    for m, n in zip(*np.nonzero(arr)):
        for (p, q), amp in _rotation_image(int(m), int(n), omega_t).items():
            out[p, q] += arr[m, n] * amp
    return BosonicState(out)


def _two_boson_hamiltonian(photon_cap: int, excitation_cap: int,
                           rabi: float) -> np.ndarray:
    lower_f = np.diag(np.sqrt(np.arange(1, photon_cap + 1)), 1)
    lower_a = np.diag(np.sqrt(np.arange(1, excitation_cap + 1)), 1)
    return rabi * (np.kron(lower_f, lower_a.T.conj())
                   + np.kron(lower_f.T.conj(), lower_a))


def _transfer_step(rabi: float, quanta: int) -> float:
    """Largest RK4 step for Omega-scale transfer: 0.005 / (|Omega| max(1, quanta))."""
    if not math.isfinite(rabi):
        raise ValueError(f"rabi must be finite, got {rabi}")
    return 0.005 / (abs(rabi) * max(1, quanta)) if rabi else math.inf


def evolve_numeric(state: BosonicState, rabi: float, t: float) -> BosonicState:
    """Fixed-step integration of the ideal two-boson model (cross-check).

    Raises ``ValueError`` unless ``rabi`` is finite.
    """
    total = state.max_quanta()
    if total > min(state.photon_cap, state.excitation_cap):
        raise FockOverflowError("grid too small for the quanta present")
    dt, n_steps = step_grid(t, _transfer_step(rabi, total))
    h = _two_boson_hamiltonian(state.photon_cap, state.excitation_cap, rabi)
    vec = state.amplitudes.reshape(-1)
    out = rk4_propagate(h, vec, dt, n_steps)
    return BosonicState(out.reshape(state.amplitudes.shape))


def associate_state(amps, which: str) -> np.ndarray:
    """Apply the quarter-period phase map alpha_m -> (+-i)^m or (-1)^m alpha_m."""
    factors = {"i": 1j, "+i": 1j, "-i": -1j, "-": -1.0 + 0j}
    if which not in factors:
        raise ValueError(f"unknown associate-state tag {which!r}")
    a = np.asarray(amps, dtype=complex)
    return a * factors[which] ** np.arange(len(a))


def subsystem_purity(state: BosonicState) -> float:
    """Tr rho_field^2; 1 for products, < 1 when the modes are entangled."""
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    p2 = float(np.sum(sv ** 2))
    return float(np.sum(sv ** 4)) / (p2 * p2)


@dataclass(frozen=True)
class SwapCheckpoint:
    omega_t: float
    fidelity: float
    description: str


@dataclass(frozen=True)
class SwapReport:
    checkpoints: tuple[SwapCheckpoint, ...]

    @property
    def min_fidelity(self) -> float:
        return min(cp.fidelity for cp in self.checkpoints)

    def all_within(self, tol: float) -> bool:
        return all(cp.fidelity >= 1.0 - tol for cp in self.checkpoints)


_QUARTER = math.pi / 2.0

_CHECKPOINT_RULES = {
    # multiple of pi/2 -> (field source, atom source, phase tag, description)
    1: ("atom", "field", "-i", "contents swapped with (-i)^m phases"),
    2: ("field", "atom", "-", "contents kept with (-1)^m phases"),
    3: ("atom", "field", "i", "contents swapped with (+i)^m phases"),
    0: ("field", "atom", None, "full period returns the original"),
}


def expected_swap_state(field_amps, atom_amps, omega_t: float) -> BosonicState:
    """Product state predicted at a quarter-period checkpoint."""
    quarters = omega_t / _QUARTER
    nearest = round(quarters)
    if abs(quarters - nearest) > 1e-9:
        raise ValueError(
            f"Omega t = {omega_t} is not a quarter-period checkpoint")
    src = {"field": np.asarray(field_amps, dtype=complex),
           "atom": np.asarray(atom_amps, dtype=complex)}
    f_src, a_src, tag, _ = _CHECKPOINT_RULES[nearest % 4]
    f = src[f_src] if tag is None else associate_state(src[f_src], tag)
    a = src[a_src] if tag is None else associate_state(src[a_src], tag)
    total = (len(field_amps) - 1) + (len(atom_amps) - 1)
    return BosonicState.from_product(f, a, photon_cap=total,
                                     excitation_cap=total)


def swap_check(field_amps, atom_amps,
               omega_ts: Sequence[float] = (_QUARTER, 2 * _QUARTER,
                                            3 * _QUARTER, 4 * _QUARTER),
               ) -> SwapReport:
    """Evolve a product state and compare against the checkpoint predictions."""
    start = BosonicState.from_product(field_amps, atom_amps)
    checkpoints = []
    for omega_t in omega_ts:
        evolved = evolve_analytic(start, omega_t)
        expected = expected_swap_state(field_amps, atom_amps, omega_t)
        desc = _CHECKPOINT_RULES[round(omega_t / _QUARTER) % 4][3]
        checkpoints.append(SwapCheckpoint(
            omega_t=omega_t,
            fidelity=evolved.fidelity_with(expected),
            description=desc,
        ))
    return SwapReport(tuple(checkpoints))


# -- exact finite-N reference ----------------------------------------------

def transfer_space(n_atoms: int, total_quanta: int, k: float = 0.0) -> StateSpace:
    """One field mode plus storage-level atoms, sized for ``total_quanta``."""
    return StateSpace(
        n_atoms=n_atoms,
        n_exc_max=min(total_quanta, n_atoms),
        a_max=0,
        modes=(k,),
        mode_caps=(total_quanta,),
        photon_cap=total_quanta,
    )


def bosonic_to_joint(state: BosonicState, geometry: Geometry, k: float = 0.0,
                     space: StateSpace | None = None) -> SparseKet:
    """Map xi[m, n] to sum xi[m, n] |m> |n excitations at k> exactly."""
    arr = state.amplitudes
    n_atoms = geometry.n_atoms
    occupied_cols = sorted({int(n) for _, n in zip(*np.nonzero(arr))})
    if occupied_cols and occupied_cols[-1] > n_atoms:
        raise SectorOverflowError(
            f"{occupied_cols[-1]} excitations will not fit in {n_atoms} atoms")
    if space is None:
        space = transfer_space(n_atoms, state.max_quanta(), k)
    out = SparseKet.zero(space)
    for n in occupied_cols:
        if n == 0:
            atomic = vacuum(space)
        else:
            atomic = storage_direct(StorageSpec(geometry, ((k, n),)), space=space)
        for m in range(arr.shape[0]):
            amp = arr[m, n]
            if amp != 0:
                out = out + amp * with_field_occupation(atomic, (m,))
    return out


def _apply_transfer_hamiltonian(ket: SparseKet, geometry: Geometry, k: float,
                                rabi: float) -> SparseKet:
    # Lowering factors first so that states at a cap annihilate cleanly
    # instead of tripping the overflow guard.
    term1 = apply_sigma(apply_field(ket, 0), geometry, k, dagger=True)
    term2 = apply_field(apply_sigma(ket, geometry, k), 0, dagger=True)
    return rabi * (term1 + term2)


def evolve_exact_atoms(initial: SparseKet, rabi: float, t: float,
                       geometry: Geometry, k: float = 0.0,
                       norm_drift_tol: float = 1e-8) -> SparseKet:
    """Integrate the finite-N transfer Hamiltonian Omega(a sigma^dag + h.c.).

    The non-ideal reference against :func:`evolve_analytic`: collective
    raising loses sqrt(1 - n/N) factors that the bosonic idealization
    ignores, so the two drift apart at order n/N.  Raises ``ValueError``
    unless ``rabi`` is finite, even at ``t = 0``.
    """
    space = initial.space
    if space.n_modes != 1:
        raise ValueError("transfer dynamics tracks exactly one field mode")
    totals = present_totals(initial)
    dt_max = _transfer_step(rabi, max(totals, default=0))
    if t == 0.0 or not totals:
        return initial
    basis = enumerate_sector(space, totals)
    index = {label: i for i, label in enumerate(basis)}
    h = sector_operator(
        lambda ket: _apply_transfer_hamiltonian(ket, geometry, k, rabi),
        space, basis)
    dt, n_steps = step_grid(t, dt_max)
    psi = rk4_propagate(h, ket_to_vector(initial, index), dt, n_steps)
    drift = abs(float(np.linalg.norm(psi)) - initial.norm())
    if not drift <= norm_drift_tol:     # NaN fails this too
        raise IntegrationError(
            f"norm drifted by {drift:.3g} over {n_steps} steps of {dt:.3g}")
    return vector_to_ket(space, basis, psi)


def exact_vs_analytic_deviation(state: BosonicState, geometry: Geometry,
                                rabi: float, t: float, k: float = 0.0) -> float:
    """|| exact finite-N evolution - mapped bosonic closed form ||."""
    joint0 = bosonic_to_joint(state, geometry, k)
    exact = evolve_exact_atoms(joint0, rabi, t, geometry, k)
    ideal = evolve_analytic(state, rabi * t)
    mapped = bosonic_to_joint(ideal, geometry, k, space=joint0.space)
    return (exact - mapped).norm()


def transfer_curve(state: BosonicState, omega_ts) -> list[dict]:
    """Fidelity-with-initial and field purity along a rotation-angle grid."""
    rows = []
    for omega_t in omega_ts:
        evolved = evolve_analytic(state, float(omega_t))
        rows.append({
            "omega_t": float(omega_t),
            "fidelity_initial": evolved.fidelity_with(state),
            "purity": subsystem_purity(evolved),
        })
    return rows


def write_transfer_csv(rows: list[dict], path) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["omega_t", "fidelity_initial",
                                           "purity"])
        w.writeheader()
        for row in rows:
            w.writerow({k: f"{v:.12g}" for k, v in row.items()})
