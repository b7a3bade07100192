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
import itertools
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
from .operators import _check_creation, apply_field, apply_sigma
from .propagate import (
    SparseOperator,
    enumerate_sector,
    ket_to_vector,
    plus_adjoint,
    present_totals,
    rk4_propagate,
    sector_operator,
    step_grid,
    vector_to_ket,
)
from .states import (DROP_TOL, _NORM_TOL, SparseKet, StateSpace,
                     _joint_space, _level_count, _merge, _times)
from .storage import StorageSpec, storage_direct, vacuum


class BosonicState:
    """Amplitudes xi[m, n] over |m photons> |n collective excitations>.

    The grid shape fixes the caps: shape (P+1, Q+1) holds photon numbers
    0..P and excitation numbers 0..Q.  States are unit norm by contract.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("amplitudes must be a 2-D grid")
        nrm = float(np.linalg.norm(arr))
        if not abs(nrm - 1.0) <= _NORM_TOL:
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
        return int(max((m + n for m, n in zip(*np.nonzero(self.amplitudes))),
                       default=0))

    @classmethod
    def fock(cls, m: int, n: int, photon_cap: int | None = None,
             excitation_cap: int | None = None) -> "BosonicState":
        """|m, n>: ``ValueError`` if m or n is negative, and like
        :meth:`from_product` if one lies past its cap."""
        if m < 0 or n < 0:
            raise ValueError(f"occupations must be nonnegative, got ({m}, {n})")
        return cls.from_product(np.eye(m + 1)[m], np.eye(n + 1)[n],
                                photon_cap, excitation_cap)

    @classmethod
    def from_product(cls, field_amps, atom_amps,
                     photon_cap: int | None = None,
                     excitation_cap: int | None = None) -> "BosonicState":
        """FockOverflowError if an amplitude list runs past its cap."""
        f = np.asarray(field_amps, dtype=complex)
        a = np.asarray(atom_amps, dtype=complex)
        total = (len(f) - 1) + (len(a) - 1)
        p = photon_cap if photon_cap is not None else total
        q = excitation_cap if excitation_cap is not None else total
        if len(f) - 1 > p or len(a) - 1 > q:
            raise FockOverflowError(
                f"amplitudes up to ({len(f) - 1}, {len(a) - 1}) quanta run "
                f"past the photon and excitation caps ({p}, {q})")
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


def rotation_grids(state: BosonicState, omega_ts) -> np.ndarray:
    """The grids of ``state`` rotated through each angle of ``omega_ts``,
    stacked (K, P+1, Q+1): |m, n> goes to sum_{j, l} C(m, j) C(n, l)
    c^(m-j+n-l) (-i s)^(j+l) sqrt(p! q! / (m! n!)) |p, q>, p = m - j + l,
    q = n - l + j.  Each term is one array over the angles, summed in
    (j, l), then (m, n) order and rounded as the same Python scalars, so a
    grid does not depend on the other angles of the call."""
    total = state.max_quanta()
    if total > min(state.photon_cap, state.excitation_cap):
        raise FockOverflowError(
            f"evolution spreads {total} quanta across both modes; enlarge "
            f"the grid to at least ({total + 1}, {total + 1})")
    arr, powers = state.amplitudes, range(total + 1)
    angles = [(math.cos(x), -1j * math.sin(x)) for x in map(float, omega_ts)]
    # c^a and the nonzero part of (-i s)^b, raised as Python raises scalars
    c_pow = np.array([[c ** e for e in powers] for c, _z in angles])
    z_pow = np.array([[(z ** e).imag if e % 2 else (z ** e).real
                       for e in powers] for _c, z in angles])
    c_pow, z_pow = (t.reshape(-1, total + 1) for t in (c_pow, z_pow))
    out = np.zeros((len(angles),) + arr.shape, dtype=complex)
    for m, n in zip(*(i.tolist() for i in np.nonzero(arr))):
        pairs = list(itertools.product(range(m + 1), range(n + 1)))
        j, l = np.array(pairs).T
        terms = ([math.comb(m, a) * math.comb(n, b) for a, b in pairs]
                 * c_pow[:, m - j + n - l] * z_pow[:, j + l]
                 * [math.sqrt(math.factorial(m - a + b)
                              * math.factorial(n - b + a)) for a, b in pairs]
                 * (1.0 / math.sqrt(math.factorial(m) * math.factorial(n)))
                 ).reshape(-1, m + 1, n + 1)
        sums = np.zeros((len(angles), m + n + 1))   # by d = l - j, j ascending
        for a in range(m + 1):
            sums[:, m - a:m - a + n + 1] += terms[:, a]
        # odd j + l, so odd d, makes an image imaginary: the i joins xi[m, n]
        d, xi = np.arange(-m, n + 1), complex(arr[m, n])
        out[:, m + d, n - d] += sums * np.where(d % 2, xi * 1j, xi)
    return out


def evolve_analytic(state: BosonicState, omega_t: float) -> BosonicState:
    """Evolve by the closed-form bosonic rotation through angle Omega t."""
    return BosonicState(rotation_grids(state, [omega_t])[0])


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


def subsystem_purity(states: BosonicState | Sequence[BosonicState]
                     | np.ndarray) -> float | np.ndarray:
    """Tr rho_field^2; 1 for products, < 1 when the modes are entangled.
    A float for one state, an array for states of one grid shape or their
    (K, P+1, Q+1) stack, one state a stack of one.  With A a grid and
    G = A A^dagger (one stacked matmul), Tr rho_field^2 is
    ||G||_F^2 / (Tr G)^2, so no LAPACK routine is called."""
    single = isinstance(states, BosonicState)
    grids = states if isinstance(states, np.ndarray) else np.stack(
        [s.amplitudes for s in ([states] if single else states)])
    gram = grids @ grids.conj().swapaxes(-1, -2)
    trace = np.trace(gram, axis1=-2, axis2=-1).real
    purities = (gram.real ** 2 + gram.imag ** 2).sum(axis=(-2, -1)) \
        / (trace * trace)
    return float(purities[0]) if single else purities


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


def swap_check(field_amps, atom_amps) -> SwapReport:
    """Evolve a product state through the four quarter periods and compare
    against the checkpoint predictions."""
    omega_ts = [n * _QUARTER for n in range(1, 5)]
    grids = rotation_grids(BosonicState.from_product(field_amps, atom_amps),
                           omega_ts)
    return SwapReport(tuple(SwapCheckpoint(
        omega_t=omega_t,
        fidelity=abs(complex(np.vdot(grid, expected_swap_state(
            field_amps, atom_amps, omega_t).amplitudes))) ** 2,
        description=_CHECKPOINT_RULES[round(omega_t / _QUARTER) % 4][3],
    ) for omega_t, grid in zip(omega_ts, grids)))


# -- exact finite-N reference ----------------------------------------------

def transfer_space(n_atoms: int, total_quanta: int, k: float = 0.0) -> StateSpace:
    """One field mode plus storage-level atoms, sized for ``total_quanta``."""
    return _joint_space(n_atoms, (k,), total_quanta, a_max=0)


def bosonic_to_joint(state: BosonicState, geometry: Geometry, k: float = 0.0,
                     space: StateSpace | None = None) -> SparseKet:
    """Map xi[m, n] to sum xi[m, n] |m> |n excitations at k> exactly, each
    nonzero xi[m, n] a block of labels, merged once.  Raises
    SectorOverflowError for n > N, FockOverflowError for m past a cap."""
    arr, n_atoms = state.amplitudes, geometry.n_atoms
    ms, ns = (i.tolist() for i in np.nonzero(arr))
    if max(ns) > n_atoms:
        raise SectorOverflowError(
            f"{max(ns)} excitations will not fit in {n_atoms} atoms")
    if space is None:
        space = transfer_space(n_atoms, state.max_quanta(), k)
    space.label(field=(max(ms),))       # every occupation, checked once
    atomic = {n: storage_direct(StorageSpec(geometry, ((k, n),)),
                                space=space) if n else vacuum(space)
              for n in sorted(set(ns))}
    blocks = [atomic[n] for n in ns]
    sizes = [len(block) for block in blocks]
    return _merge(space, 1, np.zeros(sum(sizes), dtype=np.uint8),
                  np.repeat(ms, sizes).astype(blocks[0].field.dtype)[:, None],
                  np.concatenate([b.sites for b in blocks]),
                  np.concatenate([_times(b.amps, complex(arr[m, n]))
                                  for b, m, n in zip(blocks, ms, ns)]))


def _apply_transfer_hamiltonian(ket: SparseKet, geometry: Geometry, k: float,
                                rabi: float) -> SparseKet:
    # Lowering factors first so that states at a cap annihilate cleanly
    # instead of tripping the overflow guard.
    term1 = apply_sigma(apply_field(ket, 0), geometry, k, dagger=True)
    term2 = apply_field(apply_sigma(ket, geometry, k), 0, dagger=True)
    return rabi * (term1 + term2)


def _transfer_operator(basis: SparseKet, geometry: Geometry, k: float,
                       rabi: float) -> SparseOperator:
    """:func:`_apply_transfer_hamiltonian` on the sector ``basis``,
    compiled as T + T^dag with its cap refusals, as
    :func:`evolve_exact_atoms` says."""
    space = basis.space
    hopping = sector_operator(
        lambda ket: rabi * apply_sigma(apply_field(ket, 0), geometry, k,
                                       dagger=True),
        space, basis)
    _check_creation(space, basis.field[_level_count(basis, "c") > 0], 0)
    return plus_adjoint(hopping)


# How far |psi| may drift from |psi0| over an exact finite-N evolution.
_NORM_DRIFT_TOL = 1e-8


def evolve_exact_atoms(initial: SparseKet, rabi: float, t: float,
                       geometry: Geometry, k: float = 0.0) -> SparseKet:
    """Integrate the finite-N transfer Hamiltonian Omega(a sigma^dag + h.c.).

    The non-ideal reference against :func:`evolve_analytic`: collective
    raising loses sqrt(1 - n/N) factors that the bosonic idealization
    ignores, so the two drift apart at order n/N.  Raises ``ValueError``
    unless ``rabi`` is finite, even at ``t = 0``.

    Only the hopping term T = Omega sigma^dag(k) a is compiled on the
    sector; H = T + T^dag is T's triplets beside their mirror images
    (:func:`~coldstore.propagate.plus_adjoint`), the same entries, in the
    same order and to the bit, as compiling both terms.  T^dag = Omega
    a^dag sigma(k) is never applied, so where it would create a photon past
    the mode's cap (a label with an atom in c and the field at a cap) the
    call raises ``FockOverflowError`` as ``apply_field`` does, after T's
    own ``SectorOverflowError`` if the atoms' cap binds as well.
    """
    basis, psi = _exact_on_sector(initial, rabi, t, geometry, k)
    if t == 0.0 or not len(basis):
        return initial
    return vector_to_ket(initial.space, basis, psi)


def _exact_on_sector(initial: SparseKet, rabi: float, t: float,
                     geometry: Geometry, k: float
                     ) -> tuple[SparseKet, np.ndarray]:
    """(basis, psi): the sector of ``initial``'s total quantum numbers and
    the amplitudes over it of :func:`evolve_exact_atoms`, which says what
    raises.  At ``t = 0``, and for the zero ket, whose sector is empty,
    ``psi`` is ``initial``'s amplitudes."""
    space = initial.space
    if space.n_modes != 1:
        raise ValueError("transfer dynamics tracks exactly one field mode")
    totals = present_totals(initial)
    dt_max = _transfer_step(rabi, max(totals, default=0))
    basis = enumerate_sector(space, totals)
    psi = ket_to_vector(initial, basis)
    if t == 0.0 or not totals:
        return basis, psi
    h = _transfer_operator(basis, geometry, k, rabi)
    dt, n_steps = step_grid(t, dt_max)
    psi = rk4_propagate(h, psi, dt, n_steps)
    drift = abs(float(np.linalg.norm(psi)) - initial.norm())
    if not drift <= _NORM_DRIFT_TOL:    # NaN fails this too
        raise IntegrationError(
            f"norm drifted by {drift:.3g} over {n_steps} steps of {dt:.3g}")
    return basis, psi


def exact_vs_analytic_deviation(state: BosonicState, geometry: Geometry,
                                rabi: float, t: float, k: float = 0.0) -> float:
    """|| exact finite-N evolution - mapped bosonic closed form ||, on the
    sector's amplitude vectors: the mapped closed form is read onto the
    exact evolution's sector (:func:`~coldstore.propagate.ket_to_vector`)
    and the norm is that of the difference vector, so no ket is rebuilt
    from the evolution, subtracted or merged.  Closed-form entries at or
    below ``DROP_TOL`` are left out before the mapping: the mapped ket
    would drop their whole blocks."""
    joint0 = bosonic_to_joint(state, geometry, k)
    basis, exact = _exact_on_sector(joint0, rabi, t, geometry, k)
    ideal = rotation_grids(state, [rabi * t])[0]
    # no amplitude of a unit storage state exceeds 1, so the block of an
    # entry at or below DROP_TOL (the rounding a quarter period leaves) is
    # dropped from the mapped ket whole: its storage state is not built
    ideal[np.abs(ideal) <= DROP_TOL] = 0.0
    mapped = bosonic_to_joint(BosonicState(ideal), geometry, k,
                              space=joint0.space)
    return float(np.linalg.norm(exact - ket_to_vector(mapped, basis)))


def transfer_curve(state: BosonicState, omega_ts) -> list[dict]:
    """Fidelity-with-initial and field purity along a rotation-angle grid."""
    grids = rotation_grids(state, omega_ts)
    return [{"omega_t": float(x),
             "fidelity_initial": abs(complex(np.vdot(g, state.amplitudes))) ** 2,
             "purity": float(p)}
            for x, g, p in zip(omega_ts, grids, subsystem_purity(grids))]


def write_transfer_csv(rows: list[dict], path) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["omega_t", "fidelity_initial",
                                           "purity"])
        w.writeheader()
        for row in rows:
            w.writerow({k: f"{v:.12g}" for k, v in row.items()})
