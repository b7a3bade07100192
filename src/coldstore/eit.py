"""Dark-state polaritons of the three-level storage interaction.

The interaction couples each tracked signal mode q to the b->a transition
with strength g (collectively enhanced to g sqrt(N)) while a classical
control field of Rabi frequency Omega drives a->c (units with hbar = 1):

    H = sum_q omega_q n_q                                   [optional]
        - (1/2) [ g N sum_q a(q) rho_ab(k_s + q)
                  + Omega N rho_ac(k_c) + h.c. ]

Polaritons psi(q) = cos(theta) a(q) - sin(theta) sigma(k_eff(q)) with
tan(theta) = g sqrt(N) / Omega create the dark states of this coupling;
everything here builds those states exactly at finite N, measures how well
they null the Hamiltonian, and integrates storage/retrieval sweeps of
theta(t) with a fixed-step integrator.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import FockOverflowError, IntegrationError, SpaceMismatchError
from .geometry import Geometry, ModeSet
from .operators import _apply_terms, _moves, apply_field, apply_rho_ac, apply_sigma
from .propagate import (
    _field_occupations,
    enumerate_sector,
    ket_to_vector,
    present_totals,
    rk4_propagate,
    sector_operator,
    step_grid,
    vector_to_ket,
)
from .states import JointLabel, SparseKet, StateSpace, normalize
from .storage import StorageSpec, falling_factorial, storage_direct, vacuum, with_field_occupation

DEFAULT_RABI_CAP_FACTOR = 50.0


def mixing_angle(g: float, n_atoms: int, rabi: float) -> float:
    """theta = atan2(g sqrt(N), Omega), in [0, pi/2] for g, Omega >= 0."""
    return math.atan2(g * math.sqrt(n_atoms), rabi)


@dataclass(frozen=True)
class EitParams:
    """Coupling constants and mode bookkeeping for the storage interaction."""

    geometry: Geometry
    modes: ModeSet
    g: float
    rabi: float
    include_free_term: bool = False

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.rabi < 0:
            raise ValueError("control Rabi frequency must be nonnegative")

    @property
    def n_atoms(self) -> int:
        return self.geometry.n_atoms

    @property
    def collective_coupling(self) -> float:
        """g sqrt(N), the collectively enhanced field coupling."""
        return self.g * math.sqrt(self.n_atoms)

    @property
    def theta(self) -> float:
        return mixing_angle(self.g, self.n_atoms, self.rabi)

    def at_rabi(self, rabi: float) -> "EitParams":
        return EitParams(self.geometry, self.modes, self.g, rabi,
                         self.include_free_term)


def joint_space(params: EitParams, n_quanta: int | None = None,
                a_max: int | None = None) -> StateSpace:
    """Field-plus-atoms space sized to hold ``n_quanta`` total quanta.

    Caps are chosen so that every sector with at most ``n_quanta`` quanta
    is closed under the interaction (in particular the excited-level cap
    defaults to the full quanta budget: a photon can convert to an
    a-excitation, and with several quanta more than one can).
    """
    n = params.n_atoms
    if n_quanta is None:
        n_quanta = params.modes.fock_cap
    if n_quanta < 0:
        raise ValueError("n_quanta must be nonnegative")
    n_exc = min(n_quanta, n)
    if a_max is None:
        a_max = n_exc
    return StateSpace(
        n_atoms=n,
        n_exc_max=n_exc,
        a_max=a_max,
        modes=tuple(params.modes.detunings),
        mode_caps=(n_quanta,) * len(params.modes.detunings),
        photon_cap=n_quanta,
    )


def _check_space(params: EitParams, space: StateSpace) -> None:
    if tuple(space.modes) != tuple(params.modes.detunings):
        raise SpaceMismatchError(
            f"space tracks modes {space.modes}, parameters define "
            f"{params.modes.detunings}")
    if space.n_atoms != params.n_atoms:
        raise SpaceMismatchError("space and geometry disagree on atom count")


def apply_hamiltonian(ket: SparseKet, params: EitParams,
                      rabi: float | None = None) -> SparseKet:
    """Apply the interaction Hamiltonian by on-the-fly term expansion.

    ``rabi`` overrides the static control amplitude (used by the sweep,
    which splits H into a static part and a control-scaled part).
    """
    space = ket.space
    _check_space(params, space)
    geom = params.geometry
    ms = params.modes
    omega_ctrl = params.rabi if rabi is None else rabi
    g = params.g
    sig_phases = [geom.phases(ms.signal_wavevector(q)) for q in ms.detunings]
    ctrl_phases = geom.phases(ms.k_control)
    include_free = params.include_free_term
    mode_freqs = [ms.omega(q) for q in ms.detunings]

    def terms(label):
        occ = label.field
        atoms = label.atoms
        if include_free:
            e = sum(w * m for w, m in zip(mode_freqs, occ))
            if e:
                yield label, e
        total_photons = sum(occ)
        for qi in range(len(occ)):
            m = occ[qi]
            ph = sig_phases[qi]
            if m > 0:
                # -(g/2) a(q) [N rho_ab(k_s+q)]: absorb a photon, b -> a
                newf = occ[:qi] + (m - 1,) + occ[qi + 1:]
                amp = -(g / 2.0) * math.sqrt(m)
                for j, new_atoms in _moves(atoms, "b", "a", space):
                    yield JointLabel(newf, new_atoms), amp * ph[j]
            if atoms.a_sites:
                # h.c.: emit a photon, a -> b
                if m + 1 > space.mode_caps[qi] or total_photons + 1 > space.total_photon_cap:
                    raise FockOverflowError(
                        "photon emission exceeds a Fock cap; widen the caps")
                newf = occ[:qi] + (m + 1,) + occ[qi + 1:]
                amp = -(g / 2.0) * math.sqrt(m + 1)
                for j, new_atoms in _moves(atoms, "a", "b", space):
                    yield JointLabel(newf, new_atoms), amp * ph[j].conjugate()
        if omega_ctrl != 0.0:
            # -(Omega/2) [N rho_ac(k_c)]: c -> a, plus h.c.
            half = omega_ctrl / 2.0
            for j, new_atoms in _moves(atoms, "c", "a", space):
                yield JointLabel(occ, new_atoms), -half * ctrl_phases[j]
            for j, new_atoms in _moves(atoms, "a", "c", space):
                yield JointLabel(occ, new_atoms), -half * ctrl_phases[j].conjugate()

    return _apply_terms(ket, terms)


def apply_control_coupling(ket: SparseKet, params: EitParams) -> SparseKet:
    """The part of H proportional to Omega, at unit Omega."""
    geom, kc = params.geometry, params.modes.k_control
    n = ket.space.n_atoms
    up = apply_rho_ac(ket, geom, kc)
    down = apply_rho_ac(ket, geom, kc, dagger=True)
    return (-n / 2.0) * (up + down)


def _resolve_q(params: EitParams, q: float | None) -> float:
    if q is not None:
        if q not in params.modes.detunings:
            raise SpaceMismatchError(
                f"detuning {q} is not one of {params.modes.detunings}")
        return q
    if len(params.modes.detunings) == 1:
        return params.modes.detunings[0]
    raise ValueError("several modes are tracked; pass q explicitly")


def excited_level_state(geometry: Geometry, modes: ModeSet, n: int, q: float,
                        space: StateSpace | None = None) -> SparseKet:
    """Normalized state with one atom promoted to the excited level.

    One atom carries the full signal phase (k_s + q) in level a while n
    others hold storage excitations at k_eff(q); the collective
    superposition runs over every choice of the n + 1 distinct atoms.
    """
    n_atoms = geometry.n_atoms
    if n + 1 > n_atoms:
        raise ValueError("not enough atoms for n storage plus one excited")
    if space is None:
        space = StateSpace(n_atoms, n_exc_max=n + 1, a_max=1)
    k_store = modes.k_eff(q)
    k_sig = modes.signal_wavevector(q)
    alpha = math.sqrt(math.factorial(n) / falling_factorial(n_atoms, n + 1))
    store_ph = geometry.phases(k_store)
    sig_ph = geometry.phases(k_sig)
    entries = {}
    for combo in itertools.combinations(range(n_atoms), n):
        base = 1.0 + 0j
        for idx in combo:
            base *= store_ph[idx]
        for l in range(n_atoms):
            if l in combo:
                continue
            label = space.label(c_sites=combo, a_sites=(l,))
            entries[label] = alpha * base * sig_ph[l]
    return SparseKet(space, entries, _checked=True)


def apply_polariton(ket: SparseKet, params: EitParams, q: float | None = None,
                    dagger: bool = False, theta: float | None = None) -> SparseKet:
    """Apply psi(q) = cos(theta) a(q) - sin(theta) sigma(k_eff(q)).

    ``theta`` overrides the mixing angle implied by ``params.rabi`` — the
    only way to reach theta = 0 exactly, since it corresponds to an
    unbounded control amplitude.
    """
    space = ket.space
    _check_space(params, space)
    q = _resolve_q(params, q)
    if theta is None:
        theta = params.theta
    mode_idx = space.mode_index(q)
    k_eff = params.modes.k_eff(q)
    photon = apply_field(ket, mode_idx, dagger=dagger)
    atom = apply_sigma(ket, params.geometry, k_eff, dagger=dagger)
    return math.cos(theta) * photon - math.sin(theta) * atom


def multimode_dark_state(params: EitParams, occupancies: Mapping[float, int],
                         space: StateSpace | None = None,
                         normalized: bool = True,
                         theta: float | None = None) -> SparseKet:
    """Product of polariton ladders, one per occupied mode, on the vacuum.

    ``occupancies`` maps detuning q -> quanta n_q.  The polariton creation
    operators of distinct modes commute exactly, so the ladder order does
    not matter.  With ``normalized=False`` the bare
    prod_q (psi_q^dag)^{n_q} / sqrt(n_q!) vacuum image is returned.
    """
    for q in occupancies:
        _resolve_q(params, q)
    total = sum(occupancies.values())
    if space is None:
        space = joint_space(params, total)
    ket = vacuum(space)
    scale = 1.0
    for q in params.modes.detunings:
        n_q = occupancies.get(q, 0)
        for _ in range(n_q):
            ket = apply_polariton(ket, params, q, dagger=True, theta=theta)
        scale *= math.factorial(n_q)
    ket = ket * (1.0 / math.sqrt(scale))
    if not normalized:
        return ket
    out, _ = normalize(ket)
    return out


def dark_state(params: EitParams, n: int, q: float | None = None,
               form: str = "exact", space: StateSpace | None = None,
               normalized: bool = True, theta: float | None = None) -> SparseKet:
    """n-quantum dark state of one mode, exact or large-N approximate.

    ``form="exact"`` applies the polariton creation operator n times to
    the vacuum (then normalizes numerically; the raw ladder image is not
    unit norm at finite N).  ``form="approx"`` writes the binomial
    superposition sum_m (-1)^m sqrt(C(n, m)) cos^{n-m} sin^m |n-m> |m
    storage excitations> directly; it is exactly normalized but nulls the
    coupling only in the large-N limit.
    """
    if form not in ("exact", "approx"):
        raise ValueError(f"unknown dark-state form {form!r}")
    q = _resolve_q(params, q)
    if space is None:
        space = joint_space(params, n)
    if form == "exact":
        return multimode_dark_state(params, {q: n}, space=space,
                                    normalized=normalized, theta=theta)
    if theta is None:
        theta = params.theta
    mode_idx = space.mode_index(q)
    k_eff = params.modes.k_eff(q)
    total = SparseKet.zero(space)
    for m in range(n + 1):
        coeff = ((-1.0) ** m * math.sqrt(math.comb(n, m))
                 * math.cos(theta) ** (n - m) * math.sin(theta) ** m)
        if coeff == 0.0:
            continue
        if m == 0:
            atomic = vacuum(space)
        else:
            atomic = storage_direct(
                StorageSpec(params.geometry, ((k_eff, m),)), space=space)
        occ = [0] * space.n_modes
        occ[mode_idx] = n - m
        total = total + coeff * with_field_occupation(atomic, occ)
    return total


def null_eigenvalue_residual(params: EitParams, n: int, q: float | None = None,
                             form: str = "exact",
                             space: StateSpace | None = None) -> float:
    """|| H |D> || for the unit-normalized n-quantum dark state.

    Exact dark states null the coupling identically (the residual is pure
    floating-point noise); the approximate form leaves an O(1/N) residual.
    Requires q = 0 or the free field term switched off, since a detuned
    mode's free evolution is not nulled by any polariton superposition.
    """
    q = _resolve_q(params, q)
    if params.include_free_term and q != 0.0:
        raise ValueError(
            "free-term evolution at q != 0 has no null eigenvector; "
            "disable include_free_term or use q = 0")
    state = dark_state(params, n, q, form=form, space=space)
    return apply_hamiltonian(state, params).norm()


# -- adiabatic sweeps -------------------------------------------------------

@dataclass(frozen=True)
class RampSchedule:
    """Mixing-angle schedule theta(t) over a sweep of given duration."""

    theta_start: float
    theta_end: float
    duration: float
    shape: str = "smooth-cosine"

    def __post_init__(self):
        if self.shape not in ("linear", "smooth-cosine"):
            raise ValueError(f"unknown ramp shape {self.shape!r}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for th in (self.theta_start, self.theta_end):
            if not 0.0 <= th <= math.pi / 2.0 + 1e-12:
                raise ValueError("mixing angles must lie in [0, pi/2]")

    def theta(self, t):
        x = np.clip(np.asarray(t, dtype=float) / self.duration, 0.0, 1.0)
        if self.shape == "linear":
            f = x
        else:
            f = 0.5 * (1.0 - np.cos(np.pi * x))
        out = self.theta_start + (self.theta_end - self.theta_start) * f
        return out if out.ndim else float(out)


def control_amplitude(collective_coupling: float, theta, rabi_max: float):
    """Omega realizing the requested mixing angle, clamped at rabi_max.

    theta -> 0 needs an unbounded control field; the clamp keeps the
    schedule physical and the integrator step finite.  The effective angle
    actually realized is atan2(g sqrt(N), Omega_clamped).
    """
    th = np.asarray(theta, dtype=float)
    sin = np.sin(th)
    cos = np.cos(th)
    with np.errstate(divide="ignore"):
        raw = np.where(sin > 1e-12, collective_coupling * cos / np.maximum(sin, 1e-300),
                       np.inf)
    out = np.minimum(raw, rabi_max)
    return out if out.ndim else float(out)


@dataclass
class Trajectory:
    """Sampled observables of one integrated sweep."""

    times: np.ndarray
    rabi: np.ndarray
    theta: np.ndarray
    norms: np.ndarray
    dark_fidelity: np.ndarray
    photon_expectation: np.ndarray
    c_population: np.ndarray
    final_state: SparseKet
    dt: float
    n_steps: int
    rabi_max: float

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "rabi", "theta", "norm", "dark_fidelity",
                        "photon_expectation", "c_population"])
            for row in zip(self.times, self.rabi, self.theta, self.norms,
                           self.dark_fidelity, self.photon_expectation,
                           self.c_population):
                w.writerow([f"{v:.12g}" for v in row])


def dark_manifold_weight(psi: np.ndarray, params: EitParams,
                         space: StateSpace, index: dict,
                         totals: list[int]) -> float:
    """Total population of the instantaneous dark manifold.

    Sums |<D|psi>|^2 over the exact dark states of every mode-occupancy
    pattern within the given total quantum numbers.  Distinct patterns have
    distinct quasiparticle content, so the family is orthogonal and the sum
    is a genuine projection weight.
    """
    qs = params.modes.detunings
    weight = 0.0
    nn = float(np.vdot(psi, psi).real)
    if nn == 0.0:
        return 0.0
    for q_total in totals:
        for occ in _field_occupations((q_total,) * len(qs), q_total):
            dark = multimode_dark_state(
                params, dict(zip(qs, occ)), space=space)
            dvec = ket_to_vector(dark, index)
            weight += abs(np.vdot(dvec, psi)) ** 2
    return weight / nn


def sweep_time_step(params: EitParams, rabi_peak: float) -> float:
    """Fixed step resolving the fastest frequency: 0.01 / max(g sqrt(N), Omega)."""
    return 0.01 / max(params.collective_coupling, rabi_peak)


def adiabatic_sweep(initial: SparseKet, params: EitParams, ramp: RampSchedule,
                    rabi_max: float | None = None,
                    record_every: int | None = None,
                    norm_drift_tol: float = 1e-8) -> Trajectory:
    """Integrate the sweep theta(t) and sample fidelity diagnostics.

    The initial ket fixes the conserved quantum-number sector(s); the
    Hamiltonian is cached on that sector as H_static + Omega(t) * H_control
    and integrated with fixed-step RK4.  A norm drift beyond
    ``norm_drift_tol`` aborts with a diagnostic (the step was too coarse).
    """
    space = initial.space
    _check_space(params, space)
    if not initial:
        raise ValueError("initial state is the zero vector")
    if rabi_max is None:
        rabi_max = DEFAULT_RABI_CAP_FACTOR * params.collective_coupling
    if rabi_max <= 0:
        raise ValueError("rabi_max must be positive")
    if record_every is not None and record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")

    theta_min = min(ramp.theta_start, ramp.theta_end)
    rabi_peak = float(control_amplitude(params.collective_coupling,
                                        theta_min, rabi_max))
    dt, n_steps = step_grid(ramp.duration, sweep_time_step(params, rabi_peak))

    totals = present_totals(initial)
    basis = enumerate_sector(space, totals)
    index = {label: i for i, label in enumerate(basis)}
    h_static = sector_operator(
        lambda k: apply_hamiltonian(k, params, rabi=0.0), space, basis)
    h_control = sector_operator(
        lambda k: apply_control_coupling(k, params), space, basis)

    stage_times = np.linspace(0.0, ramp.duration, 2 * n_steps + 1)
    theta_sched = np.asarray(ramp.theta(stage_times))
    control = np.asarray(control_amplitude(params.collective_coupling,
                                           theta_sched, rabi_max))

    photon_diag = np.array([sum(l.field) for l in basis], dtype=float)
    cpop_diag = np.array([l.atoms.n_c for l in basis], dtype=float)

    psi0 = ket_to_vector(initial, index)
    if record_every is None:
        record_every = max(1, n_steps // 400)

    samples: dict[str, list] = {k: [] for k in (
        "t", "rabi", "theta", "norm", "dark", "photon", "cpop")}

    def on_sample(step, t, psi):
        nrm = float(np.linalg.norm(psi))
        if abs(nrm - 1.0) > norm_drift_tol:
            raise IntegrationError(
                f"norm drifted to {nrm!r} at t = {t:.6g} (step {step} of "
                f"{n_steps}, dt = {dt:.3g}); reduce the step size")
        rabi_t = float(control[min(2 * step, len(control) - 1)])
        theta_eff = math.atan2(params.collective_coupling, rabi_t)
        w = abs(psi) ** 2
        samples["t"].append(t)
        samples["rabi"].append(rabi_t)
        samples["theta"].append(theta_eff)
        samples["norm"].append(nrm)
        samples["dark"].append(dark_manifold_weight(
            psi, params.at_rabi(rabi_t), space, index, totals))
        samples["photon"].append(float(photon_diag @ w))
        samples["cpop"].append(float(cpop_diag @ w))

    psi_final = rk4_propagate(h_static, psi0, dt, n_steps, h1=h_control,
                              control=control, sample_every=record_every,
                              on_sample=on_sample)

    return Trajectory(
        times=np.array(samples["t"]),
        rabi=np.array(samples["rabi"]),
        theta=np.array(samples["theta"]),
        norms=np.array(samples["norm"]),
        dark_fidelity=np.array(samples["dark"]),
        photon_expectation=np.array(samples["photon"]),
        c_population=np.array(samples["cpop"]),
        final_state=vector_to_ket(space, basis, psi_final),
        dt=dt,
        n_steps=n_steps,
        rabi_max=rabi_max,
    )
