"""Dark-state polaritons of the three-level storage interaction.

The interaction couples each tracked signal mode q to the b->a transition
with strength g (collectively enhanced to g sqrt(N)) while a classical
control field of Rabi frequency Omega drives a->c (units with hbar = 1):

    H = sum_q omega_q n_q                                   [optional]
        - (1/2) [ g N sum_q a(q) rho_ab(k_s + q)
                  + Omega N rho_ac(k_c) + h.c. ]

Each term is a collective operator of ``operators.py`` (the field ladders,
rho_ab and rho_ac), so that module alone knows how a term acts on a label.
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

from .errors import IntegrationError, NotNormalizedError, SpaceMismatchError
from .geometry import Geometry, ModeSet
from .operators import apply_field, apply_rho_ab, apply_rho_ac, apply_sigma
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
from .states import (SparseKet, StateSpace, _joint_space, _level_count,
                     normalize)
from .storage import falling_factorial, vacuum

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
        if not 0 < self.g < math.inf:
            raise ValueError(f"coupling g must be positive and finite, "
                             f"got {self.g!r}")
        if not 0 <= self.rabi < math.inf:
            raise ValueError(f"control Rabi frequency must be nonnegative and "
                             f"finite, got {self.rabi!r}")

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


def joint_space(params: EitParams, n_quanta: int,
                a_max: int | None = None) -> StateSpace:
    """Field-plus-atoms space sized to hold ``n_quanta`` total quanta.

    Caps are chosen so that every sector with at most ``n_quanta`` quanta
    is closed under the interaction (in particular the excited-level cap
    defaults to the full quanta budget: a photon can convert to an
    a-excitation, and with several quanta more than one can).
    """
    return _joint_space(params.n_atoms, params.modes.detunings, n_quanta,
                        a_max)


def _check_space(params: EitParams, space: StateSpace) -> None:
    if tuple(space.modes) != tuple(params.modes.detunings):
        raise SpaceMismatchError(
            f"space tracks modes {space.modes}, parameters define "
            f"{params.modes.detunings}")
    if space.n_atoms != params.n_atoms:
        raise SpaceMismatchError("space and geometry disagree on atom count")


def apply_hamiltonian(ket: SparseKet, params: EitParams,
                      rabi: float | None = None) -> SparseKet:
    """Apply H composed from ``operators.py``: per tracked mode the field
    ladders and N rho_ab(k_s + q), lowering factor first so that states at
    a cap annihilate instead of tripping the Fock guard, then the control
    coupling.  ``rabi`` overrides the static control amplitude (used by
    the sweep, which splits H into a static and a control-scaled part).
    """
    space = ket.space
    _check_space(params, space)
    geom, ms = params.geometry, params.modes
    out = SparseKet.zero(space)
    for i, q in enumerate(ms.detunings):
        lowered = apply_field(ket, i)
        if params.include_free_term:
            out = out + ms.omega(q) * apply_field(lowered, i, dagger=True)
        k = ms.signal_wavevector(q)
        absorb = apply_rho_ab(lowered, geom, k)
        emit = apply_field(apply_rho_ab(ket, geom, k, dagger=True), i, dagger=True)
        out = out + (-params.g * space.n_atoms / 2.0) * (absorb + emit)
    omega_ctrl = params.rabi if rabi is None else rabi
    if omega_ctrl != 0.0:
        out = out + omega_ctrl * apply_control_coupling(ket, params)
    return out


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
    """prod_q (psi_q^dag)^{n_q} / sqrt(n_q!) |0>, normalized unless
    ``normalized=False``; ``occupancies`` maps detuning q -> quanta n_q."""
    for q in occupancies:
        _resolve_q(params, q)
    total = sum(occupancies.values())
    if space is None:
        space = joint_space(params, total)
    if theta is None:
        theta = params.theta
    coeffs = _dark_polynomial(params, space, tuple(
        occupancies.get(q, 0) for q in params.modes.detunings))
    ket = sum((math.cos(theta) ** (total - m) * math.sin(theta) ** m * w
               for m, w in enumerate(coeffs)), SparseKet.zero(space))
    if not normalized:
        return ket
    out, _ = normalize(ket)
    return out


def dark_state(params: EitParams, n: int, q: float | None = None,
               form: str = "exact", space: StateSpace | None = None,
               normalized: bool = True, theta: float | None = None) -> SparseKet:
    """n-quantum dark state of one mode, exact or large-N approximate.

    ``form="exact"`` is the polariton Fock state (psi^dag)^n / sqrt(n!) |0>
    (then normalized numerically; the raw image is not unit norm at finite
    N).  ``form="approx"``, for n <= N, is the binomial superposition
    sum_m (-1)^m sqrt(C(n, m)) cos^{n-m} sin^m |n-m> |m storage
    excitations>; it is exactly normalized but nulls the coupling only in
    the large-N limit.
    """
    if form not in ("exact", "approx"):
        raise ValueError(f"unknown dark-state form {form!r}")
    q = _resolve_q(params, q)
    if space is None:
        space = joint_space(params, n)
    if form == "exact":
        return multimode_dark_state(params, {q: n}, space=space,
                                    normalized=normalized, theta=theta)
    if n > params.n_atoms:
        raise ValueError(f"the approximate dark state stores every quantum, "
                         f"but n = {n} exceeds N = {params.n_atoms} atoms")
    if theta is None:
        theta = params.theta
    # each w_m at norm sqrt(C(n, m)): the finite-N ladder prefactors set to 1
    coeffs = _dark_polynomial(params, space, tuple(
        n if p == q else 0 for p in params.modes.detunings))
    return sum((math.sqrt(math.comb(n, m)) * math.cos(theta) ** (n - m)
                * math.sin(theta) ** m / w.norm() * w
                for m, w in enumerate(coeffs)), SparseKet.zero(space))


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
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be positive and finite, got {self.duration!r}")
        for th in (self.theta_start, self.theta_end):
            if not 0.0 <= th <= math.pi / 2.0 + 1e-12:
                raise ValueError("mixing angles must lie in [0, pi/2]")

    def theta(self, t):
        # clip(t / T, 0, 1) and the ramp, in place on the one fresh array
        # of t / T, flat so that a scalar t is an array too
        t = np.asarray(t, dtype=float)
        f = (t / self.duration).reshape(-1)
        np.minimum(np.maximum(0.0, f, out=f), 1.0, out=f)
        if self.shape == "smooth-cosine":
            f *= np.pi
            np.cos(f, out=f)
            np.subtract(1.0, f, out=f)
            f *= 0.5
        f *= self.theta_end - self.theta_start
        f += self.theta_start
        return f.reshape(t.shape) if t.ndim else float(f[0])


def control_amplitude(collective_coupling: float, theta, rabi_max: float):
    """Omega realizing the requested mixing angle, clamped at rabi_max.

    theta -> 0 needs an unbounded control field; the clamp keeps the
    schedule physical and the integrator step finite.  The effective angle
    actually realized is atan2(g sqrt(N), Omega_clamped).
    """
    th = np.asarray(theta, dtype=float)
    sin = np.sin(th).reshape(-1)
    clamped = ~(sin > 1e-12)        # NaN too
    out = np.cos(th).reshape(-1)    # the fresh array the result takes
    out *= collective_coupling
    # past g sqrt(N) ~ 1.8e8 the quotient overflows where sin is clamped,
    # entries that are inf either way
    with np.errstate(over="ignore"):
        out /= np.maximum(sin, 1e-300, out=sin)
    out[clamped] = np.inf
    np.minimum(out, rabi_max, out=out)
    return out.reshape(th.shape) if th.ndim else float(out[0])


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


# Gram eigenvalues below this fraction of the largest are dropped from the
# projection: rounding in the Gram matrix (about 1e-16) would dominate them.
_GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class DarkManifold:
    """The theta-free parts of a sector's exact dark states.

    a_q^dag and S_q^dag = sigma^dag(k_eff(q)) commute, so the unnormalized
    dark state of an occupancy pattern p with q_p quanta,
    prod_q (cos(theta) a_q^dag - sin(theta) S_q^dag)^{n_q} / sqrt(n_q!) |0>,
    equals sum_M cos^{q_p - M}(theta) sin^M(theta) w_{p,M}.  Row r of
    ``bras`` is one conjugated w_{p,M} on the sector basis, ``gram`` holds
    <w_r|w_r'>, row r has powers ``cos_powers[r]`` and ``sin_powers[r]``, and
    ``members[r, p]`` is 1 where row r belongs to pattern p.
    """

    bras: np.ndarray
    gram: np.ndarray
    cos_powers: np.ndarray
    sin_powers: np.ndarray
    members: np.ndarray


def _dark_polynomial(params: EitParams, space: StateSpace,
                     occupancy: tuple[int, ...]) -> list[SparseKet]:
    """w_M, M = 0..q: the coefficient of cos^{q-M} sin^M in the unnormalized
    dark state of one occupancy pattern.  Each polariton factor maps
    w_M -> a^dag w_M - S^dag w_{M-1}, which builds the binomial
    coefficients of every mode's ladder (Pascal's rule)."""
    _check_space(params, space)
    coeffs = [vacuum(space)]
    scale = 1.0
    for q, n_q in zip(params.modes.detunings, occupancy):
        mode_idx = space.mode_index(q)
        k_eff = params.modes.k_eff(q)
        for _ in range(n_q):
            photon = [apply_field(w, mode_idx, dagger=True) for w in coeffs]
            atom = [apply_sigma(w, params.geometry, k_eff, dagger=True)
                    for w in coeffs]
            coeffs = ([photon[0]] + [p - a for p, a in zip(photon[1:], atom)]
                      + [-atom[-1]])
        scale *= math.factorial(n_q)
    return [w * (1.0 / math.sqrt(scale)) for w in coeffs]


def dark_manifold(params: EitParams, basis: SparseKet) -> DarkManifold:
    """The dark manifold of every mode-occupancy pattern within the total
    quantum numbers of the sector ``basis`` (``enumerate_sector``)."""
    space, n_modes = basis.space, len(params.modes.detunings)
    patterns = [occ for q_total in present_totals(basis)
                for occ in _field_occupations((q_total,) * n_modes, q_total)]
    rows, cos_powers, sin_powers, owner = [], [], [], []
    for p, occ in enumerate(patterns):
        coeffs = _dark_polynomial(params, space, occ)
        for m, w in enumerate(coeffs):
            rows.append(ket_to_vector(w, basis))
            cos_powers.append(len(coeffs) - 1 - m)
            sin_powers.append(m)
            owner.append(p)
    bras = np.conj(np.array(rows))
    members = np.zeros((len(rows), len(patterns)))
    members[np.arange(len(rows)), owner] = 1.0
    return DarkManifold(bras=bras, gram=bras @ bras.conj().T,
                        cos_powers=np.array(cos_powers, dtype=float),
                        sin_powers=np.array(sin_powers, dtype=float),
                        members=members)


def dark_manifold_weight(psi: np.ndarray, manifold: DarkManifold,
                         theta: float) -> float:
    """Population of the instantaneous dark manifold at mixing angle theta.

    The projection weight of ``psi`` onto the span of the exact dark states
    D_p of ``manifold``'s patterns, b^H G^+ b / <psi|psi> with
    b_p = <D_p|psi> and G_pp' = <D_p|D_p'>.  Patterns of different totals
    are orthogonal; patterns of one total overlap when their modes' spin
    waves do, so G need not be diagonal, and it is singular where two
    patterns share a dark state.  The cost is one product of ``psi`` with
    the manifold's rows and, for several patterns, one small
    eigendecomposition of G.
    """
    nn = float(np.vdot(psi, psi).real)
    if nn == 0.0:
        return 0.0
    t = (math.cos(theta) ** manifold.cos_powers
         * math.sin(theta) ** manifold.sin_powers)
    overlaps = manifold.bras @ psi
    if manifold.members.shape[1] == 1:  # one pattern: |<D|psi>|^2 / <D|D>
        norm_sq = float(t @ manifold.gram.real @ t)
        if not norm_sq > 0:
            return 0.0
        return float(abs(t @ overlaps) ** 2 / norm_sq) / nn
    a = manifold.members * t[:, None]
    lam, u = np.linalg.eigh(a.T @ manifold.gram @ a)
    keep = lam > _GRAM_RTOL * max(lam[-1], 0.0)
    along = u[:, keep].conj().T @ (a.T @ overlaps)
    return float(np.sum(np.abs(along) ** 2 / lam[keep])) / nn


def sweep_time_step(collective_coupling: float, rabi_peak: float) -> float:
    """Fixed step resolving the fastest frequency: 0.01 / max(g sqrt(N), Omega)."""
    return 0.01 / max(collective_coupling, rabi_peak)


def _sweep_grid(cc: float, duration: float, theta_min: float,
                rabi_max: float) -> tuple[float, int]:
    """(dt, n_steps) of a sweep: :func:`step_grid` over ``duration`` at the
    :func:`sweep_time_step` of the control clamped at ``theta_min``, the
    ramp's peak.  Raises ``ValueError`` when ``rabi_max = inf`` leaves that
    peak unbounded."""
    rabi_peak = control_amplitude(cc, theta_min, rabi_max)
    if rabi_peak == math.inf:
        raise ValueError(
            f"rabi_max = inf cannot realize theta = {theta_min!r}: a ramp "
            f"that reaches theta = 0 needs a finite rabi_max")
    return step_grid(duration, sweep_time_step(cc, rabi_peak))


def adiabatic_sweep(initial: SparseKet, params: EitParams, ramp: RampSchedule,
                    rabi_max: float | None = None,
                    record_every: int | None = None,
                    norm_drift_tol: float = 1e-8) -> Trajectory:
    """Integrate the sweep theta(t) and sample fidelity diagnostics.

    The initial ket fixes the conserved quantum-number sector(s); the
    Hamiltonian is cached on that sector as H_static + Omega(t) * H_control
    and integrated with fixed-step RK4.  The sector's dark manifold is built
    beside it once (:func:`dark_manifold`), so the dark-manifold weight of
    each sample is one small product at that sample's theta_eff.  An
    infinite ``rabi_max`` is refused when the ramp reaches theta = 0, where
    the control would be unbounded.  The initial ket must have unit norm
    to within ``norm_drift_tol``; a norm drift beyond it aborts with a
    diagnostic (the step was too coarse).  Memory: the sector's vectors and
    operators, the samples, and the control schedule that the callable
    control's reader holds (:func:`rk4_propagate`); nothing grows with the
    step count alone.
    """
    space = initial.space
    _check_space(params, space)
    if not initial:
        raise ValueError("initial state is the zero vector")
    norm = initial.norm()
    if not abs(norm - 1.0) <= norm_drift_tol:
        raise NotNormalizedError(
            f"the sweep needs a unit-norm initial state (to norm_drift_tol = "
            f"{norm_drift_tol:g}), got norm {norm!r}")
    cc = params.collective_coupling
    if rabi_max is None:
        rabi_max = DEFAULT_RABI_CAP_FACTOR * cc
    if not rabi_max > 0:  # NaN fails this too; infinity turns the clamp off
        raise ValueError(f"rabi_max must be positive, got {rabi_max!r}")
    if record_every is not None and record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")

    dt, n_steps = _sweep_grid(cc, ramp.duration,
                              min(ramp.theta_start, ramp.theta_end), rabi_max)

    basis = enumerate_sector(space, present_totals(initial))
    h_static = sector_operator(
        lambda k: apply_hamiltonian(k, params, rabi=0.0), space, basis)
    h_control = sector_operator(
        lambda k: apply_control_coupling(k, params), space, basis)
    manifold = dark_manifold(params, basis)

    # the integrator's half-steps i dt/2, the last read at T exactly: the
    # times of np.linspace(0, T, 2 n_steps + 1), a call at a time
    half_step = dt / 2
    t_end = 2 * n_steps * half_step

    def schedule(t):
        if t[-1] == t_end:
            t = t.copy()
            t[-1] = ramp.duration
        return control_amplitude(cc, ramp.theta(t), rabi_max)

    # photon number and c population of |psi|^2, one product for both
    diagonals = np.array([basis.field.sum(axis=1, dtype=float),
                          _level_count(basis, "c")], dtype=float)

    psi0 = ket_to_vector(initial, basis)
    if record_every is None:
        record_every = max(1, n_steps // 400)
    sample_steps = np.append(np.arange(0, n_steps, record_every), n_steps)
    sample_rabi = schedule(2 * sample_steps * half_step)

    samples = []    # a row of the Trajectory's 7 sampled arrays each

    def on_sample(step, t, psi):
        re, im = psi.real, psi.imag     # np.linalg.norm's own sum
        nrm = math.sqrt(re @ re + im @ im)
        if not abs(nrm - 1.0) <= norm_drift_tol:   # NaN fails this too
            raise IntegrationError(
                f"norm drifted to {nrm!r} at t = {t:.6g} (step {step} of "
                f"{n_steps}, dt = {dt:.3g}); reduce the step size")
        rabi_t = float(sample_rabi[len(samples)])
        theta_eff = math.atan2(cc, rabi_t)
        photons, c_population = (diagonals @ (abs(psi) ** 2)).tolist()
        samples.append((t, rabi_t, theta_eff, nrm,
                        dark_manifold_weight(psi, manifold, theta_eff),
                        photons, c_population))

    psi_final = rk4_propagate(h_static, psi0, dt, n_steps, h1=h_control,
                              control=schedule, sample_every=record_every,
                              on_sample=on_sample)
    return Trajectory(*np.reshape(samples, (-1, 7)).T,
                      final_state=vector_to_ket(space, basis, psi_final),
                      dt=dt, n_steps=n_steps, rabi_max=rabi_max)
