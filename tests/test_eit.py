import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coldstore import (
    BosonicState,
    EitParams,
    Geometry,
    IntegrationError,
    ModeSet,
    NotNormalizedError,
    RampSchedule,
    SparseKet,
    StorageSpec,
    adiabatic_sweep,
    apply_field,
    apply_hamiltonian,
    apply_polariton,
    apply_rho_ab,
    apply_rho_ac,
    apply_sigma,
    atomic_space,
    control_amplitude,
    dark_state,
    enumerate_sector,
    excited_level_state,
    fidelity,
    joint_space,
    mixing_angle,
    multimode_dark_state,
    null_eigenvalue_residual,
    operator_matrix,
    storage_direct,
    vacuum,
    with_field_occupation,
)

from coldstore import eit
from coldstore.propagate import (
    _CONTROL_HALF_STEPS,
    ket_to_vector,
    sector_operator,
)
from oracles import dense_rho


def make_params(n_atoms, q=0.0, rabi=1.0, g=1.0, include_free_term=False):
    geom = Geometry.lattice(n_atoms, 0.5)
    modes = ModeSet(1.0, 0.8, (q,), "raman")
    return EitParams(geom, modes, g, rabi, include_free_term=include_free_term)


def test_hamiltonian_is_hermitian_on_sector_basis():
    params = make_params(4, rabi=0.7, include_free_term=True)
    space = joint_space(params, 2)
    basis = enumerate_sector(space, [1, 2])
    h = operator_matrix(lambda ket: apply_hamiltonian(ket, params),
                        space, basis)
    assert_allclose(h, h.conj().T, atol=1e-13)


def test_hamiltonian_matches_dense_oracle():
    # 3 atoms, a_max 2, free term and control both on: one detuned mode
    # with Fock cap 2, then modes 0 and 0.3 sharing the photon cap 2; the
    # reference is H written out on (field) x 3^N
    g, rabi, k_s, k_c = 0.9, 0.7, 1.0, 0.8
    geom = Geometry.uniform_random(3, length=3.0, seed=21)
    n, z = 3, geom.positions
    low = np.diag(np.sqrt([1.0, 2.0]), 1)        # <m-1| a |m> = sqrt(m)
    for qs in [(0.3,), (0.0, 0.3)]:
        params = EitParams(geom, ModeSet(k_s, k_c, qs, "raman"),
                           g, rabi, include_free_term=True)
        space = joint_space(params, 2)
        assert (space.mode_caps, space.a_max) == ((2,) * len(qs), 2)
        assert space.total_photon_cap == 2
        basis = enumerate_sector(space, [0, 1, 2])
        h = operator_matrix(lambda ket: apply_hamiltonian(ket, params),
                            space, basis)

        n_field = 3 ** len(qs)
        coupling = rabi * n * np.kron(np.eye(n_field),
                                      dense_rho(z, k_c, src="c", dst="a"))
        free = np.zeros_like(coupling)
        for i, q in enumerate(qs):
            a_q = np.kron(np.kron(np.eye(3 ** i), low),
                          np.eye(3 ** (len(qs) - 1 - i)))
            coupling += g * n * np.kron(a_q, dense_rho(z, k_s + q, src="b",
                                                       dst="a"))
            free += q * np.kron(a_q.T @ a_q, np.eye(3 ** n))
        dense = free - 0.5 * (coupling + coupling.conj().T)
        idx = [sum(m * 3 ** (len(qs) - 1 - i)
                   for i, m in enumerate(label.field)) * 3 ** n
               + sum(3 ** j for j in label.atoms.c_sites)
               + sum(2 * 3 ** j for j in label.atoms.a_sites)
               for label in basis.labels()]
        assert_allclose(h, dense[np.ix_(idx, idx)], atol=1e-13)


@pytest.mark.parametrize("n_atoms", [4, 8])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_exact_dark_state_nulls_the_coupling(n_atoms, n, theta):
    params = make_params(n_atoms, rabi=math.sqrt(n_atoms) / math.tan(theta))
    assert params.theta == pytest.approx(theta)
    residual = null_eigenvalue_residual(params, n, form="exact")
    assert residual <= 1e-10


def test_exact_form_raw_norm_at_small_n():
    # two quanta on four atoms at theta = pi/4: the raw polariton-ladder
    # product (psi-dagger)^2 / sqrt(2!) on the vacuum has norm sqrt(15)/4
    params = make_params(4, rabi=2.0)  # tan(theta)=sqrt(4)/2=1
    assert params.theta == pytest.approx(math.pi / 4)
    raw = dark_state(params, 2, form="exact", normalized=False)
    assert raw.norm() == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-13)


def test_approx_form_is_exactly_normalized():
    for n_atoms, n in [(4, 2), (8, 3)]:
        params = make_params(n_atoms, rabi=1.3)
        raw = dark_state(params, n, form="approx", normalized=False)
        assert raw.norm() == pytest.approx(1.0, abs=1e-13)


def test_approx_residual_shrinks_with_atom_number():
    residuals = {}
    for n_atoms in (8, 16):
        params = make_params(n_atoms, rabi=math.sqrt(n_atoms))  # theta = pi/4
        residuals[n_atoms] = null_eigenvalue_residual(params, 2, form="approx")
    assert residuals[16] < residuals[8]
    assert residuals[8] < 0.2


def test_unknown_dark_form_rejected():
    params = make_params(4)
    with pytest.raises(ValueError):
        dark_state(params, 1, form="perturbative")


def test_free_term_with_detuned_mode_rejected():
    params = make_params(4, q=0.5, include_free_term=True)
    with pytest.raises(ValueError):
        null_eigenvalue_residual(params, 1)


def test_excited_level_raising_identities():
    # N rho_ac(k_control) |C^n> = sqrt(n) |A, C^{n-1}>
    # N rho_ab(k_signal+q) |C^n> = sqrt(N-n) |A, C^n>
    n_atoms, n = 6, 2
    params = make_params(n_atoms)
    geom, modes = params.geometry, params.modes
    space = joint_space(params, n + 1)
    cn = storage_direct(StorageSpec(geom, ((modes.k_eff(0.0), n),)),
                        space=space)
    via_c = n_atoms * apply_rho_ac(cn, geom, modes.k_control)
    target_c = excited_level_state(geom, modes, n - 1, 0.0, space=space)
    assert (via_c - math.sqrt(n) * target_c).norm() < 1e-12
    via_b = n_atoms * apply_rho_ab(cn, geom, modes.signal_wavevector(0.0))
    target_b = excited_level_state(geom, modes, n, 0.0, space=space)
    assert (via_b - math.sqrt(n_atoms - n) * target_b).norm() < 1e-12


def test_polariton_theta_overrides():
    params = make_params(5, rabi=1.0)
    space = joint_space(params, 2)
    ket = with_field_occupation(vacuum(space), (1,))
    # theta = 0: pure photon annihilation
    photon_only = apply_polariton(ket, params, theta=0.0)
    assert (photon_only - apply_field(ket, 0)).norm() < 1e-14
    # theta = pi/2: minus the atomic lowering operator
    atom_only = apply_polariton(ket, params, theta=math.pi / 2)
    expected = -1.0 * apply_sigma(ket, params.geometry,
                                  params.modes.k_eff(0.0))
    assert (atom_only - expected).norm() < 1e-14


def polariton_ladder(params, occupancies, space, theta, normalized=True):
    """prod_q (psi_q^dag)^{n_q} / sqrt(n_q!) |0> by applying the polariton
    ladder, a route independent of the package's dark-state polynomial."""
    ket, scale = vacuum(space), 1.0
    for q, n_q in occupancies.items():
        for _ in range(n_q):
            ket = apply_polariton(ket, params, q, dagger=True, theta=theta)
        scale *= math.factorial(n_q)
    return ket / (ket.norm() if normalized else math.sqrt(scale))


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2])
@pytest.mark.parametrize("detunings, occupancies", [
    ((0.0,), {0.0: 1}), ((0.0,), {0.0: 2}), ((0.0,), {0.0: 3}),
    ((0.0, 0.3), {0.0: 2, 0.3: 1})], ids=["n=1", "n=2", "n=3", "two-mode"])
def test_polariton_dagger_builds_the_dark_state(detunings, occupancies,
                                                theta):
    params = EitParams(Geometry.uniform_random(5, 2.5, seed=9),
                       ModeSet(1.0, 0.8, detunings, "raman"),
                       1.0, rabi=2.0)
    space = joint_space(params, 3)
    built = polariton_ladder(params, occupancies, space, theta,
                             normalized=False)
    target = multimode_dark_state(params, occupancies, space=space,
                                  normalized=False, theta=theta)
    assert (built - target).norm() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.4, 1.1, math.pi / 2])
def test_approx_form_is_the_direct_route_binomial(n, theta):
    # sum_m (-1)^m sqrt(C(n, m)) cos^{n-m} sin^m |n-m> (x) the directly
    # enumerated storage state of m excitations
    params = make_params(5, rabi=1.3)
    space = joint_space(params, n)
    k_eff = params.modes.k_eff(0.0)
    expected = SparseKet.zero(space)
    for m in range(n + 1):
        atomic = storage_direct(StorageSpec(params.geometry, ((k_eff, m),)),
                                space=space) if m else vacuum(space)
        expected = expected + ((-1.0) ** m * math.sqrt(math.comb(n, m))
                               * math.cos(theta) ** (n - m)
                               * math.sin(theta) ** m) \
            * with_field_occupation(atomic, (n - m,))
    approx = dark_state(params, n, form="approx", space=space, theta=theta)
    assert (approx - expected).norm() <= 1e-13


def test_approx_form_refuses_more_quanta_than_atoms():
    params = make_params(2)
    with pytest.raises(ValueError, match="exceeds N"):
        dark_state(params, 3, form="approx")
    for theta in (0.0, 0.4):
        assert abs(dark_state(params, 3, form="exact", theta=theta).norm()
                   - 1.0) <= 1e-13


def test_multimode_dark_state_nulls_the_coupling():
    geom = Geometry.lattice(6, 0.5)
    modes = ModeSet(1.0, 0.8, (0.0, 0.3), "raman")
    params = EitParams(geom, modes, 1.0, rabi=1.4)
    state = multimode_dark_state(params, {0.0: 1, 0.3: 1})
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert apply_hamiltonian(state, params).norm() < 1e-12


def test_mixing_angle_definition():
    assert mixing_angle(1.0, 4, 2.0) == pytest.approx(math.atan2(2.0, 2.0))
    assert mixing_angle(1.0, 9, 0.0) == pytest.approx(math.pi / 2)
    g, n, rabi = 0.7, 16, 1.9
    theta = mixing_angle(g, n, rabi)
    assert math.tan(theta) == pytest.approx(g * math.sqrt(n) / rabi)


def test_control_amplitude_clamps():
    cc = 3.0  # collective coupling g sqrt(N)
    assert control_amplitude(cc, math.pi / 2, rabi_max=50.0) \
        == pytest.approx(0.0, abs=1e-12)
    assert control_amplitude(cc, 0.0, rabi_max=50.0) == 50.0
    theta = 0.9
    assert control_amplitude(cc, theta, rabi_max=1e6) == pytest.approx(
        cc * math.cos(theta) / math.sin(theta))
    arr = control_amplitude(cc, np.array([0.0, 0.5, 1.0]), rabi_max=10.0)
    assert arr.shape == (3,)
    assert arr[0] == 10.0


def test_ramp_schedule_shapes_and_validation():
    ramp = RampSchedule(0.0, math.pi / 2, duration=4.0, shape="smooth-cosine")
    assert ramp.theta(0.0) == pytest.approx(0.0)
    assert ramp.theta(4.0) == pytest.approx(math.pi / 2)
    assert ramp.theta(99.0) == pytest.approx(math.pi / 2)  # clamps past the end
    # smooth-cosine starts flat, linear does not
    eps = 1e-6
    assert ramp.theta(eps) < eps
    lin = RampSchedule(0.0, math.pi / 2, duration=4.0, shape="linear")
    assert lin.theta(2.0) == pytest.approx(math.pi / 4)
    thetas = ramp.theta(np.linspace(0.0, 4.0, 33))
    assert np.all(np.diff(thetas) >= 0.0)
    with pytest.raises(ValueError):
        RampSchedule(0.0, 1.0, duration=-1.0)
    with pytest.raises(ValueError):
        RampSchedule(0.0, 2.0, duration=1.0)       # angle beyond pi/2
    with pytest.raises(ValueError):
        RampSchedule(0.0, 1.0, duration=1.0, shape="sawtooth")


def _old_theta(ramp, t):
    """RampSchedule.theta as written before it worked in place."""
    f = np.clip(np.asarray(t, dtype=float) / ramp.duration, 0.0, 1.0)
    if ramp.shape == "smooth-cosine":
        f = 0.5 * (1.0 - np.cos(np.pi * f))
    out = ramp.theta_start + (ramp.theta_end - ramp.theta_start) * f
    return out if out.ndim else float(out)


def _old_control_amplitude(collective_coupling, theta, rabi_max):
    """control_amplitude as written before it worked in place."""
    th = np.asarray(theta, dtype=float)
    sin = np.sin(th)
    with np.errstate(over="ignore"):
        out = np.minimum(np.where(sin > 1e-12, collective_coupling * np.cos(th)
                                  / np.maximum(sin, 1e-300), np.inf), rabi_max)
    return out if out.ndim else float(out)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


_times = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf,
                                    -math.inf]),
                   st.floats(-1e3, 1e3))
_angles = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, 1e-12, 2e-12, -0.5,
                                     math.nan, math.inf, -math.inf]),
                    st.floats(-4.0, 4.0))
_couplings = st.one_of(st.sampled_from([1e-10, 1e10]), st.floats(1e-10, 1e10))
_rabi_maxes = st.one_of(st.just(math.inf), st.floats(1e-6, 1e12))


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["linear", "smooth-cosine"]),
       ends=st.tuples(st.floats(0.0, math.pi / 2), st.floats(0.0, math.pi / 2)),
       duration=st.floats(1e-3, 1e3),
       t=st.lists(_times, min_size=1, max_size=8),
       angles=st.lists(_angles, min_size=1, max_size=8),
       cc=_couplings, rabi_max=_rabi_maxes)
@example(shape="smooth-cosine", ends=(0.0, math.pi / 2), duration=2.0,
         t=[-1.0, -0.0, 0.0, 1.0, 2.0, 5.0, math.nan, math.inf, -math.inf],
         angles=[0.0, -0.0, 1e-13, 2e-12, 0.7, math.nan, math.inf],
         cc=1e10, rabi_max=50.0)
@example(shape="linear", ends=(1.2, 0.3), duration=0.5,
         t=[-3.0, 0.25, 0.5, 7.0], angles=[math.nan], cc=2.0,
         rabi_max=math.inf)
def test_the_schedule_is_its_former_expressions_bit_for_bit(
        shape, ends, duration, t, angles, cc, rabi_max):
    # t < 0 and t > T clamp; sin <= 1e-12, a NaN angle among them, gives
    # rabi_max; g sqrt(N) = 1e10 overflows the quotient where sin is tiny
    ramp = RampSchedule(*ends, duration=duration, shape=shape)
    t = np.array(t)
    theta = ramp.theta(t)
    assert _bits(theta) == _bits(_old_theta(ramp, t))
    scalar = ramp.theta(t[0])
    assert isinstance(scalar, float)
    assert _bits(scalar) == _bits(_old_theta(ramp, t[0]))
    with np.errstate(invalid="ignore"):     # sin and cos of an infinity
        for th in (theta, np.array(angles), np.array(angles).reshape(-1, 1)):
            control = control_amplitude(cc, th, rabi_max)
            assert control.shape == th.shape
            assert _bits(control) == _bits(
                _old_control_amplitude(cc, th, rabi_max))
        scalar = control_amplitude(cc, angles[0], rabi_max)
        assert isinstance(scalar, float)
        assert _bits(scalar) == _bits(
            _old_control_amplitude(cc, angles[0], rabi_max))


@pytest.mark.parametrize("shape", ["linear", "smooth-cosine"])
def test_in_place_schedule_is_bit_identical(shape):
    cc = math.sqrt(8.0)
    for start, end in ((0.0, math.pi / 2), (1.2, 0.0)):
        ramp = RampSchedule(start, end, duration=3.7, shape=shape)
        t = np.linspace(-0.5, 4.5, 20_001)      # clamped at both ends
        theta = ramp.theta(t)
        assert np.array_equal(theta, _old_theta(ramp, t))
        assert ramp.theta(1.1) == _old_theta(ramp, 1.1)
        assert isinstance(ramp.theta(1.1), float)
        for rabi_max in (50.0 * cc, 3.0):       # the clamp bites at both
            control = control_amplitude(cc, theta, rabi_max)
            old = _old_control_amplitude(cc, theta, rabi_max)
            assert np.array_equal(control, old)
            assert np.any(control == rabi_max)
    edge = np.array([0.0, 1e-13, 1e-12, 2e-12, np.nan, math.pi / 2])
    assert np.array_equal(control_amplitude(cc, edge, np.inf),
                          _old_control_amplitude(cc, edge, np.inf),
                          equal_nan=True)
    assert control_amplitude(cc, 0.4, 10.0) == \
        _old_control_amplitude(cc, 0.4, 10.0)


def test_dense_sweep_matches_the_sweep_on_the_stage_loop(monkeypatch):
    params = make_params(8, rabi=0.0)
    space = joint_space(params, 1)
    initial = with_field_occupation(vacuum(space), (1,))
    cc = params.collective_coupling
    ramp = RampSchedule(0.0, math.pi / 2, duration=2.0 / cc)
    compiled = adiabatic_sweep(initial, params, ramp, rabi_max=50.0 * cc)

    assert eit.sector_operator is sector_operator
    dense = []

    def as_dense(*args):
        dense.append(operator_matrix(*args))
        return dense[-1]

    monkeypatch.setattr(eit, "sector_operator", as_dense)
    staged = adiabatic_sweep(initial, params, ramp, rabi_max=50.0 * cc)
    assert [h.shape for h in dense] == [(17, 17)] * 2
    assert (compiled.dt, compiled.n_steps) == (staged.dt, staged.n_steps)
    assert compiled.n_steps == 10_000
    for name in ("times", "rabi", "theta", "norms", "dark_fidelity",
                 "photon_expectation", "c_population"):
        a, b = getattr(compiled, name), getattr(staged, name)
        assert a.shape == b.shape == (401,)
        assert_allclose(a, b, rtol=0, atol=1e-13, err_msg=name)
    assert (compiled.final_state - staged.final_state).norm() <= 1e-13


def _one_photon(n_atoms):
    params = make_params(n_atoms, rabi=0.0)
    return params, with_field_occupation(vacuum(joint_space(params, 1)), (1,))


def _recorded_sweep(monkeypatch, initial, params, ramp, **kwargs):
    """(trajectory, [(times, values)]): the sweep with every block of
    control times its rk4_propagate call asks the schedule for, in order."""
    blocks = []
    propagate = eit.rk4_propagate

    def recording(*args, control=None, **kw):
        def read(t):
            values = control(t)
            blocks.append((t.copy(), values.copy()))
            return values
        return propagate(*args, control=read, **kw)

    monkeypatch.setattr(eit, "rk4_propagate", recording)
    return adiabatic_sweep(initial, params, ramp, **kwargs), blocks


# one-step stretches around the half-steps the reader asks for at once
@pytest.mark.parametrize("n_steps", [_CONTROL_HALF_STEPS // 2 - 1,
                                     _CONTROL_HALF_STEPS // 2,
                                     _CONTROL_HALF_STEPS // 2 + 1])
@pytest.mark.parametrize("shape", ["linear", "smooth-cosine"])
@pytest.mark.parametrize("theta_start, theta_end, cap", [
    (0.0, math.pi / 2, 50.0), (math.pi / 2, 0.3, 50.0),
    (0.3, math.pi / 2, math.inf)], ids=["storage", "reversed", "no-clamp"])
def test_the_streamed_schedule_equals_the_one_shot_expression(
        monkeypatch, n_steps, shape, theta_start, theta_end, cap):
    params, initial = _one_photon(4)
    cc = params.collective_coupling
    rabi_max = cap * cc
    dt_max = eit.sweep_time_step(cc, control_amplitude(
        cc, min(theta_start, theta_end), rabi_max))
    ramp = RampSchedule(theta_start, theta_end,
                        duration=(n_steps - 0.5) * dt_max, shape=shape)
    traj, blocks = _recorded_sweep(monkeypatch, initial, params, ramp,
                                   rabi_max=rabi_max)
    assert traj.n_steps == n_steps
    # every half-step once, in order, in blocks of whole steps
    times = np.concatenate([t for t, _u in blocks])
    assert np.array_equal(times, np.arange(2 * n_steps + 1) * (traj.dt / 2))
    assert all(len(t) % 2 == 0 for t, _u in blocks[1:])
    one_shot = control_amplitude(cc, ramp.theta(np.linspace(
        0.0, ramp.duration, 2 * n_steps + 1)), rabi_max)
    assert np.array_equal(np.concatenate([u for _t, u in blocks]), one_shot)


def test_sample_controls_are_the_one_shot_expression_at_the_sample_steps():
    params, initial = _one_photon(4)
    cc = params.collective_coupling
    rabi_max = 50.0 * cc
    # 619 steps whose n dt falls short of T, where the linear ramp's
    # control differs: the last sample must be read at T itself
    ramp = RampSchedule(0.0, math.pi / 2, duration=0.06185297081149177,
                        shape="linear")
    assert control_amplitude(cc, ramp.theta(619 * (ramp.duration / 619)),
                             rabi_max) != control_amplitude(
        cc, ramp.theta(ramp.duration), rabi_max)
    for record_every in (None, 1, 7, 100_000):
        traj = adiabatic_sweep(initial, params, ramp, rabi_max=rabi_max,
                               record_every=record_every)
        n_steps = traj.n_steps
        assert n_steps == 619 and n_steps * traj.dt < ramp.duration
        steps = np.append(np.arange(0, n_steps, record_every or 1), n_steps)
        assert np.array_equal(traj.times, steps * traj.dt)
        one_shot = control_amplitude(cc, ramp.theta(np.linspace(
            0.0, ramp.duration, 2 * n_steps + 1)), rabi_max)
        assert np.array_equal(traj.rabi, one_shot[2 * steps])


def test_a_nan_sample_fails_the_sweep_drift_guard(monkeypatch):
    # a NaN norm compares false against the tolerance either way round
    params, initial = _one_photon(4)
    ramp = RampSchedule(0.0, math.pi / 2, duration=1.0)

    def nan_sample(h0, psi0, dt, n_steps, on_sample=None, **kwargs):
        on_sample(0, 0.0, np.full_like(psi0, math.nan))
        return psi0

    monkeypatch.setattr(eit, "rk4_propagate", nan_sample)
    with pytest.raises(IntegrationError, match="drifted to nan"):
        adiabatic_sweep(initial, params, ramp)


def test_a_control_past_the_float_range_is_clamped_without_a_warning():
    # g sqrt(N) / sin(theta), with sin clamped at 1e-300, overflows at
    # theta = 0 once g sqrt(N) > 1.8e8
    assert control_amplitude(1e10, 0.0, rabi_max=5e11) == 5e11
    assert np.array_equal(control_amplitude(1e10, np.array([0.0, 0.0]),
                                            rabi_max=math.inf),
                          [math.inf, math.inf])


def test_sweep_memory_is_flat_in_the_step_count():
    # stretches of 5,000 steps on both sides, so the blocks of step matrices
    # (sized by the stretch, up to STEP_BLOCK_BYTES) are the same; only the
    # step count and the few samples grow
    params, initial = _one_photon(4)
    cc = params.collective_coupling

    def traced_peak(duration_coupling):
        ramp = RampSchedule(0.0, math.pi / 2, duration=duration_coupling / cc)
        tracemalloc.start()
        try:
            n_steps = adiabatic_sweep(initial, params, ramp,
                                      record_every=5_000).n_steps
            return n_steps, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1.0)        # lazy set-up before the measured runs
    n_short, short = traced_peak(4.0)
    n_long, long = traced_peak(16.0)
    assert (n_short, n_long) == (20_000, 80_000)
    assert long - short < 64 * 1024


def test_short_sweep_stores_the_photon(tmp_path):
    params = make_params(8, rabi=0.0)
    space = joint_space(params, 1)
    initial = with_field_occupation(vacuum(space), (1,))
    cc = params.collective_coupling
    ramp = RampSchedule(0.0, math.pi / 2, duration=50.0 / cc)
    traj = adiabatic_sweep(initial, params, ramp, rabi_max=10.0 * cc)
    target = dark_state(params, 1, form="exact", space=space,
                        theta=math.pi / 2)
    assert fidelity(traj.final_state, target) >= 0.95
    assert traj.norm_drift < 1e-8
    assert traj.photon_expectation[0] == pytest.approx(1.0, abs=1e-12)
    assert traj.photon_expectation[-1] < 0.05
    assert traj.c_population[-1] > 0.95
    # the dark-manifold weight starts high: the clamped control pins
    # theta near zero where the photon itself is (almost) dark
    assert traj.dark_fidelity[0] > 0.99
    out = tmp_path / "trajectory.csv"
    traj.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "t,rabi,theta,norm,dark_fidelity,photon_expectation,c_population"
    assert len(out.read_text().splitlines()) == len(traj.times) + 1


def test_sweep_refuses_a_non_unit_initial_state():
    params = make_params(4, rabi=0.0)
    space = joint_space(params, 1)
    initial = 2.0 * with_field_occupation(vacuum(space), (1,))
    ramp = RampSchedule(0.0, math.pi / 2, duration=1.0)
    with pytest.raises(NotNormalizedError, match="norm 2.0"):
        adiabatic_sweep(initial, params, ramp)
    with pytest.raises(NotNormalizedError, match="1e-12"):
        adiabatic_sweep((1.0 + 1e-10) * initial / 2.0, params, ramp,
                        norm_drift_tol=1e-12)


def _nan_ket():
    # a ket refuses a NaN amplitude when it is built, so plant one: the
    # fidelity's own guard must still refuse a NaN norm
    ket = 1.0 * vacuum(atomic_space(2, 1))
    ket.amps = np.full_like(ket.amps, math.nan)
    return ket


@pytest.mark.parametrize("build, error", [
    (lambda: BosonicState([[math.nan, 0.0], [0.0, 0.0]]), NotNormalizedError),
    (lambda: fidelity(_nan_ket(), vacuum(atomic_space(2, 1))),
     NotNormalizedError),
    (lambda: fidelity(vacuum(atomic_space(2, 1)), _nan_ket()),
     NotNormalizedError),
    (lambda: RampSchedule(0.0, 1.0, duration=math.nan), ValueError),
    (lambda: RampSchedule(0.0, 1.0, duration=math.inf), ValueError),
    (lambda: make_params(4, g=math.nan), ValueError),
    (lambda: make_params(4, g=math.inf), ValueError),
    (lambda: make_params(4, rabi=math.nan), ValueError),
    (lambda: make_params(4, rabi=math.inf), ValueError),
], ids=["bosonic-state", "fidelity-x", "fidelity-y", "duration-nan",
        "duration-inf", "g-nan", "g-inf", "rabi-nan", "rabi-inf"])
def test_non_finite_inputs_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_sweep_rejects_bad_inputs():
    params = make_params(4, rabi=0.0)
    space = joint_space(params, 1)
    initial = with_field_occupation(vacuum(space), (1,))
    ramp = RampSchedule(0.0, math.pi / 2, duration=1.0)
    with pytest.raises(ValueError):
        adiabatic_sweep(SparseKet.zero(space), params, ramp)
    with pytest.raises(ValueError):
        adiabatic_sweep(initial, params, ramp, rabi_max=-1.0)
    with pytest.raises(ValueError, match="record_every"):
        adiabatic_sweep(initial, params, ramp, record_every=0)


def test_sweep_names_a_nan_rabi_max_and_takes_an_infinite_one():
    params = make_params(4, rabi=0.0)
    initial = with_field_occupation(vacuum(joint_space(params, 1)), (1,))
    ramp = RampSchedule(0.0, math.pi / 2, duration=1.0)
    with pytest.raises(ValueError, match="rabi_max"):
        adiabatic_sweep(initial, params, ramp, rabi_max=math.nan)
    # an infinite cap switches the clamp off; from theta = 0.3 the control
    # g sqrt(N) cot(theta) stays finite
    ramp = RampSchedule(0.3, math.pi / 2, duration=1.0)
    traj = adiabatic_sweep(initial, params, ramp, rabi_max=math.inf)
    assert traj.norm_drift <= 1e-8


def test_sweep_refuses_an_infinite_rabi_max_on_a_ramp_to_theta_zero():
    params = make_params(4, rabi=0.0)
    initial = with_field_occupation(vacuum(joint_space(params, 1)), (1,))
    # theta = 0 needs an unbounded control, so no step size resolves it
    for ramp in (RampSchedule(0.0, math.pi / 2, duration=1.0),
                 RampSchedule(math.pi / 2, 0.0, duration=1.0)):
        with pytest.raises(ValueError,
                           match=r"rabi_max = inf cannot realize theta = 0"):
            adiabatic_sweep(initial, params, ramp, rabi_max=math.inf)


def _random_vector(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


@pytest.mark.parametrize("geometry", ["lattice", "uniform_random"])
@pytest.mark.parametrize("totals", [[1], [2], [3], [1, 2]],
                         ids=["1", "2", "3", "1+2"])
def test_dark_manifold_weight_matches_the_dark_state_oracle(geometry, totals):
    if geometry == "lattice":
        geom = Geometry.lattice(5, 0.5)
    else:
        geom = Geometry.uniform_random(5, 2.5, seed=3)
    modes = ModeSet(1.0, 0.8, (0.0,), "raman")
    params = EitParams(geom, modes, 1.0, rabi=1.0)
    space = joint_space(params, max(totals))
    basis = enumerate_sector(space, totals)
    manifold = eit.dark_manifold(params, basis)
    rng = np.random.default_rng(11)
    for theta in (0.0, 1e-3, 0.4, 1.1, math.pi / 2):
        # one mode: one dark state per total, and distinct totals are
        # orthogonal, so the weight is a plain sum over the family
        darks = [ket_to_vector(polariton_ladder(
            params, {0.0: n}, space, theta), basis) for n in totals]
        near_dark = sum(_random_vector(rng, 1)[0] * d for d in darks)
        for psi in (_random_vector(rng, len(basis)),
                    near_dark + 0.2 * _random_vector(rng, len(basis))):
            expected = (sum(abs(np.vdot(d, psi)) ** 2 for d in darks)
                        / np.vdot(psi, psi).real)
            assert eit.dark_manifold_weight(psi, manifold, theta) \
                == pytest.approx(expected, rel=0, abs=1e-13)


@pytest.mark.parametrize("detunings, theta", [
    # the spin waves at k_eff(0) and k_eff(0.3) overlap on 8 atoms
    ((0.0, 0.3), 0.3), ((0.0, 0.3), math.pi / 2),
    # k_eff(0) and k_eff(2 pi) agree modulo 2 pi / spacing: at theta = pi/2
    # both patterns have one dark state and the family is degenerate
    ((0.0, 2 * math.pi), 0.3), ((0.0, 2 * math.pi), math.pi / 2),
], ids=["overlap-0.3", "overlap-pi/2", "degenerate-0.3", "degenerate-pi/2"])
def test_dark_manifold_weight_is_a_projection_when_patterns_overlap(
        detunings, theta):
    modes = ModeSet(1.0, 0.4, detunings, "raman")
    params = EitParams(Geometry.lattice(8, 1.0), modes, 0.8, rabi=1.0)
    space = joint_space(params, 1)
    basis = enumerate_sector(space, [1])
    manifold = eit.dark_manifold(params, basis)
    darks = [ket_to_vector(polariton_ladder(params, {q: 1}, space, theta),
                           basis) for q in detunings]
    assert abs(np.vdot(darks[0], darks[1])) > 0.05
    for dark in darks:
        assert eit.dark_manifold_weight(dark, manifold, theta) \
            == pytest.approx(1.0, rel=0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = _random_vector(rng, 2)
        psi = (c[0] * darks[0] + c[1] * darks[1]
               + 0.01 * _random_vector(rng, len(darks[0])))
        assert eit.dark_manifold_weight(psi, manifold, theta) <= 1.0 + 1e-12
