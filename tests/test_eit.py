import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    EitParams,
    Geometry,
    ModeSet,
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

from oracles import dense_rho


def make_params(n_atoms, fock_cap=2, q=0.0, rabi=1.0, g=1.0,
                include_free_term=False):
    geom = Geometry.lattice(n_atoms, 0.5)
    modes = ModeSet(1.0, 0.8, (q,), "raman", fock_cap=fock_cap)
    return EitParams(geom, modes, g, rabi, include_free_term=include_free_term)


def test_hamiltonian_is_hermitian_on_sector_basis():
    params = make_params(4, fock_cap=2, rabi=0.7, include_free_term=True)
    space = joint_space(params, 2)
    basis = enumerate_sector(space, [1, 2])
    h = operator_matrix(lambda ket: apply_hamiltonian(ket, params),
                        space, basis)
    assert_allclose(h, h.conj().T, atol=1e-13)


def test_hamiltonian_matches_dense_oracle():
    # one detuned mode with Fock cap 2, 3 atoms, a_max 2, free term and
    # control both on; the reference is H written out on (field) x 3^N
    q, g, rabi, k_s, k_c = 0.3, 0.9, 0.7, 1.0, 0.8
    geom = Geometry.uniform_random(3, length=3.0, seed=21)
    params = EitParams(geom, ModeSet(k_s, k_c, (q,), "raman", fock_cap=2),
                       g, rabi, include_free_term=True)
    space = joint_space(params, 2)
    assert (space.mode_caps, space.a_max) == ((2,), 2)
    basis = enumerate_sector(space, [0, 1, 2])
    h = operator_matrix(lambda ket: apply_hamiltonian(ket, params),
                        space, basis)

    n, z = 3, geom.positions
    low = np.diag(np.sqrt([1.0, 2.0]), 1)        # <m-1| a |m> = sqrt(m)
    coupling = (g * n * np.kron(low, dense_rho(z, k_s + q, src="b", dst="a"))
                + rabi * n * np.kron(np.eye(3),
                                     dense_rho(z, k_c, src="c", dst="a")))
    dense = (q * np.kron(low.T @ low, np.eye(3 ** n))
             - 0.5 * (coupling + coupling.conj().T))
    idx = [label.field[0] * 3 ** n
           + sum(3 ** j for j in label.atoms.c_sites)
           + sum(2 * 3 ** j for j in label.atoms.a_sites) for label in basis]
    assert_allclose(h, dense[np.ix_(idx, idx)], atol=1e-13)


@pytest.mark.parametrize("n_atoms", [4, 8])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_exact_dark_state_nulls_the_coupling(n_atoms, n, theta):
    params = make_params(n_atoms, fock_cap=n,
                         rabi=math.sqrt(n_atoms) / math.tan(theta))
    assert params.theta == pytest.approx(theta)
    residual = null_eigenvalue_residual(params, n, form="exact")
    assert residual <= 1e-10


def test_exact_form_raw_norm_at_small_n():
    # two quanta on four atoms at theta = pi/4: the raw polariton-ladder
    # product (psi-dagger)^2 / sqrt(2!) on the vacuum has norm sqrt(15)/4
    params = make_params(4, fock_cap=2, rabi=2.0)  # tan(theta)=sqrt(4)/2=1
    assert params.theta == pytest.approx(math.pi / 4)
    raw = dark_state(params, 2, form="exact", normalized=False)
    assert raw.norm() == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-13)


def test_approx_form_is_exactly_normalized():
    for n_atoms, n in [(4, 2), (8, 3)]:
        params = make_params(n_atoms, fock_cap=n, rabi=1.3)
        raw = dark_state(params, n, form="approx", normalized=False)
        assert raw.norm() == pytest.approx(1.0, abs=1e-13)


def test_approx_residual_shrinks_with_atom_number():
    residuals = {}
    for n_atoms in (8, 16):
        params = make_params(n_atoms, fock_cap=2,
                             rabi=math.sqrt(n_atoms))  # theta = pi/4
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
    params = make_params(n_atoms, fock_cap=n + 1)
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
    params = make_params(5, fock_cap=2, rabi=1.0)
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


def test_polariton_dagger_builds_the_dark_state():
    params = make_params(4, fock_cap=1, rabi=2.0)
    space = joint_space(params, 1)
    built = apply_polariton(vacuum(space), params, dagger=True)
    target = dark_state(params, 1, space=space, normalized=False)
    # (psi-dagger) |vac> is the raw one-quantum dark state up to sign
    assert min((built - target).norm(), (built + target).norm()) < 1e-13


def test_multimode_dark_state_nulls_the_coupling():
    geom = Geometry.lattice(6, 0.5)
    modes = ModeSet(1.0, 0.8, (0.0, 0.3), "raman", fock_cap=2)
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


def test_short_sweep_stores_the_photon(tmp_path):
    params = make_params(8, fock_cap=1, rabi=0.0)
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


def test_sweep_rejects_bad_inputs():
    params = make_params(4, fock_cap=1, rabi=0.0)
    space = joint_space(params, 1)
    initial = with_field_occupation(vacuum(space), (1,))
    ramp = RampSchedule(0.0, math.pi / 2, duration=1.0)
    with pytest.raises(ValueError):
        adiabatic_sweep(SparseKet.zero(space), params, ramp)
    with pytest.raises(ValueError):
        adiabatic_sweep(initial, params, ramp, rabi_max=-1.0)
    with pytest.raises(ValueError, match="record_every"):
        adiabatic_sweep(initial, params, ramp, record_every=0)
