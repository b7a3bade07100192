import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    BosonicState,
    FockOverflowError,
    Geometry,
    IntegrationError,
    NotNormalizedError,
    SectorOverflowError,
    associate_state,
    bosonic_to_joint,
    evolve_analytic,
    evolve_exact_atoms,
    evolve_numeric,
    exact_vs_analytic_deviation,
    expected_swap_state,
    fidelity,
    subsystem_purity,
    swap_check,
    transfer_curve,
    write_transfer_csv,
)
from coldstore import transfer

from oracles import expm_evolve, two_boson_hamiltonian


def random_bosonic(rng, cap_p, cap_q):
    """Random state whose quanta all fit after any rotation."""
    xi = rng.normal(size=(cap_p + 1, cap_q + 1)) \
        + 1j * rng.normal(size=(cap_p + 1, cap_q + 1))
    m_idx, n_idx = np.meshgrid(np.arange(cap_p + 1), np.arange(cap_q + 1),
                               indexing="ij")
    xi[(m_idx + n_idx) > min(cap_p, cap_q)] = 0.0
    xi /= np.linalg.norm(xi)
    return BosonicState(xi)


def test_bosonic_state_guards():
    with pytest.raises(NotNormalizedError):
        BosonicState(np.array([[0.5, 0.0], [0.0, 0.0]]))
    state = BosonicState.fock(2, 1, photon_cap=3, excitation_cap=2)
    assert state.amplitudes[2, 1] == 1.0
    assert state.photon_cap == 3
    assert state.excitation_cap == 2
    assert state.max_quanta() == 3
    assert state.norm() == pytest.approx(1.0)
    other = BosonicState.fock(0, 0, photon_cap=1, excitation_cap=1)
    with pytest.raises(ValueError):
        state.overlap(other)  # incompatible grids


def test_from_product_and_fidelity():
    field = np.array([1.0, 1.0]) / math.sqrt(2)
    atom = np.array([0.0, 1.0])
    state = BosonicState.from_product(field, atom)
    assert state.amplitudes[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[1, 1] == pytest.approx(1 / math.sqrt(2))
    assert state.fidelity_with(state) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_rotation_matches_expm_oracle(seed):
    rng = np.random.default_rng(seed)
    cap_p, cap_q = 3, 3
    state = random_bosonic(rng, cap_p, cap_q)
    rabi, t = 0.9, 1.7
    h = two_boson_hamiltonian(cap_p, cap_q, rabi)
    # oracle indexes |m photons, n excitations> as m*(cap_q+1)+n; the
    # rotation conserves total quanta, so totals <= cap never see the
    # truncation and the two evolutions agree entrywise
    psi = expm_evolve(h, state.amplitudes.ravel(), t)
    got = evolve_analytic(state, rabi * t)
    assert_allclose(got.amplitudes.ravel(), psi, atol=1e-12)


def test_analytic_rotation_exact_on_safe_grid():
    # totals <= min(caps): no truncation anywhere, oracle agrees entrywise
    rng = np.random.default_rng(3)
    xi = np.zeros((4, 4), dtype=complex)
    for (m, n) in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)]:
        xi[m, n] = rng.normal() + 1j * rng.normal()
    xi /= np.linalg.norm(xi)
    state = BosonicState(xi)
    rabi, t = 1.3, 0.8
    h = two_boson_hamiltonian(3, 3, rabi)
    psi = expm_evolve(h, state.amplitudes.ravel(), t)
    got = evolve_analytic(state, rabi * t)
    assert_allclose(got.amplitudes.ravel(), psi, atol=1e-12)


def test_rotation_checkpoints_single_quantum():
    one_photon = BosonicState.fock(1, 0)
    quarter = evolve_analytic(one_photon, math.pi / 2)
    assert quarter.amplitudes[0, 1] == pytest.approx(-1j)
    half = evolve_analytic(one_photon, math.pi)
    assert half.amplitudes[1, 0] == pytest.approx(-1.0)
    full = evolve_analytic(one_photon, 2 * math.pi)
    assert full.amplitudes[1, 0] == pytest.approx(1.0)


def test_overflow_rejected_by_analytic_map():
    # 3 quanta, but the grid only admits rotations up to total 1
    state = BosonicState.fock(2, 1, photon_cap=2, excitation_cap=1)
    with pytest.raises(FockOverflowError):
        evolve_analytic(state, 0.3)
    with pytest.raises(FockOverflowError):
        evolve_numeric(state, 1.0, 0.3)


def test_numeric_integrator_at_zero_time_is_identity():
    state = BosonicState.fock(1, 0)
    for rabi in (0.0, 1.3):
        out = evolve_numeric(state, rabi, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)


def test_numeric_integrator_matches_analytic():
    rng = np.random.default_rng(7)
    xi = np.zeros((4, 4), dtype=complex)
    for (m, n) in [(0, 0), (1, 0), (0, 2), (2, 0), (1, 1)]:
        xi[m, n] = rng.normal() + 1j * rng.normal()
    xi /= np.linalg.norm(xi)
    state = BosonicState(xi)
    rabi, t = 1.1, 2.3
    numeric = evolve_numeric(state, rabi, t)
    analytic = evolve_analytic(state, rabi * t)
    assert np.linalg.norm(numeric.amplitudes - analytic.amplitudes) < 1e-8


def test_associate_state_phase_maps():
    amps = np.array([1.0, 2.0, 3.0]) / math.sqrt(14)
    assert_allclose(associate_state(amps, "i"),
                    amps * np.array([1, 1j, -1]))
    assert_allclose(associate_state(amps, "-i"),
                    amps * np.array([1, -1j, -1]))
    assert_allclose(associate_state(amps, "-"),
                    amps * np.array([1, -1, 1]))
    with pytest.raises(ValueError):
        associate_state(amps, "j")


def test_expected_swap_state_quarter_periods():
    rng = np.random.default_rng(11)
    field = rng.normal(size=3) + 1j * rng.normal(size=3)
    field /= np.linalg.norm(field)
    atom = rng.normal(size=2) + 1j * rng.normal(size=2)
    atom /= np.linalg.norm(atom)
    # quarter period: field and atom swap, each picking up (-i)^count
    quarter = expected_swap_state(field, atom, math.pi / 2)
    direct = BosonicState.from_product(associate_state(atom, "-i"),
                                       associate_state(field, "-i"),
                                       photon_cap=len(field) - 1 + len(atom) - 1,
                                       excitation_cap=len(field) - 1 + len(atom) - 1)
    assert abs(quarter.overlap(direct)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        expected_swap_state(field, atom, 1.0)  # not a quarter period


def test_swap_check_random_occupations():
    rng = np.random.default_rng(13)
    for _ in range(4):
        field = rng.normal(size=4) + 1j * rng.normal(size=4)
        field /= np.linalg.norm(field)
        atom = rng.normal(size=4) + 1j * rng.normal(size=4)
        atom /= np.linalg.norm(atom)
        report = swap_check(field, atom)
        assert len(report.checkpoints) == 4
        assert report.min_fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.all_within(1e-10)


def test_purity_dip_at_equal_superposition():
    # one photon: purity cos^4 + sin^4, minimal (1/2) at omega_t = pi/4
    one = BosonicState.fock(1, 0)
    for omega_t in (0.0, 0.3, math.pi / 4, 1.1):
        rotated = evolve_analytic(one, omega_t)
        expected = math.cos(omega_t) ** 4 + math.sin(omega_t) ** 4
        assert subsystem_purity(rotated) == pytest.approx(expected, abs=1e-12)
    assert subsystem_purity(evolve_analytic(one, math.pi / 4)) \
        == pytest.approx(0.5, abs=1e-12)


def test_transfer_curve_and_csv(tmp_path):
    state = BosonicState.fock(1, 0)
    grid = np.linspace(0.0, math.pi, 9)
    rows = transfer_curve(state, grid)
    assert [r["omega_t"] for r in rows] == pytest.approx(list(grid))
    assert rows[0]["fidelity_initial"] == pytest.approx(1.0)
    assert rows[-1]["fidelity_initial"] == pytest.approx(1.0)  # (-1)^1 phase
    path = tmp_path / "curve.csv"
    write_transfer_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_t,fidelity_initial,purity"
    assert len(lines) == 10


def test_bosonic_to_joint_norm_and_overflow():
    geom = Geometry.lattice(4, 0.5)
    state = BosonicState.fock(1, 1)
    joint = bosonic_to_joint(state, geom)
    assert joint.norm() == pytest.approx(1.0, abs=1e-12)
    too_many = BosonicState.fock(0, 3, excitation_cap=5)
    with pytest.raises(SectorOverflowError):
        bosonic_to_joint(too_many, Geometry.lattice(2, 0.5))


def test_exact_atoms_identity_at_t_zero():
    geom = Geometry.lattice(4, 0.5)
    state = BosonicState.fock(1, 1)
    joint = bosonic_to_joint(state, geom)
    evolved = evolve_exact_atoms(joint, rabi=1.0, t=0.0, geometry=geom)
    assert fidelity(evolved, joint) == pytest.approx(1.0, abs=1e-12)


def _refuse(*args, **kwargs):
    raise AssertionError("built before rabi was checked")


@pytest.mark.parametrize("rabi", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evolve", ["exact_atoms", "numeric"])
def test_transfer_evolutions_refuse_a_non_finite_rabi(monkeypatch, evolve,
                                                      rabi):
    # nothing may be enumerated or assembled before rabi is refused
    for name in ("enumerate_sector", "sector_operator",
                 "_two_boson_hamiltonian"):
        monkeypatch.setattr(transfer, name, _refuse)
    state = BosonicState.fock(1, 1)
    geom = Geometry.lattice(4, 0.5)
    joint = bosonic_to_joint(state, geom)
    for t in (0.0, 0.7):
        with pytest.raises(ValueError, match="rabi"):
            if evolve == "numeric":
                evolve_numeric(state, rabi, t)
            else:
                evolve_exact_atoms(joint, rabi, t, geom)


def test_a_nan_result_fails_the_exact_atoms_drift_guard(monkeypatch):
    # a NaN drift compares false against the tolerance either way round
    monkeypatch.setattr(transfer, "rk4_propagate",
                        lambda h, psi0, dt, n_steps: np.full_like(psi0,
                                                                  math.nan))
    geom = Geometry.lattice(4, 0.5)
    joint = bosonic_to_joint(BosonicState.fock(1, 1), geom)
    with pytest.raises(IntegrationError, match="drifted by nan"):
        evolve_exact_atoms(joint, rabi=1.0, t=0.7, geometry=geom)


def test_exact_atoms_deviation_shrinks_with_n():
    rng = np.random.default_rng(17)
    xi = np.zeros((3, 3), dtype=complex)
    for (m, n) in [(2, 0), (1, 1), (0, 2)]:
        xi[m, n] = rng.normal() + 1j * rng.normal()
    xi /= np.linalg.norm(xi)
    state = BosonicState(xi)
    devs = []
    for n_atoms in (4, 8):
        geom = Geometry.lattice(n_atoms, 0.5)
        devs.append(exact_vs_analytic_deviation(state, geom, rabi=1.0,
                                                t=math.pi / 3))
    assert devs[1] < devs[0]
    assert devs[0] < 0.5
