import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    BosonicState,
    EitParams,
    FockOverflowError,
    Geometry,
    IntegrationError,
    ModeSet,
    NotNormalizedError,
    SectorOverflowError,
    StateSpace,
    associate_state,
    bosonic_to_joint,
    evolve_analytic,
    evolve_exact_atoms,
    evolve_numeric,
    exact_vs_analytic_deviation,
    expected_swap_state,
    fidelity,
    joint_space,
    rotation_grids,
    subsystem_purity,
    swap_check,
    transfer_curve,
    transfer_space,
    write_transfer_csv,
)
from coldstore import transfer
from coldstore.harness import run
from coldstore.propagate import enumerate_sector, sector_operator
from coldstore.states import SparseKet
from coldstore.storage import (StorageSpec, storage_direct, vacuum,
                               with_field_occupation)

from oracles import (closed_form_rotation, expm_evolve, field_purity,
                     two_boson_hamiltonian)


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


def test_the_purity_of_a_sequence_is_that_of_each_state_bit_for_bit():
    # one stacked Gram matmul for the sequence, one stack of one per state
    evolved = [evolve_analytic(BosonicState.fock(2, 1), x)
               for x in np.linspace(0.0, math.pi, 17)]
    purities = subsystem_purity(evolved)
    assert purities.shape == (17,)
    assert np.array_equal(purities, [subsystem_purity(s) for s in evolved])
    assert np.array_equal(purities, subsystem_purity(
        np.stack([s.amplitudes for s in evolved])))
    assert isinstance(subsystem_purity(evolved[3]), float)
    assert transfer_curve(BosonicState.fock(1, 0), []) == []


@pytest.mark.parametrize("caps", [(1, 1), (2, 2), (3, 2), (2, 4), (4, 4)])
def test_the_purity_is_that_of_the_eigenvalue_oracle(caps):
    rng = np.random.default_rng(sum(caps) * 7 + caps[0])
    stack = np.stack([random_bosonic(rng, *caps).amplitudes
                      for _ in range(24)])
    expected = [field_purity(grid) for grid in stack]
    assert max(expected) < 1.0 - 1e-3        # entangled, every one
    assert np.max(np.abs(subsystem_purity(stack) - expected)) <= 1e-14
    # a product state u (x) v is pure in each mode
    shape = (7, caps[0] + 1, caps[1] + 1)
    u, v = (rng.normal(size=shape[:1] + (n,)) + 1j * rng.normal(
        size=shape[:1] + (n,)) for n in shape[1:])
    products = u[:, :, None] * v[:, None, :]
    products /= np.linalg.norm(products, axis=(1, 2), keepdims=True)
    assert np.max(np.abs(subsystem_purity(products) - 1.0)) <= 1e-15


@pytest.mark.parametrize("config", [
    None, {"n_atoms_list": [4, 8, 16, 24], "deviation_m": 3}])
def test_the_transfer_scenario_runs_without_an_svd(monkeypatch, config):
    # the default scenario and the sector benchmark's config: the purity
    # scan needs no LAPACK routine
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    report = run("dynamic-transfer", config)
    assert report.all_passed, [c for c in report.checks if not c.passed]


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


# exact_vs_analytic_deviation(|3, 0>, N-atom 0.5 lattice, 1.0, pi/2) as
# computed on kets: the evolution rebuilt as a ket, the mapped closed form
# subtracted and the norm of the difference ket taken
_KET_DEVIATIONS = {4: 0.47433489165178727, 8: 0.21777745663466996,
                   16: 0.10469210793898474, 24: 0.06890787685442604}


def test_the_deviation_runs_on_sector_vectors_without_a_sort(monkeypatch):
    def refuse(keys):
        raise AssertionError("np.lexsort called")
    monkeypatch.setattr(np, "lexsort", refuse)
    for n_atoms, want in _KET_DEVIATIONS.items():
        got = exact_vs_analytic_deviation(
            BosonicState.fock(3, 0), Geometry.lattice(n_atoms, 0.5), 1.0,
            math.pi / 2)
        assert abs(got - want) <= 1e-15, n_atoms


def test_fock_refuses_occupations_outside_its_grid():
    with pytest.raises(ValueError, match="nonnegative"):
        BosonicState.fock(-1, 0, photon_cap=3, excitation_cap=3)
    with pytest.raises(ValueError, match="nonnegative"):
        BosonicState.fock(0, -2)
    with pytest.raises(FockOverflowError, match=r"caps \(2, 3\)"):
        BosonicState.fock(3, 0, photon_cap=2)
    with pytest.raises(FockOverflowError, match=r"caps \(4, 1\)"):
        BosonicState.fock(0, 2, photon_cap=4, excitation_cap=1)
    state = BosonicState.fock(2, 1, photon_cap=4, excitation_cap=1)
    assert state.amplitudes.shape == (5, 2) and state.amplitudes[2, 1] == 1


def test_from_product_refuses_amplitude_lists_past_their_caps():
    with pytest.raises(FockOverflowError, match=r"caps \(3, 5\)"):
        BosonicState.from_product(np.ones(5) / 5 ** 0.5, [1.0], photon_cap=3,
                                  excitation_cap=5)
    with pytest.raises(FockOverflowError):
        BosonicState.from_product([1.0], [0.6, 0.8], excitation_cap=0)


def _bosonic_to_joint_term_by_term(state, geometry, k, space):
    """The sum of xi[m, n] |m> |n at k> one nonzero amplitude at a time."""
    out = SparseKet.zero(space)
    for m, n in zip(*np.nonzero(state.amplitudes)):
        atomic = storage_direct(StorageSpec(geometry, ((k, int(n)),)),
                                space=space) if n else vacuum(space)
        out = out + state.amplitudes[m, n] * with_field_occupation(
            atomic, (int(m),))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_bosonic_to_joint_is_the_term_by_term_sum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n_atoms, cap_p, cap_q = int(rng.integers(2, 7)), 3, 2
    xi = rng.normal(size=(cap_p + 1, cap_q + 1)) \
        + 1j * rng.normal(size=(cap_p + 1, cap_q + 1))
    xi[rng.random(xi.shape) < 0.4] = 0.0
    xi[0, 0] = xi[0, 0] or 0.5          # an n = 0 column, never empty
    state = BosonicState(xi / np.linalg.norm(xi))
    geom, k = Geometry.lattice(n_atoms, 0.45), float(rng.uniform(-2, 2))
    quanta = state.max_quanta()
    for space in (transfer_space(n_atoms, quanta, k),
                  transfer_space(n_atoms, quanta + 2, k)):   # a wider one
        got = bosonic_to_joint(state, geom, k, space=space)
        want = _bosonic_to_joint_term_by_term(state, geom, k, space)
        assert got.labels() == want.labels()
        assert np.array_equal(got.amps.view(float), want.amps.view(float))
    assert bosonic_to_joint(state, geom, k).labels() == \
        _bosonic_to_joint_term_by_term(
            state, geom, k, transfer_space(n_atoms, quanta, k)).labels()


def test_quanta_sized_spaces_have_the_written_out_fields():
    # the one sizing rule behind transfer_space and joint_space: every mode
    # and the atoms take the whole budget of q quanta, one per atom
    for n_atoms, q in itertools.product(range(1, 7), range(5)):
        n_exc = min(q, n_atoms)
        assert transfer_space(n_atoms, q, 0.4) == StateSpace(
            n_atoms=n_atoms, n_exc_max=n_exc, a_max=0, modes=(0.4,),
            mode_caps=(q,), photon_cap=q)
        for detunings in ((0.0,), (0.0, 0.3)):
            params = EitParams(Geometry.lattice(n_atoms, 0.5),
                               ModeSet(1.0, 0.8, detunings), 1.0, 0.5)
            assert joint_space(params, q) == StateSpace(
                n_atoms=n_atoms, n_exc_max=n_exc, a_max=n_exc,
                modes=detunings, mode_caps=(q,) * len(detunings),
                photon_cap=q)
            assert joint_space(params, q, a_max=0) == StateSpace(
                n_atoms=n_atoms, n_exc_max=n_exc, a_max=0, modes=detunings,
                mode_caps=(q,) * len(detunings), photon_cap=q)


def test_bosonic_to_joint_keeps_its_overflow_errors():
    geom = Geometry.lattice(4, 0.5)
    state = BosonicState.fock(3, 1)
    with pytest.raises(FockOverflowError):
        bosonic_to_joint(state, geom, space=transfer_space(4, 2))
    with pytest.raises(SectorOverflowError):
        bosonic_to_joint(BosonicState.fock(1, 5), geom)


@pytest.mark.parametrize("seed", range(6))
def test_rotation_grids_are_the_scalar_closed_form_bit_for_bit(seed):
    rng = np.random.default_rng(40 + seed)
    cap = int(rng.integers(1, 6))
    xi = random_bosonic(rng, cap, cap).amplitudes.copy()
    xi[rng.random(xi.shape) < 0.3] = 0.0
    xi[cap // 2, cap - cap // 2] = 0.6
    state = BosonicState(xi / np.linalg.norm(xi))
    angles = list(rng.uniform(-7.0, 7.0, size=5)) + [0.0, math.pi / 2,
                                                     math.pi, 2 * math.pi]
    for x, grid in zip(angles, rotation_grids(state, angles)):
        assert np.array_equal(grid, closed_form_rotation(state.amplitudes, x))


def test_rotation_grids_are_the_one_angle_evolutions_bit_for_bit():
    # a grid does not depend on the other angles of its call
    rng = np.random.default_rng(21)
    state = random_bosonic(rng, 4, 4)
    angles = [0.0, 0.3, math.pi / 4, math.pi / 2, 2.9, -1.1, 2 * math.pi]
    grids = rotation_grids(state, angles)
    assert grids.shape == (len(angles), 5, 5)
    for x, grid in zip(angles, grids):
        for company in ([x], [x, 1.0], [0.5, x]):
            alone = rotation_grids(state, company)[company.index(x)]
            assert np.array_equal(alone, grid)
        assert np.array_equal(evolve_analytic(state, x).amplitudes, grid)
    assert rotation_grids(state, []).shape == (0, 5, 5)


def test_transfer_curve_purities_are_those_of_the_one_angle_evolutions():
    state = random_bosonic(np.random.default_rng(22), 3, 3)
    grid = np.linspace(-1.0, math.pi, 23)
    rows = transfer_curve(state, grid)
    for x, row in zip(grid, rows):
        evolved = evolve_analytic(state, float(x))
        assert abs(row["purity"] - subsystem_purity(evolved)) <= 1e-15
        assert row["fidelity_initial"] == evolved.fidelity_with(state)
    assert transfer_curve(state, []) == []


@pytest.mark.parametrize("n_atoms", [*range(1, 17), 24])
def test_the_compiled_transfer_hamiltonian_is_both_terms_bit_for_bit(n_atoms):
    # T + T^dag from T's triplets against compiling a sigma^dag + a^dag sigma:
    # the same rows, columns and amplitude bits (signed zeros too), in order
    geom = Geometry.lattice(n_atoms, 0.5)
    for quanta in (3,) if n_atoms == 24 else (1, 2, 3):
        for totals, k, rabi in itertools.product(
                ([quanta], range(quanta + 1)), (0.0, 1.3, -2.9),
                (1.0, -0.37, 1e-9, 3e5)):
            space = transfer_space(n_atoms, quanta, k)
            basis = enumerate_sector(space, totals)
            want = sector_operator(
                lambda ket: transfer._apply_transfer_hamiltonian(
                    ket, geom, k, rabi), space, basis)
            got = transfer._transfer_operator(basis, geom, k, rabi)
            assert got.shape == want.shape
            assert np.array_equal(got._rows, want._rows)
            assert np.array_equal(got._cols, want._cols)
            assert np.array_equal(got._amps.view(np.uint64),
                                  want._amps.view(np.uint64))


@pytest.mark.parametrize("caps, error, message", [
    # a^dag sigma on |2 photons; one atom in c> passes the mode's cap of 2
    (dict(n_exc_max=3, mode_caps=(2,)), FockOverflowError,
     "creation on mode 0 exceeds its Fock cap"),
    # ... or the total photon cap of 2 below a mode cap of 3
    (dict(n_exc_max=3, mode_caps=(3,), photon_cap=2), FockOverflowError,
     "creation on mode 0 exceeds its Fock cap"),
    # sigma^dag a on |1 photon; two atoms in c> passes n_exc_max = 2
    (dict(n_exc_max=2, mode_caps=(3,)), SectorOverflowError,
     r"moving an atom b -> c would exceed the sector caps \(n_exc_max 2"),
    # both bind: the atoms' cap is met first, as when both terms are applied
    (dict(n_exc_max=2, mode_caps=(2,)), SectorOverflowError,
     r"moving an atom b -> c would exceed the sector caps \(n_exc_max 2"),
])
def test_exact_atoms_keeps_the_errors_of_a_binding_cap(caps, error, message):
    space = StateSpace(n_atoms=4, a_max=0, modes=(0.0,), **caps)
    initial = SparseKet(space, {space.label(c_sites=[0], field=(2,)): 1.0})
    with pytest.raises(error, match=message):
        evolve_exact_atoms(initial, 1.0, 0.3, Geometry.lattice(4, 0.5))
