"""Properties that need no oracle, or only the dense ones, over small random
geometries.

Lattices and uniform random draws of 3 to 8 atoms, at most 3 quanta and a
random wavevector: every collective operator matches its dense oracle on a
random ket and refuses a ket at the caps, every sector operator equals its
conjugate transpose and its column-by-column dense matrix, transfer dynamics
run with -Omega after Omega return the initial ket, and neither permuting
the atoms nor the storage wavevector (a per-atom gauge) changes a deviation.
An exact dark state built by the polariton ladder has dark-manifold weight 1
at every mixing angle, and sweeps, transfer dynamics and the two-boson
integration keep the weight of each total quantum number (photons + c + a).
Each check holds for any
geometry and wavevector, so it reaches phases that a lattice at k = 0 never
exercises.  The sector enumeration lists what a brute-force product over
every atom's level and every mode's occupation keeps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pytest

from coldstore import (
    BosonicState,
    EitParams,
    FockOverflowError,
    Geometry,
    IntegrationError,
    ModeSet,
    RampSchedule,
    SectorOverflowError,
    SparseKet,
    StateSpace,
    adiabatic_sweep,
    apply_field,
    apply_hamiltonian,
    apply_polariton,
    apply_population,
    apply_sigma,
    atomic_space,
    bosonic_to_joint,
    enumerate_sector,
    estimate_sector_size,
    evolve_exact_atoms,
    evolve_numeric,
    exact_vs_analytic_deviation,
    joint_space,
    operator_matrix,
    phase_sum,
    sigma_commutator_element,
    transfer_space,
    vacuum,
    with_field_occupation,
)
from coldstore.eit import (
    apply_control_coupling,
    dark_manifold,
    dark_manifold_weight,
)
from coldstore.operators import apply_rho_ab, apply_rho_ac
from coldstore.propagate import ket_to_vector, sector_operator
from coldstore.transfer import _apply_transfer_hamiltonian

from oracles import (
    bc_ket_to_dense,
    dense_population,
    dense_rho,
    dense_sigma,
    sector_labels,
    three_level_ket_to_dense,
)


@st.composite
def geometries(draw, max_atoms=7):
    n_atoms = draw(st.integers(min_value=3, max_value=max_atoms))
    if draw(st.booleans()):
        return Geometry.lattice(n_atoms, draw(st.floats(0.1, 2.0)))
    return Geometry.uniform_random(n_atoms, draw(st.floats(0.5, 10.0)),
                                   seed=draw(st.integers(0, 2**16)))


wavevectors = st.floats(-4.0, 4.0)
quanta = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def transfer_hamiltonian(geom, k, n_quanta):
    space = transfer_space(geom.n_atoms, n_quanta, k)
    return ([lambda ket: _apply_transfer_hamiltonian(ket, geom, k, 1.0)],
            space, enumerate_sector(space, [n_quanta]))


def sweep_params(geom, k_signal, k_control):
    return EitParams(geom, ModeSet(k_signal, k_control, (0.0,), "raman"),
                     1.0, rabi=0.0)


def sweep_hamiltonians(geom, k_signal, k_control, n_quanta):
    """The static and the control part the sweep splits H into."""
    params = sweep_params(geom, k_signal, k_control)
    space = joint_space(params, n_quanta)
    return ([lambda ket: apply_hamiltonian(ket, params, rabi=0.0),
             lambda ket: apply_control_coupling(ket, params)],
            space, enumerate_sector(space, [n_quanta]))


def check_sector_operators(apply_fns, space, basis, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    for apply_fn in apply_fns:
        dense = operator_matrix(apply_fn, space, basis)
        assert np.array_equal(dense, dense.conj().T)
        sparse = sector_operator(apply_fn, space, basis)
        assert np.array_equal(sparse.toarray(), dense)
        assert_allclose(sparse @ v, dense @ v, rtol=0, atol=1e-13)


def random_ket(space, labels, rng):
    """Random amplitudes on a random nonempty subset of ``labels``."""
    keep = rng.random(len(labels)) < 0.5
    keep[rng.integers(len(labels))] = True
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    return SparseKet(space, {label: amp for label, amp, kept
                             in zip(labels, amps, keep) if kept})


def random_bosonic_state(n_quanta, seed):
    """A random two-mode state with every total m + n up to ``n_quanta``."""
    rng = np.random.default_rng(seed)
    shape = (n_quanta + 1, n_quanta + 1)
    xi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    xi[np.add.outer(np.arange(shape[0]), np.arange(shape[1])) > n_quanta] = 0
    return BosonicState(xi / np.linalg.norm(xi))


@settings(max_examples=20, deadline=None)
@given(geometries(max_atoms=8), wavevectors, quanta, seeds)
def test_storage_transitions_match_the_two_level_oracle(geom, k, n_quanta,
                                                        seed):
    n_atoms = geom.n_atoms
    space = atomic_space(n_atoms, min(n_atoms, n_quanta + 1))
    ket = random_ket(space,
                     enumerate_sector(space, range(n_quanta + 1)).labels(),
                     np.random.default_rng(seed))
    v = bc_ket_to_dense(ket)
    lower = dense_sigma(geom.positions, k)
    for image, expected in (
            (apply_sigma(ket, geom, k), lower @ v),
            (apply_sigma(ket, geom, k, dagger=True), lower.conj().T @ v),
            (apply_population(ket, "b"), dense_population(n_atoms, "b") @ v),
            (apply_population(ket, "c"), dense_population(n_atoms, "c") @ v)):
        assert_allclose(bc_ket_to_dense(image), expected, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(geometries(max_atoms=6), wavevectors, quanta, seeds)
def test_level_transitions_match_the_three_level_oracle(geom, k, n_quanta,
                                                        seed):
    n_atoms, z = geom.n_atoms, geom.positions
    cap = min(n_atoms, n_quanta + 1)
    space = atomic_space(n_atoms, cap, a_max=cap)
    ket = random_ket(space,
                     enumerate_sector(space, range(n_quanta + 1)).labels(),
                     np.random.default_rng(seed))
    v = three_level_ket_to_dense(ket)
    cases = [(apply_sigma(ket, geom, k),
              np.sqrt(n_atoms) * dense_rho(z, -k, "c", "b")),
             (apply_sigma(ket, geom, k, dagger=True),
              np.sqrt(n_atoms) * dense_rho(z, k, "b", "c"))]
    for apply_fn, low, high in ((apply_rho_ab, "b", "a"),
                                (apply_rho_ac, "c", "a")):
        cases.append((apply_fn(ket, geom, k), dense_rho(z, k, low, high)))
        cases.append((apply_fn(ket, geom, k, dagger=True),
                      dense_rho(z, -k, high, low)))
    for level in "bca":   # (1/N) sum_j |l_j><l_j| counts the level over N
        cases.append((apply_population(ket, level),
                      n_atoms * dense_rho(z, 0.0, level, level)))
    for image, oracle in cases:
        assert_allclose(three_level_ket_to_dense(image), oracle @ v,
                        rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(geometries(max_atoms=8), quanta, seeds)
def test_field_ladder_moves_each_amplitude_by_the_fock_factor(geom, n_quanta,
                                                             seed):
    space = transfer_space(geom.n_atoms, n_quanta)
    ket = random_ket(space,
                     enumerate_sector(space, range(n_quanta)).labels(),
                     np.random.default_rng(seed))
    raised = apply_field(ket, 0, dagger=True)
    lowered = apply_field(ket, 0)
    assert len(raised) == len(ket)
    for (field, atoms), amp in ket.items():
        (m,) = field
        assert raised.amplitude(((m + 1,), atoms)) == amp * np.sqrt(m + 1)
        if m:
            assert lowered.amplitude(((m - 1,), atoms)) == amp * np.sqrt(m)
    assert len(lowered) == sum(1 for label in ket.labels() if label.field[0])


@settings(max_examples=20, deadline=None)
@given(geometries(max_atoms=8), wavevectors, quanta)
def test_kets_at_the_caps_raise_as_before(geom, k, n_quanta):
    n_exc = min(n_quanta, geom.n_atoms - 1)   # leaves an atom in b
    space = StateSpace(geom.n_atoms, n_exc, a_max=1, modes=(0.0,),
                       mode_caps=(2,))
    full = space.label(c_sites=range(n_exc), field=(2,))
    ket = SparseKet.basis_state(space, full)
    sector = r"would exceed the sector caps"
    with pytest.raises(SectorOverflowError, match=sector):
        apply_sigma(ket, geom, k, dagger=True)
    with pytest.raises(SectorOverflowError, match=sector):
        apply_rho_ab(ket, geom, k)
    with pytest.raises(SectorOverflowError, match=sector):
        sector_operator(lambda x: apply_sigma(x, geom, k, dagger=True),
                        space, ket)
    with pytest.raises(FockOverflowError, match="exceeds its Fock cap"):
        apply_field(ket, 0, dagger=True)
    if n_exc >= 2:      # one atom in c, one in a, a at its cap
        at_a_cap = space.label(c_sites=[0], a_sites=[1])
        with pytest.raises(SectorOverflowError, match=sector):
            apply_rho_ac(SparseKet.basis_state(space, at_a_cap), geom, k)


@settings(max_examples=20, deadline=None)
@given(geometries(), wavevectors, quanta, seeds)
def test_transfer_sector_operator_is_hermitian_and_sparse_matches_dense(
        geom, k, n_quanta, seed):
    check_sector_operators(*transfer_hamiltonian(geom, k, n_quanta), seed)


@settings(max_examples=20, deadline=None)
@given(geometries(), wavevectors, wavevectors, quanta, seeds)
def test_sweep_sector_operators_are_hermitian_and_sparse_matches_dense(
        geom, k_signal, k_control, n_quanta, seed):
    check_sector_operators(
        *sweep_hamiltonians(geom, k_signal, k_control, n_quanta), seed)


@settings(max_examples=20, deadline=None)
@given(geometries(), wavevectors, quanta, seeds,
       st.floats(0.2, 2.0), st.floats(0.1, 1.5))
def test_transfer_run_backwards_returns_the_initial_ket(geom, k, n_quanta,
                                                        seed, rabi, t):
    initial = bosonic_to_joint(random_bosonic_state(n_quanta, seed), geom, k)
    forward = evolve_exact_atoms(initial, rabi, t, geom, k)
    back = evolve_exact_atoms(forward, -rabi, t, geom, k)
    assert (back - initial).norm() <= 1e-12


@settings(max_examples=10, deadline=None)
@given(geometries(), wavevectors, quanta, seeds)
def test_permuting_the_atoms_leaves_the_transfer_deviation(geom, k, n_quanta,
                                                           seed):
    order = np.random.default_rng(seed).permutation(geom.n_atoms)
    permuted = Geometry(tuple(geom.positions[j] for j in order), geom.length,
                        geom.spacing)
    state = BosonicState.fock(n_quanta, 0)
    devs = [exact_vs_analytic_deviation(state, g, 1.0, np.pi / 2, k)
            for g in (geom, permuted)]
    assert abs(devs[1] - devs[0]) <= 1e-12


@pytest.mark.parametrize("n_exc_max", [1, 9])
def test_collective_operators_beyond_64_atoms(n_exc_max):
    # more atoms than one 64-bit occupancy word would hold; at 9 excitations
    # a label's 9 site digits of radix 131 need two 63-bit sort keys
    n_atoms = 130
    geom = Geometry.lattice(n_atoms, 0.5)
    space = atomic_space(n_atoms, n_exc_max)
    vac = SparseKet.basis_state(space, space.label())
    for k, k_prime in ((0.3, -1.1), (2.0, 2.5), (1.7, 1.7)):
        element = sigma_commutator_element(geom, k, k_prime, vac, vac)
        expected = phase_sum(geom, k_prime - k) / n_atoms
        assert abs(element - expected) <= 1e-12
    basis = enumerate_sector(space, [1])

    def hop(ket):
        return apply_sigma(apply_sigma(ket, geom, 0.9), geom, 0.9, dagger=True)

    assert np.array_equal(sector_operator(hop, space, basis).toarray(),
                          operator_matrix(hop, space, basis))
    # images that differ from a basis label only in the first site
    with pytest.raises(IntegrationError, match="outside"):
        sector_operator(hop, space, SparseKet._of(space, 65, *(
            x[:65] for x in (basis.cols, basis.field, basis.sites,
                             basis.amps))))


@settings(max_examples=20, deadline=None)
@given(geometries(max_atoms=8), wavevectors, wavevectors, quanta,
       st.floats(0.0, np.pi / 2, exclude_min=True))
def test_an_exact_dark_state_lies_in_the_dark_manifold(geom, k_signal,
                                                       k_control, n_quanta,
                                                       theta):
    params = sweep_params(geom, k_signal, k_control)
    space = joint_space(params, n_quanta)
    basis = enumerate_sector(space, [n_quanta])
    dark = vacuum(space)
    for _ in range(n_quanta):   # the polariton ladder, not the polynomial
        dark = apply_polariton(dark, params, dagger=True, theta=theta)
    weight = dark_manifold_weight(ket_to_vector(dark, basis),
                                  dark_manifold(params, basis), theta)
    assert abs(weight - 1.0) <= 1e-12


def quanta_weights(ket, max_total):
    """Weight of each total quantum number (photons + c + a) in ``ket``."""
    weights = np.zeros(max_total + 1)
    for (field, atoms), amp in ket.items():
        weights[sum(field) + atoms.n_excited] += abs(amp) ** 2
    return weights / weights.sum()


@settings(max_examples=10, deadline=None)
@given(geometries(max_atoms=8), wavevectors, wavevectors, quanta, seeds,
       st.floats(0.5, 2.0))
def test_a_sweep_keeps_the_weight_of_each_total(geom, k_signal, k_control,
                                                n_quanta, seed,
                                                duration_coupling):
    # photons in a random superposition of 1 to n_quanta
    params = sweep_params(geom, k_signal, k_control)
    space = joint_space(params, n_quanta)
    amps = np.random.default_rng(seed).normal(size=(n_quanta, 2)) @ [1, 1j]
    initial = SparseKet.zero(space)
    for n, amp in enumerate(amps / np.linalg.norm(amps), start=1):
        initial = initial + amp * with_field_occupation(vacuum(space), (n,))
    ramp = RampSchedule(0.0, np.pi / 2,
                        duration_coupling / params.collective_coupling)
    traj = adiabatic_sweep(initial, params, ramp)
    before = quanta_weights(initial, n_quanta)
    assert_allclose(quanta_weights(traj.final_state, n_quanta), before,
                    rtol=0, atol=1e-12)
    # photons + c + a is the mean total at every sample, and a >= 0
    mean = before @ np.arange(n_quanta + 1)
    assert traj.photon_expectation[0] == pytest.approx(mean, rel=0, abs=1e-12)
    assert np.all(traj.photon_expectation + traj.c_population
                  <= mean + 1e-12)


@settings(max_examples=20, deadline=None)
@given(geometries(), wavevectors, quanta, seeds, st.floats(0.2, 2.0),
       st.floats(0.1, 1.5))
def test_transfer_keeps_the_weight_of_each_total(geom, k, n_quanta, seed,
                                                 rabi, t):
    initial = bosonic_to_joint(random_bosonic_state(n_quanta, seed), geom, k)
    evolved = evolve_exact_atoms(initial, rabi, t, geom, k)
    assert_allclose(quanta_weights(evolved, n_quanta),
                    quanta_weights(initial, n_quanta), rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(geometries(max_atoms=8), wavevectors, quanta, seeds,
       st.floats(0.2, 2.0), st.floats(0.1, 1.5))
def test_the_transfer_deviation_does_not_depend_on_the_wavevector(
        geom, k, n_quanta, seed, rabi, t):
    # diag(1, e^{i k z_j}) on every atom maps the k = 0 problem onto this
    # one, states and Hamiltonian alike
    state = random_bosonic_state(n_quanta, seed)
    devs = [exact_vs_analytic_deviation(state, geom, rabi, t, kk)
            for kk in (0.0, k)]
    assert abs(devs[1] - devs[0]) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(quanta, seeds, st.floats(0.2, 2.0), st.floats(0.1, 1.5))
def test_the_two_boson_integration_keeps_the_weight_of_each_total(
        n_quanta, seed, rabi, t):
    state = random_bosonic_state(n_quanta, seed)
    evolved = evolve_numeric(state, rabi, t)

    def weights(s):
        totals = np.add.outer(*map(np.arange, s.amplitudes.shape))
        return np.bincount(totals.ravel(), np.abs(s.amplitudes.ravel()) ** 2)

    assert_allclose(weights(evolved), weights(state), rtol=0, atol=1e-12)


@st.composite
def truncated_spaces(draw):
    n_atoms = draw(st.integers(1, 8))
    n_exc_max = draw(st.integers(0, n_atoms))
    caps = tuple(draw(st.lists(st.integers(0, 2), max_size=2)))
    return StateSpace(n_atoms, n_exc_max,
                      draw(st.integers(0, min(2, n_exc_max))),
                      tuple(0.1 * i for i in range(len(caps))), caps,
                      draw(st.none() | st.integers(0, sum(caps) + 1)))


@settings(max_examples=30, deadline=None)
@given(truncated_spaces(), st.lists(st.integers(0, 8), max_size=3))
def test_the_sector_is_the_brute_force_label_set_in_order(space, totals):
    sector = enumerate_sector(space, totals)
    assert sector.labels() == sorted(sector_labels(
        space.n_atoms, space.n_exc_max, space.a_max, space.mode_caps,
        space.photon_cap, set(totals)))
    assert len(sector) == estimate_sector_size(space, totals)
    # column i holds label i at amplitude 1
    assert sector.n_cols == len(sector)
    assert np.array_equal(sector.cols, np.arange(len(sector)))
    assert np.array_equal(sector.amps, np.ones(len(sector)))
