import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    CollectiveOperator,
    EitParams,
    FockOverflowError,
    Geometry,
    ModeSet,
    SectorOverflowError,
    SparseKet,
    StateSpace,
    StorageSpec,
    angular_momentum_eigencheck,
    apply_field,
    apply_hamiltonian,
    apply_population,
    apply_r1,
    apply_r2,
    apply_r3,
    apply_r_squared,
    apply_rho_ab,
    apply_rho_ac,
    apply_sigma,
    atomic_space,
    commutator_matrix_element,
    enumerate_basis,
    inner_product,
    joint_space,
    operator_matrix,
    phase_sum,
    sigma_commutator_element,
    storage_direct,
)

from oracles import (
    bc_ket_to_dense,
    dense_population,
    dense_r_ops,
    dense_rho,
    dense_sigma,
    three_level_ket_to_dense,
)


def random_bc_ket(space, rng, n_terms=6):
    """Random unit vector spread over b/c configurations with <= cap excitations."""
    labels = []
    n, cap = space.n_atoms, space.n_exc_max
    while len(labels) < n_terms:
        n_c = int(rng.integers(0, cap + 1))
        sites = tuple(sorted(rng.choice(n, size=n_c, replace=False).tolist()))
        label = space.label(c_sites=sites)
        if label not in labels:
            labels.append(label)
    amps = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    amps /= np.linalg.norm(amps)
    return SparseKet(space, dict(zip(labels, amps)))


@pytest.mark.parametrize("seed,k", [(0, 0.0), (1, 1.3), (2, -2.7)])
def test_sigma_matches_dense_oracle(seed, k):
    n = 5
    geom = Geometry.uniform_random(n, length=float(n), seed=seed)
    space = atomic_space(n, n)
    rng = np.random.default_rng(seed + 10)
    ket = random_bc_ket(space, rng)
    s = dense_sigma(geom.positions, k)
    v = bc_ket_to_dense(ket)
    assert_allclose(bc_ket_to_dense(apply_sigma(ket, geom, k)), s @ v,
                    atol=1e-13)
    assert_allclose(bc_ket_to_dense(apply_sigma(ket, geom, k, dagger=True)),
                    s.conj().T @ v, atol=1e-13)


def test_rho_operators_match_dense_oracle():
    n, k = 4, 0.9
    geom = Geometry.uniform_random(n, length=4.0, seed=3)
    space = StateSpace(n_atoms=n, n_exc_max=n, a_max=2)
    rng = np.random.default_rng(5)
    labels = [space.label(c_sites=(0, 2)), space.label(c_sites=(1,)),
              space.label(c_sites=(3,), a_sites=(0,)), space.label(a_sites=(2,))]
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    ket = SparseKet(space, dict(zip(labels, amps)))
    v = three_level_ket_to_dense(ket)
    # rho_ab promotes b -> a, rho_ac promotes c -> a; daggers demote
    rho_ab = dense_rho(geom.positions, k, src="b", dst="a")
    rho_ac = dense_rho(geom.positions, k, src="c", dst="a")
    pairs = [
        (apply_rho_ab(ket, geom, k), rho_ab @ v),
        (apply_rho_ab(ket, geom, k, dagger=True), rho_ab.conj().T @ v),
        (apply_rho_ac(ket, geom, k), rho_ac @ v),
        (apply_rho_ac(ket, geom, k, dagger=True), rho_ac.conj().T @ v),
    ]
    for got, expected in pairs:
        assert_allclose(three_level_ket_to_dense(got), expected, atol=1e-13)


@pytest.mark.parametrize("dagger", [False, True])
@pytest.mark.parametrize("apply_fn", [apply_rho_ab, apply_rho_ac])
def test_rho_operators_reject_mismatched_geometry(apply_fn, dagger):
    space = StateSpace(n_atoms=3, n_exc_max=3, a_max=3)
    ket = SparseKet(space, {space.label(c_sites=(0,)): 0.6,
                            space.label(a_sites=(1,)): 0.8})
    with pytest.raises(ValueError):
        apply_fn(ket, Geometry.lattice(5), 0.4, dagger=dagger)


def test_population_operator():
    n = 6
    space = atomic_space(n, n)
    geom = Geometry.lattice(n)
    rng = np.random.default_rng(8)
    ket = random_bc_ket(space, rng)
    v = bc_ket_to_dense(ket)
    for level in ("b", "c"):
        got = bc_ket_to_dense(apply_population(ket, level))
        assert_allclose(got, dense_population(n, level) @ v, atol=1e-13)
    # populations sum to N on any normalized state
    total = inner_product(ket, apply_population(ket, "b")) \
        + inner_product(ket, apply_population(ket, "c"))
    assert total == pytest.approx(n)
    del geom


def test_r_operators_match_dense_oracle():
    n, k = 5, 1.1
    geom = Geometry.uniform_random(n, length=5.0, seed=4)
    space = atomic_space(n, n)
    rng = np.random.default_rng(9)
    ket = random_bc_ket(space, rng)
    v = bc_ket_to_dense(ket)
    r1, r2, r3 = dense_r_ops(geom.positions, k)
    assert_allclose(bc_ket_to_dense(apply_r1(ket, geom, k)), r1 @ v, atol=1e-12)
    assert_allclose(bc_ket_to_dense(apply_r2(ket, geom, k)), r2 @ v, atol=1e-12)
    assert_allclose(bc_ket_to_dense(apply_r3(ket, geom, k)), r3 @ v, atol=1e-12)
    rsq = r1 @ r1 + r2 @ r2 + r3 @ r3
    assert_allclose(bc_ket_to_dense(apply_r_squared(ket, geom, k)), rsq @ v,
                    atol=1e-11)


@pytest.mark.parametrize("n,n_exc", [(4, 0), (4, 2), (7, 3), (9, 1)])
def test_storage_states_are_angular_momentum_eigenstates(n, n_exc):
    geom = Geometry.uniform_random(n, length=float(n), seed=6)
    k = 0.7
    # full-cap space: r^2 needs headroom to raise above the storage sector
    space = atomic_space(n, n)
    if n_exc == 0:
        ket = SparseKet.basis_state(space, space.label())
    else:
        ket = storage_direct(StorageSpec(geom, ((k, n_exc),)), space=space)
    check = angular_momentum_eigencheck(ket, geom, k)
    assert check.r3_eigenvalue == pytest.approx((2 * n_exc - n) / 2, abs=1e-12)
    assert check.r_squared_eigenvalue == pytest.approx(
        (n / 2) * (n / 2 + 1), abs=1e-10)
    assert check.r3_residual < 1e-12
    assert check.r_squared_residual < 1e-10


def test_commutator_on_vacuum_equals_phase_sum_over_n():
    n = 12
    geom = Geometry.uniform_random(n, length=20.0, seed=11)
    space = atomic_space(n, n)
    vac = SparseKet.basis_state(space, space.label())
    for k, kp in [(0.0, 0.0), (1.2, 0.4), (-0.3, 2.2)]:
        got = sigma_commutator_element(geom, k, kp, vac, vac)
        expected = phase_sum(geom, kp - k) / n
        assert got == pytest.approx(expected, abs=1e-13)


def test_commutator_element_matches_dense_oracle_on_random_states():
    n = 5
    geom = Geometry.uniform_random(n, length=5.0, seed=13)
    space = atomic_space(n, n)
    rng = np.random.default_rng(14)
    x = random_bc_ket(space, rng)
    y = random_bc_ket(space, rng)
    k, kp = 0.8, -1.4
    s_k = dense_sigma(geom.positions, k)
    s_kp = dense_sigma(geom.positions, kp)
    comm = s_k @ s_kp.conj().T - s_kp.conj().T @ s_k
    expected = bc_ket_to_dense(x).conj() @ comm @ bc_ket_to_dense(y)
    got = sigma_commutator_element(geom, k, kp, x, y)
    assert got == pytest.approx(expected, abs=1e-13)
    # the generic two-operator element agrees with the dedicated one
    a = CollectiveOperator("sigma", geom, k)
    b = CollectiveOperator("sigma_dagger", geom, kp)
    assert commutator_matrix_element(a, b, x, y) == pytest.approx(got,
                                                                  abs=1e-13)


def test_collective_operator_validation_and_adjoint():
    geom = Geometry.lattice(3)
    with pytest.raises(ValueError):
        CollectiveOperator("nonsense", geom, 0.0)
    with pytest.raises(ValueError):
        CollectiveOperator("sigma", geom)          # needs a wavevector
    with pytest.raises(ValueError):
        CollectiveOperator("pop_b", geom, 1.0)     # takes none
    op = CollectiveOperator("rho_ac", geom, 0.5)
    assert op.adjoint().kind == "rho_ac_dagger"
    assert op.adjoint().adjoint() == op


def test_collective_operator_dispatch_matches_functions():
    n = 4
    geom = Geometry.uniform_random(n, length=4.0, seed=15)
    space = StateSpace(n_atoms=n, n_exc_max=n, a_max=1)
    rng = np.random.default_rng(16)
    labels = [space.label(c_sites=(0, 1)), space.label(c_sites=(2,)),
              space.label(a_sites=(3,))]
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    ket = SparseKet(space, dict(zip(labels, amps)))
    k = 1.7
    cases = [
        ("sigma", lambda: apply_sigma(ket, geom, k)),
        ("sigma_dagger", lambda: apply_sigma(ket, geom, k, dagger=True)),
        ("rho_ac_dagger", lambda: apply_rho_ac(ket, geom, k, dagger=True)),
        ("r3", lambda: apply_r3(ket, geom, k)),
    ]
    for kind, direct in cases:
        via_op = CollectiveOperator(kind, geom, k).apply(ket)
        diff = via_op - direct()
        assert diff.norm() < 1e-14, kind
    via_pop = CollectiveOperator("pop_c", geom).apply(ket)
    assert (via_pop - apply_population(ket, "c")).norm() < 1e-14
    # every kind on the full 3-atom space, which no operator can leave
    full = StateSpace(n_atoms=3, n_exc_max=3, a_max=3)
    basis = enumerate_basis(full)
    geom3 = Geometry.uniform_random(3, length=3.0, seed=17)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    ket3 = SparseKet(full, dict(zip(basis.labels(),
                                    amps / np.linalg.norm(amps))))
    direct = {
        "sigma": lambda x: apply_sigma(x, geom3, k),
        "sigma_dagger": lambda x: apply_sigma(x, geom3, k, dagger=True),
        "rho_ab": lambda x: apply_rho_ab(x, geom3, k),
        "rho_ab_dagger": lambda x: apply_rho_ab(x, geom3, k, dagger=True),
        "rho_ac": lambda x: apply_rho_ac(x, geom3, k),
        "rho_ac_dagger": lambda x: apply_rho_ac(x, geom3, k, dagger=True),
        "pop_b": lambda x: apply_population(x, "b"),
        "pop_c": lambda x: apply_population(x, "c"),
        "pop_a": lambda x: apply_population(x, "a"),
        "r1": lambda x: apply_r1(x, geom3, k),
        "r2": lambda x: apply_r2(x, geom3, k),
        "r3": lambda x: apply_r3(x, geom3, k),
        "r_squared": lambda x: apply_r_squared(x, geom3, k),
    }
    for kind, fn in direct.items():
        op = CollectiveOperator(kind, geom3,
                                None if kind.startswith("pop_") else k)
        assert (op.apply(ket3) - fn(ket3)).norm() < 1e-14, kind
        mat = operator_matrix(op.apply, full, basis)
        adj = operator_matrix(op.adjoint().apply, full, basis)
        assert_allclose(adj, mat.conj().T, atol=1e-13, err_msg=kind)


def test_sector_and_fock_overflow():
    geom = Geometry.lattice(3)
    tight = atomic_space(3, 1)
    one_exc = SparseKet.basis_state(tight, tight.label(c_sites=(1,)))
    with pytest.raises(SectorOverflowError):
        apply_sigma(one_exc, geom, 0.0, dagger=True)
    # a_max = 0 spaces cannot host an a-level excitation
    with pytest.raises(SectorOverflowError):
        apply_rho_ac(one_exc, geom, 0.0)
    with pytest.raises(SectorOverflowError):
        apply_rho_ab(one_exc, geom, 0.0)
    # rho_ab also needs room under the excitation cap, not only under a_max
    a_room = atomic_space(3, 1, a_max=1)
    with pytest.raises(SectorOverflowError):
        apply_rho_ab(SparseKet.basis_state(a_room, a_room.label(c_sites=(1,))),
                     geom, 0.0)
    # the Hamiltonian's photon absorption (b -> a) and control (c -> a)
    params = EitParams(geom, ModeSet(1.0, 0.8, (0.0,)), 1.0, 0.5)
    no_a = joint_space(params, 1, a_max=0)
    for label in (no_a.label(field=(1,)), no_a.label(c_sites=(0,))):
        with pytest.raises(SectorOverflowError):
            apply_hamiltonian(SparseKet.basis_state(no_a, label), params)
    # and its photon emission (a -> b) from a mode already at its cap
    params = EitParams(Geometry.lattice(4),
                       ModeSet(1.0, 0.8, (0.0,)), 1.0, 0.5)
    full = joint_space(params, 2)
    at_cap = full.label(field=(2,), a_sites=(0,))
    with pytest.raises(FockOverflowError):
        apply_hamiltonian(SparseKet.basis_state(full, at_cap), params)
    field_space = StateSpace(n_atoms=2, n_exc_max=1, modes=(0.0,),
                             mode_caps=(1,), photon_cap=1)
    one_photon = SparseKet.basis_state(field_space,
                                       field_space.label(field=(1,)))
    with pytest.raises(FockOverflowError):
        apply_field(one_photon, 0, dagger=True)


def test_creation_past_a_mode_cap_is_refused_below_the_photon_cap():
    # mode 0 is at its cap of 1 while the total photon cap of 3 has room
    space = StateSpace(n_atoms=2, n_exc_max=1, modes=(0.0, 0.5),
                       mode_caps=(1, 2))
    ket = SparseKet.basis_state(space, space.label(field=(1, 0)))
    with pytest.raises(FockOverflowError, match="mode 0"):
        apply_field(ket, 0, dagger=True)
    assert apply_field(ket, 1, dagger=True).labels() == \
        [space.label(field=(1, 1))]


def test_field_ladder_factors():
    space = StateSpace(n_atoms=2, n_exc_max=1, modes=(0.0,), mode_caps=(3,),
                       photon_cap=3)
    two = SparseKet.basis_state(space, space.label(field=(2,)))
    up = apply_field(two, 0, dagger=True)
    assert up.amplitude(space.label(field=(3,))) == pytest.approx(math.sqrt(3))
    down = apply_field(two, 0)
    assert down.amplitude(space.label(field=(1,))) == pytest.approx(math.sqrt(2))
    vac = SparseKet.basis_state(space, space.label(field=(0,)))
    assert apply_field(vac, 0).norm() == 0.0
