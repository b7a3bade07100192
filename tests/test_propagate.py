import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    BosonicState,
    EitParams,
    Geometry,
    IntegrationError,
    ModeSet,
    apply_field,
    apply_hamiltonian,
    bosonic_to_joint,
    enumerate_sector,
    evolve_exact_atoms,
    exact_vs_analytic_deviation,
    joint_space,
    operator_matrix,
    rk4_propagate,
    transfer_space,
)
from coldstore.eit import apply_control_coupling
from coldstore.propagate import SPARSE_MIN_DIM, SparseOperator, sector_operator
from coldstore.transfer import _apply_transfer_hamiltonian


def transfer_sector(n_atoms, quanta, rabi=1.0):
    geom = Geometry.lattice(n_atoms, 0.5)
    space = transfer_space(n_atoms, quanta)
    basis = enumerate_sector(space, [quanta])
    return (lambda ket: _apply_transfer_hamiltonian(ket, geom, 0.0, rabi),
            space, basis)


def sweep_sector(n_atoms, quanta):
    params = EitParams(Geometry.lattice(n_atoms, 0.5),
                       ModeSet(1.9, 0.7, (0.0,), "raman", fock_cap=quanta),
                       1.0, rabi=0.0)
    space = joint_space(params, quanta)
    basis = enumerate_sector(space, [quanta])
    return ((lambda ket: apply_hamiltonian(ket, params, rabi=0.0)),
            (lambda ket: apply_control_coupling(ket, params)), space, basis)


def random_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_sector_operator_picks_dense_below_the_crossover():
    apply_fn, space, basis = transfer_sector(8, 3)       # 93 states
    assert len(basis) < SPARSE_MIN_DIM
    dense = sector_operator(apply_fn, space, basis)
    assert isinstance(dense, np.ndarray)
    assert np.array_equal(dense, operator_matrix(apply_fn, space, basis))


def test_sparse_transfer_operator_matches_dense_oracle():
    apply_fn, space, basis = transfer_sector(16, 3)
    assert len(basis) == 697
    dense = operator_matrix(apply_fn, space, basis)
    op = sector_operator(apply_fn, space, basis)
    assert isinstance(op, SparseOperator)
    assert op.shape == dense.shape
    assert np.array_equal(op.toarray(), dense)

    rng = np.random.default_rng(5)
    v = random_vector(rng, len(basis))
    assert_allclose(op @ v, dense @ v, rtol=0, atol=1e-13)

    psi0 = random_vector(rng, len(basis))
    sparse_psi = rk4_propagate(op, psi0, 1e-3, 200)
    dense_psi = rk4_propagate(dense, psi0, 1e-3, 200)
    assert_allclose(sparse_psi, dense_psi, rtol=0, atol=1e-12)


def test_sparse_sweep_operators_match_dense_oracle():
    h_static_fn, h_control_fn, space, basis = sweep_sector(12, 2)
    assert len(basis) == 289
    ops, dense = [], []
    for fn in (h_static_fn, h_control_fn):
        ops.append(sector_operator(fn, space, basis))
        dense.append(operator_matrix(fn, space, basis))
        assert isinstance(ops[-1], SparseOperator)
        assert np.array_equal(ops[-1].toarray(), dense[-1])

    rng = np.random.default_rng(6)
    v = random_vector(rng, len(basis))
    for op, mat in zip(ops, dense):
        assert_allclose(op @ v, mat @ v, rtol=0, atol=1e-13)

    n_steps = 100
    control = np.linspace(0.0, 3.0, 2 * n_steps + 1)
    psi0 = random_vector(rng, len(basis))
    sparse_psi = rk4_propagate(ops[0], psi0, 1e-3, n_steps, h1=ops[1],
                               control=control)
    dense_psi = rk4_propagate(dense[0], psi0, 1e-3, n_steps, h1=dense[1],
                              control=control)
    assert_allclose(sparse_psi, dense_psi, rtol=0, atol=1e-12)


def test_sparse_operator_with_empty_rows_and_no_entries():
    rng = np.random.default_rng(7)
    rows = np.array([3, 0, 3, 5, 0])
    cols = np.array([1, 4, 0, 5, 2])
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    op = SparseOperator(rows, cols, amps, 6)   # rows 1, 2 and 4 empty
    dense = np.zeros((6, 6), dtype=complex)
    dense[rows, cols] = amps
    assert np.array_equal(op.toarray(), dense)
    v = random_vector(rng, 6)
    assert_allclose(op @ v, dense @ v, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        op @ np.ones(5)

    empty = SparseOperator([], [], [], 4)
    assert np.array_equal(empty.toarray(), np.zeros((4, 4)))
    assert np.array_equal(empty @ np.ones(4), np.zeros(4))


def test_photon_number_leaves_the_rows_of_photonless_states_empty():
    # a^dag a on the 697 states of N=16, 3 quanta: only the 137 states
    # holding a photon have an entry
    space = transfer_space(16, 3)
    basis = enumerate_sector(space, [3])

    def number(ket):
        return apply_field(apply_field(ket, 0), 0, dagger=True)

    op = sector_operator(number, space, basis)
    dense = operator_matrix(number, space, basis)
    assert isinstance(op, SparseOperator)
    assert np.count_nonzero(dense.any(axis=1)) == 137
    assert np.array_equal(op.toarray(), dense)
    v = random_vector(np.random.default_rng(8), len(basis))
    assert_allclose(op @ v, dense @ v, rtol=0, atol=1e-13)


def test_zero_operator_on_the_sparse_path():
    apply_fn, space, basis = transfer_sector(16, 3, rabi=0.0)
    op = sector_operator(apply_fn, space, basis)
    assert isinstance(op, SparseOperator)
    assert not op.toarray().any()
    psi0 = random_vector(np.random.default_rng(9), len(basis))
    assert np.array_equal(rk4_propagate(op, psi0, 0.1, 3), psi0)

    geom = Geometry.lattice(16, 0.5)
    joint = bosonic_to_joint(BosonicState.fock(3, 0), geom)
    evolved = evolve_exact_atoms(joint, rabi=0.0, t=1.0, geometry=geom)
    assert (evolved - joint).norm() == 0.0


@pytest.mark.parametrize("n_atoms", [8, 16])
def test_label_outside_the_sector_raises_on_both_paths(n_atoms):
    space = transfer_space(n_atoms, 3)
    basis = enumerate_sector(space, [3])
    with pytest.raises(IntegrationError, match="outside"):
        sector_operator(lambda ket: apply_field(ket, 0), space, basis)


def test_large_transfer_sector_never_forms_a_dense_matrix(monkeypatch):
    original = operator_matrix

    def refuse(*args, **kwargs):
        raise AssertionError("dense operator_matrix called")

    for name, module in list(sys.modules.items()):
        if name.startswith("coldstore") and \
                vars(module).get("operator_matrix") is original:
            monkeypatch.setattr(module, "operator_matrix", refuse)
    dev = exact_vs_analytic_deviation(BosonicState.fock(3, 0),
                                      Geometry.lattice(24, 0.5), rabi=1.0,
                                      t=math.pi / 2)
    assert dev == pytest.approx(0.0689078768544164, rel=0, abs=1e-8)


def test_rk4_rejects_control_without_control_operator():
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="h1"):
        rk4_propagate(np.eye(2), psi, 0.1, 3, control=1.0)
    with pytest.raises(ValueError, match="h1"):
        rk4_propagate(np.eye(2), psi, 0.1, 3, control=np.zeros(5))


@pytest.mark.parametrize("sample_every", [0, -1])
def test_rk4_rejects_sample_every_below_one(sample_every):
    psi = np.array([1.0, 0.0])
    seen = []
    with pytest.raises(ValueError, match="sample_every"):
        rk4_propagate(np.eye(2), psi, 0.1, 3, sample_every=sample_every,
                      on_sample=lambda step, t, v: seen.append(step))
    assert seen == []
