"""Properties that need no oracle, over small random geometries.

Lattices and uniform random draws of 3 to 7 atoms, at most 3 quanta and a
random wavevector: every sector operator equals its conjugate transpose,
its sparse product agrees with its dense matrix, and transfer dynamics run
with -Omega after Omega return the initial ket.  Each check holds for any
geometry and wavevector, so it reaches phases that a lattice at k = 0 never
exercises.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coldstore import (
    BosonicState,
    EitParams,
    Geometry,
    ModeSet,
    apply_hamiltonian,
    bosonic_to_joint,
    enumerate_sector,
    evolve_exact_atoms,
    joint_space,
    operator_matrix,
    transfer_space,
)
from coldstore.eit import apply_control_coupling
from coldstore.propagate import sector_operator
from coldstore.transfer import _apply_transfer_hamiltonian


@st.composite
def geometries(draw):
    n_atoms = draw(st.integers(min_value=3, max_value=7))
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


def sweep_hamiltonians(geom, k_signal, k_control, n_quanta):
    """The static and the control part the sweep splits H into."""
    params = EitParams(geom, ModeSet(k_signal, k_control, (0.0,), "raman",
                                     fock_cap=n_quanta), 1.0, rabi=0.0)
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
        assert_allclose(sparse @ v, dense @ v, rtol=0, atol=1e-13)


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
    # a random state with every total quantum number up to n_quanta
    rng = np.random.default_rng(seed)
    shape = (n_quanta + 1, n_quanta + 1)
    xi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    xi[np.add.outer(np.arange(shape[0]), np.arange(shape[1])) > n_quanta] = 0
    initial = bosonic_to_joint(BosonicState(xi / np.linalg.norm(xi)), geom, k)
    forward = evolve_exact_atoms(initial, rabi, t, geom, k)
    back = evolve_exact_atoms(forward, -rabi, t, geom, k)
    assert (back - initial).norm() <= 1e-12
