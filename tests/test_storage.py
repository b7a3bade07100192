import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    FockOverflowError,
    Geometry,
    SectorOverflowError,
    SpaceMismatchError,
    SparseKet,
    StateSpace,
    StorageSpec,
    asymptotic_coefficient,
    atomic_space,
    fidelity,
    ladder_prefactor,
    normalization_audit,
    storage_direct,
    storage_ladder,
    vacuum,
    with_field_occupation,
)

from oracles import bc_ket_to_dense, dense_storage, multimode_norm_sq


def test_two_excitation_state_matches_dense_oracle():
    geom = Geometry.uniform_random(4, length=4.0, seed=21)
    k = 1.9
    ket = storage_direct(StorageSpec(geom, ((k, 2),)))
    assert_allclose(bc_ket_to_dense(ket), dense_storage(geom.positions, k, 2),
                    atol=1e-14)


def test_two_excitation_state_by_hand():
    # lattice z = (0, 1, 2, 3): six pairs, amplitude e^{ik(z_j+z_l)}/sqrt(6)
    geom = Geometry.lattice(4)
    k = 0.6
    ket = storage_direct(StorageSpec(geom, ((k, 2),)))
    for (j, l) in itertools.combinations(range(4), 2):
        label = ket.space.label(c_sites=(j, l))
        expected = np.exp(1j * k * (j + l)) / math.sqrt(6)
        assert ket.amplitude(label) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("n,modes", [
    (5, ((0.9, 1),)),
    (6, ((0.9, 3),)),
    (5, ((0.4, 1), (2.2, 2))),
])
def test_direct_and_ladder_routes_agree(n, modes):
    geom = Geometry.uniform_random(n, length=float(n), seed=22)
    direct = storage_direct(StorageSpec(geom, modes))
    laddered, raw_norm = storage_ladder(StorageSpec(geom, modes))
    assert fidelity(direct, laddered) == pytest.approx(1.0, abs=1e-12)
    assert raw_norm > 0.0


def test_single_mode_ladder_norm_is_analytic():
    for n, n_exc in [(3, 1), (6, 2), (9, 3), (12, 3)]:
        geom = Geometry.uniform_random(n, length=float(n), seed=23)
        _, raw_norm = storage_ladder(StorageSpec(geom, ((1.3, n_exc),)))
        assert raw_norm == pytest.approx(ladder_prefactor(n, (n_exc,)),
                                         abs=1e-12)


def test_prefactor_and_coefficient_closed_forms():
    # sqrt(N(N-1)...(N-n+1)/N^n * n!) and sqrt(prod m_i!/falling(N, n))
    assert ladder_prefactor(4, (2,)) == pytest.approx(math.sqrt(4 * 3 / 16 * 2))
    assert ladder_prefactor(10, (1,)) == pytest.approx(1.0)
    assert ladder_prefactor(8, (3,)) == pytest.approx(
        math.sqrt(8 * 7 * 6 / 8 ** 3 * 6))
    assert asymptotic_coefficient(4, (2,)) == pytest.approx(math.sqrt(2 / 12))
    assert asymptotic_coefficient(6, (1, 1)) == pytest.approx(
        math.sqrt(1 / 30))
    # large N, fixed n: ladder prefactor tends to sqrt(n!)
    assert ladder_prefactor(10_000, (2,)) == pytest.approx(math.sqrt(2),
                                                           rel=1e-3)


def test_two_mode_state_by_hand_double_sum():
    geom = Geometry.uniform_random(3, length=3.0, seed=24)
    k1, k2 = 0.8, 2.1
    spec = StorageSpec(geom, ((k1, 1), (k2, 1)))
    raw = storage_direct(spec, normalized=False)
    alpha = asymptotic_coefficient(3, (1, 1))
    z = geom.positions
    for (j, l) in itertools.combinations(range(3), 2):
        label = raw.space.label(c_sites=(j, l))
        expected = alpha * (np.exp(1j * (k1 * z[j] + k2 * z[l]))
                            + np.exp(1j * (k1 * z[l] + k2 * z[j])))
        assert raw.amplitude(label) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("modes", [
    ((0.7, 1), (1.9, 1)),
    ((0.7, 2), (1.9, 1)),
    ((0.3, 1), (1.1, 1), (2.6, 1)),
])
def test_normalization_audit_matches_placement_oracle(modes):
    geom = Geometry.uniform_random(6, length=6.0, seed=25)
    audit = normalization_audit(StorageSpec(geom, modes))
    wavevectors = []
    for k, m in modes:
        wavevectors.extend([k] * m)
    oracle = multimode_norm_sq(geom.positions, wavevectors)
    assert audit.raw_norm_sq == pytest.approx(oracle, abs=1e-12)
    assert audit.oracle_norm_sq == pytest.approx(oracle, abs=1e-12)
    # the leading (diagonal) term is exactly 1; the rest is the cross term
    assert audit.leading_term == pytest.approx(1.0, abs=1e-12)
    assert audit.raw_norm_sq == pytest.approx(
        audit.leading_term + audit.cross_term, abs=1e-12)
    assert audit.deviation_from_unity == pytest.approx(
        audit.cross_term, abs=1e-12)
    assert audit.routes_agree < 1e-12


def test_single_mode_audit_is_exact():
    geom = Geometry.uniform_random(5, length=5.0, seed=26)
    audit = normalization_audit(StorageSpec(geom, ((1.5, 2),)))
    assert audit.raw_norm_sq == pytest.approx(1.0, abs=1e-13)
    assert audit.cross_term == pytest.approx(0.0, abs=1e-13)


def test_storage_spec_validation():
    geom = Geometry.lattice(3)
    with pytest.raises(ValueError):
        StorageSpec(geom, ())
    with pytest.raises(ValueError):
        StorageSpec(geom, ((0.5, 1), (0.5, 1)))
    with pytest.raises(ValueError):
        StorageSpec(geom, ((0.5, 0),))
    with pytest.raises(ValueError):
        StorageSpec(geom, ((0.5, 4),))  # more excitations than atoms


def test_with_field_occupation():
    geom = Geometry.lattice(3)
    space = StateSpace(n_atoms=3, n_exc_max=1, modes=(0.5,), mode_caps=(2,),
                       photon_cap=2)
    bare = storage_direct(StorageSpec(geom, ((0.5, 1),)), space=space)
    dressed = with_field_occupation(bare, (2,))
    assert dressed.norm() == pytest.approx(1.0)
    for label in dressed.labels():
        assert label.field == (2,)
    assert sorted(l.atoms for l in dressed.labels()) == \
        sorted(l.atoms for l in bare.labels())


@pytest.mark.parametrize("n_atoms", [2, 4])
def test_both_routes_refuse_a_space_of_other_atoms(n_atoms):
    spec = StorageSpec(Geometry.lattice(n_atoms, 0.5), ((0.0, 1),))
    for build in (storage_direct, storage_ladder):
        with pytest.raises(ValueError,
                           match=f"geometry has {n_atoms} atoms, space has 3"):
            build(spec, space=atomic_space(3, 1))


def test_direct_route_refuses_more_excitations_than_the_space_caps():
    spec = StorageSpec(Geometry.lattice(4, 0.5), ((0.0, 2),))
    with pytest.raises(SectorOverflowError):
        storage_direct(spec, space=atomic_space(4, 1))


def test_with_field_occupation_checks_the_new_field():
    space = StateSpace(n_atoms=3, n_exc_max=1, modes=(0.5,), mode_caps=(2,),
                       photon_cap=2)
    bare = storage_direct(StorageSpec(Geometry.lattice(3), ((0.5, 1),)),
                          space=space)
    with pytest.raises(FockOverflowError):
        with_field_occupation(bare, (3,))
    with pytest.raises(SpaceMismatchError):
        with_field_occupation(bare, (1, 0))


@pytest.mark.parametrize("space", [
    atomic_space(1, 0),
    atomic_space(5, 3, a_max=2),
    StateSpace(n_atoms=4, n_exc_max=2, a_max=1, modes=(0.0, 1.3),
               mode_caps=(2, 3), photon_cap=4),
    StateSpace(n_atoms=300, n_exc_max=2, modes=(0.5,), mode_caps=(400,)),
])
def test_vacuum_is_the_basis_state_of_the_all_zero_label(space):
    got, want = vacuum(space), SparseKet.basis_state(space, space.label())
    assert (got.space, got.n_cols, got.labels()) == (space, 1, want.labels())
    for name in ("cols", "field", "sites", "amps"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
