import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldstore import (
    AtomConfig,
    FockOverflowError,
    NotNormalizedError,
    SectorOverflowError,
    SparseKet,
    SpaceMismatchError,
    StateSpace,
    ZeroNormError,
    atomic_space,
    fidelity,
    inner_product,
    level_population,
    normalize,
    photon_expectation,
)

from oracles import DictKet


def test_atom_config_make_sorts_and_validates():
    cfg = AtomConfig.make(5, c_sites=[3, 1], a_sites=[2])
    assert cfg.c_sites == (1, 3)
    assert cfg.a_sites == (2,)
    assert cfg.n_excited == 3
    assert cfg.levels() == "bcacb"[:5]


def test_atom_config_rejects_bad_sites():
    with pytest.raises(ValueError):
        AtomConfig.make(3, c_sites=[3])
    with pytest.raises(ValueError):
        AtomConfig.make(3, c_sites=[1], a_sites=[1])
    with pytest.raises(ValueError):
        AtomConfig(3, (1, 1)).validate()


def test_space_label_checks_sector_cap():
    space = atomic_space(4, 2)
    space.label(c_sites=(0, 1))
    with pytest.raises(SectorOverflowError):
        space.label(c_sites=(0, 1, 2))


def test_space_label_checks_fock_cap():
    space = StateSpace(n_atoms=2, n_exc_max=1, modes=(0.0,), mode_caps=(2,),
                       photon_cap=2)
    space.label(field=(2,))
    with pytest.raises(FockOverflowError):
        space.label(field=(3,))


def test_basis_state_and_amplitude():
    space = atomic_space(3, 1)
    label = space.label(c_sites=(1,))
    ket = SparseKet.basis_state(space, label)
    assert ket.amplitude(label) == 1.0
    assert ket.amplitude(space.label()) == 0.0
    assert ket.norm() == 1.0


def test_arithmetic_and_drop_tolerance():
    space = atomic_space(3, 1)
    l0 = space.label()
    l1 = space.label(c_sites=(0,))
    x = SparseKet.basis_state(space, l0) + 2j * SparseKet.basis_state(space, l1)
    y = x - 2j * SparseKet.basis_state(space, l1)
    assert y.labels() == [l0]
    tiny = 1e-16 * SparseKet.basis_state(space, l1)
    assert len(tiny) == 0


def test_space_mismatch_raises():
    a = SparseKet.basis_state(atomic_space(3, 1), atomic_space(3, 1).label())
    b = SparseKet.basis_state(atomic_space(4, 1), atomic_space(4, 1).label())
    with pytest.raises(SpaceMismatchError):
        _ = a + b
    with pytest.raises(SpaceMismatchError):
        inner_product(a, b)


def test_inner_product_conjugate_symmetry():
    space = atomic_space(4, 2)
    rng = np.random.default_rng(3)
    labels = [space.label(), space.label(c_sites=(0,)),
              space.label(c_sites=(1, 3))]
    amps_x = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps_y = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = SparseKet(space, dict(zip(labels, amps_x)))
    y = SparseKet(space, dict(zip(labels, amps_y)))
    assert inner_product(x, y) == pytest.approx(
        np.conj(inner_product(y, x)))


def test_inner_product_bitwise_deterministic():
    # the canonical label ordering makes the accumulation order, and hence
    # the floating-point result, independent of insertion order
    space = atomic_space(6, 3)
    rng = np.random.default_rng(11)
    labels = [space.label(c_sites=sites) for sites in
              [(0,), (1,), (2,), (0, 1), (1, 4), (0, 2, 5), (3,), ()]]
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    fwd = SparseKet(space, dict(zip(labels, amps)))
    rev = SparseKet(space, dict(zip(labels[::-1], amps[::-1])))
    assert inner_product(fwd, fwd) == inner_product(rev, rev)
    assert fwd.norm() == rev.norm()


def test_normalize_and_zero_norm():
    space = atomic_space(2, 1)
    ket = 3.0 * SparseKet.basis_state(space, space.label(c_sites=(0,)))
    unit, nrm = normalize(ket)
    assert nrm == pytest.approx(3.0)
    assert unit.norm() == pytest.approx(1.0)
    with pytest.raises(ZeroNormError):
        normalize(SparseKet.zero(space))


def test_fidelity_requires_unit_norm():
    space = atomic_space(2, 1)
    unit = SparseKet.basis_state(space, space.label())
    with pytest.raises(NotNormalizedError):
        fidelity(unit, 2.0 * unit)
    assert fidelity(unit, unit) == pytest.approx(1.0)


def test_photon_expectation_and_populations():
    space = StateSpace(n_atoms=3, n_exc_max=2, a_max=1, modes=(0.0, 0.5),
                       mode_caps=(2, 2), photon_cap=3)
    l1 = space.label(c_sites=(0,), field=(2, 0))
    l2 = space.label(c_sites=(1,), a_sites=(2,), field=(0, 1))
    ket = SparseKet(space, {l1: math.sqrt(0.5), l2: math.sqrt(0.5) * 1j})
    assert photon_expectation(ket) == pytest.approx(1.5)
    assert level_population(ket, "c") == pytest.approx(1.0)
    assert level_population(ket, "a") == pytest.approx(0.5)
    assert level_population(ket, "b") == pytest.approx(1.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=5),
       st.complex_numbers(max_magnitude=5, allow_nan=False,
                          allow_infinity=False))
def test_linearity_of_inner_product(amps, scale):
    space = atomic_space(5, 3)
    sites = [(), (0,), (1,), (0, 2), (1, 3, 4)]
    labels = [space.label(c_sites=s) for s in sites[:len(amps)]]
    x = SparseKet(space, dict(zip(labels, amps)))
    probe = SparseKet.basis_state(space, labels[0])
    lhs = inner_product(probe, scale * x)
    rhs = scale * inner_product(probe, x)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert x.norm() ** 2 == pytest.approx(
        sum(abs(a) ** 2 for a in amps if abs(a) > 1e-15), rel=1e-12)


# -- the arrays against a dict of labels ---------------------------------------

@st.composite
def small_spaces(draw):
    """N <= 8 atoms with c and a levels and up to two tracked modes."""
    n_atoms = draw(st.integers(1, 8))
    n_exc_max = draw(st.integers(0, min(n_atoms, 4)))
    caps = draw(st.lists(st.integers(0, 3), max_size=2))
    return StateSpace(n_atoms, n_exc_max, draw(st.integers(0, n_exc_max)),
                      modes=tuple(0.25 * i for i in range(len(caps))),
                      mode_caps=tuple(caps),
                      photon_cap=draw(st.none() | st.integers(0, 4)))


@st.composite
def labels_of(draw, space):
    n_a = draw(st.integers(0, space.a_max))
    n_c = draw(st.integers(0, space.n_exc_max - n_a))
    atoms = draw(st.permutations(range(space.n_atoms)))
    field, room = [], space.total_photon_cap
    for cap in space.mode_caps:
        field.append(draw(st.integers(0, min(cap, room))))
        room -= field[-1]
    return space.label(c_sites=atoms[:n_c], a_sites=atoms[n_c:n_c + n_a],
                       field=field)


amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False) \
    | st.sampled_from([0j, 1e-15, -1e-15j, 2e-15, 1e-16 + 1e-16j])
# what is left of x + y where y cancels x: at, below and above DROP_TOL
leftovers = st.sampled_from([0.0, 1e-16, 5e-16j, 1e-15, -1e-15, 2e-15j])


@st.composite
def entry_pairs(draw):
    """A space and two label -> amplitude dicts, the second cancelling
    some entries of the first."""
    space = draw(small_spaces())
    labels = st.lists(labels_of(space), max_size=10)
    x = {label: draw(amplitudes) for label in draw(labels)}
    y = {label: draw(amplitudes) for label in draw(labels)}
    for label in draw(st.lists(st.sampled_from(sorted(x)), max_size=4)
                      if x else st.just([])):
        y[label] = -x[label] + draw(leftovers)
    return space, x, y


def _same(ket, ref):
    assert list(ket.items()) == ref.items()


@settings(max_examples=150, deadline=None)
@given(entry_pairs(), amplitudes,
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
def test_the_arrays_of_a_ket_match_a_dict_of_labels_bit_for_bit(
        case, scalar, divisor):
    # == on every amplitude and every float: the same bits, up to the sign
    # of a zero
    space, x_entries, y_entries = case
    x, y = SparseKet(space, x_entries), SparseKet(space, y_entries)
    rx, ry = DictKet(x_entries), DictKet(y_entries)
    zero, rzero = SparseKet.zero(space), DictKet({})
    _same(x, rx)
    _same(y, ry)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(scalar * x, rx.scaled(scalar))
    _same(x * scalar, rx.scaled(scalar))
    _same(x / divisor, rx.scaled(1.0 / complex(divisor)))
    _same(-x, rx.scaled(-1.0))
    _same(zero + x, rx)
    _same(x + zero, rx)
    _same(x - x, rzero)
    for ket, ref in ((x, rx), (y, ry), (x + y, rx + ry), (zero, rzero)):
        assert ket.norm() == ref.norm()
        assert photon_expectation(ket) == ref.photon_expectation()
        for level in "bca":
            assert level_population(ket, level) == ref.level_population(level)
    assert inner_product(x, y) == rx.inner(ry)
    assert inner_product(y, x) == ry.inner(rx)
    assert inner_product(x, zero) == 0j
    for label in [*x_entries, *y_entries]:
        assert x.amplitude(label) == rx.amplitude(label)
        assert x.amplitude(tuple(label)) == rx.amplitude(label)
    bigger = dataclasses.replace(space, n_atoms=space.n_atoms + 1)
    retagged = dataclasses.replace(
        space, modes=tuple(m + 1.0 for m in space.modes))
    assert x.amplitude(bigger.label()) == 0j
    for other in {bigger, retagged} - {space}:
        for ket in (zero, x):
            stranger = SparseKet.zero(other)
            with pytest.raises(SpaceMismatchError):
                _ = ket + stranger
            with pytest.raises(SpaceMismatchError):
                _ = stranger - ket
            with pytest.raises(SpaceMismatchError):
                inner_product(ket, stranger)
