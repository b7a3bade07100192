import cmath
import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldstore import states
from coldstore import (
    AtomConfig,
    ColdstoreError,
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

from coldstore.propagate import enumerate_sector

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


def test_construction_drops_amplitudes_as_arithmetic_does():
    # a modulus past the float range is kept either way, a tiny one dropped
    space = atomic_space(3, 1)
    l0, l1 = space.label(), space.label(c_sites=(0,))
    built = SparseKet(space, {l0: complex(1.5e308, 1.5e308), l1: 1e-16})
    scaled = SparseKet(space, {l0: 1e308, l1: 1e-16}) * complex(1.5, 1.5)
    assert built.labels() == scaled.labels() == [l0]
    assert np.array_equal(built.amps, scaled.amps)


@pytest.mark.parametrize("bad", [
    math.nan, complex(1.0, math.nan), complex(math.nan, 0.0), math.inf,
    -math.inf, complex(0.0, math.inf), complex(math.inf, math.nan)])
def test_a_nan_or_infinite_amplitude_is_refused_by_name(bad):
    # construction and arithmetic share one rule, with the label named; a
    # scalar with a NaN or infinite part is named before any product
    space = atomic_space(3, 1)
    l0, l1 = space.label(), space.label(c_sites=(0,))
    with pytest.raises(ColdstoreError, match=re.escape(f"label {l1} ")):
        SparseKet(space, {l0: 1.0, l1: bad})
    ket = SparseKet(space, {l0: 1e-16, l1: 1.0})
    scalar = re.escape(f"scalar {complex(bad)} ")
    with pytest.raises(ColdstoreError, match=scalar):
        _ = ket * bad
    with pytest.raises(ColdstoreError, match=scalar):
        _ = (SparseKet(space, {l0: 0.5}) + ket) * bad
    # a finite product past the float range is refused by its label
    with pytest.raises(ColdstoreError, match=re.escape(f"label {l0} ")):
        _ = (SparseKet(space, {l0: 1e308}) + ket) * 10.0


def test_a_non_finite_scalar_is_refused_by_name_before_any_product():
    # 0 * inf in the product would make numpy warn first, and under the
    # RuntimeWarning filter the caller would get the warning instead
    space = atomic_space(3, 1)
    l0, l1 = space.label(), space.label(c_sites=(0,))
    ket = SparseKet(space, {l0: 1.0, l1: 0.5j})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (math.inf, complex(0.0, -math.inf), math.nan,
                    complex(2.0, math.nan), np.float64(math.inf)):
            scalar = re.escape(f"scalar {complex(bad)} is not finite")
            for product in (lambda: ket * bad, lambda: bad * ket,
                            lambda: ket / bad):
                with pytest.raises(ColdstoreError, match=scalar):
                    product()
        # a divisor whose reciprocal overflows is refused as that scalar
        with pytest.raises(ColdstoreError, match=r"scalar \(inf\+0j\)"):
            _ = ket / 5e-324
        with pytest.raises(ZeroDivisionError):
            _ = ket / 0.0


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


def test_norm_adds_the_squares_left_to_right_on_every_python():
    # 100 squares of 1e-16 each vanish against 1.0 when added in turn; a
    # compensated sum (builtin sum() from Python 3.12 on) would keep 1e-14
    space = atomic_space(101, 1)
    ket = SparseKet(space, {space.label(c_sites=[j] if j else []):
                            1e-8 if j else 1.0 for j in range(101)})
    assert len(ket) == 101
    assert ket.norm() == 1.0


def _loop_norm(amps):
    """The reference: squares of Python's abs() added in turn."""
    total = 0.0
    for amp in amps:
        total += abs(amp) ** 2
    return total ** 0.5


@st.composite
def wide_range_amplitudes(draw):
    """Lengths on both sides of the switch to arrays; moduli from subnormal
    to past the square root of the float range, exact zeros among them."""
    n = draw(st.one_of(st.integers(0, 140), st.integers(
        states._NORM_ARRAY_MIN - 3, states._NORM_ARRAY_MIN + 3)))
    lo = draw(st.integers(-1080, 1024))
    hi = draw(st.integers(lo, 1024))
    zeros = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = np.ldexp(rng.uniform(0.5, 1.0, 2 * n) * rng.choice([-1, 1], 2 * n),
                     rng.integers(lo, hi, 2 * n, endpoint=True))
    parts[rng.random(2 * n) < zeros] = 0.0
    return (parts[:n] + 1j * parts[n:]).tolist()


_WIDE = atomic_space(200, 1)
_WIDE_LABELS = [_WIDE.label(c_sites=[j - 1] if j else []) for j in range(201)]


@settings(max_examples=300, deadline=None)
@given(wide_range_amplitudes())
@example([1j] * 70 + [complex(1.5e308, 1.5e308), 1e200])   # |amp| overflows
@example([complex(1.5e308, 1.5e308), 1e200])
# x ** 2 (C pow) and x * x round this square apart with glibc
@example([2.3691844065534586, 1.25] + [0j] * 62)
def test_norm_is_the_loop_of_squares_bit_for_bit_on_both_paths(amps):
    ket = SparseKet(_WIDE, dict.fromkeys(_WIDE_LABELS[:len(amps)], 1.0),
                    _checked=True)
    # any amplitudes, exact zeros and moduli past the float range too
    ket.amps = np.array(amps, dtype=complex)
    try:
        want = _loop_norm(amps)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as got:
            ket.norm()
        assert got.value.args == exc.args
    else:
        assert np.float64(ket.norm()).view(np.uint64) == \
            np.float64(want).view(np.uint64)


# -- every operation refuses what it cannot represent ---------------------------

# any float in either part, NaN and both infinities included, and moduli
# that overflow when summed or scaled
any_complex = st.complex_numbers(allow_nan=True, allow_infinity=True) \
    | st.sampled_from([complex(1e308, -1e308), -1.7e308, 1.7e308j,
                       complex(math.nan, 1.0), complex(-math.inf, 0.0),
                       complex(0.0, math.inf), 1e-15, 0j])


@st.composite
def split_entries(draw, amps):
    """A space and two label -> amplitude dicts: with every label of the
    second after every label of the first, so that their sum arrives in
    label order, or drawn from one pool."""
    space = draw(small_spaces())
    pool = SparseKet(space, dict.fromkeys(draw(st.lists(
        labels_of(space), min_size=1, max_size=10)), 1.0)).labels()
    cut = draw(st.integers(0, len(pool)))
    lower, upper = ((pool[:cut], pool[cut:]) if draw(st.booleans())
                    else (pool, pool))
    pick = (lambda part: st.lists(st.sampled_from(part), max_size=6)
            if part else st.just([]))
    x = {label: draw(amps) for label in draw(pick(lower))}
    y = {label: draw(amps) for label in draw(pick(upper))}
    return space, x, y


def _finite_or_refused(make):
    """make()'s ket, whose amplitudes must be finite, or None where it
    raises ColdstoreError."""
    try:
        ket = make()
    except ColdstoreError:
        return None
    assert np.isfinite(ket.amps).all()
    return ket


@settings(max_examples=200, deadline=None)
@given(split_entries(any_complex), any_complex, any_complex)
def test_every_ket_operation_raises_or_returns_finite_amplitudes(
        case, scalar, divisor):
    space, x_entries, y_entries = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kets = []
        for entries in (x_entries, y_entries):
            ket = _finite_or_refused(lambda: SparseKet(space, entries))
            assert (ket is None) == (not all(map(cmath.isfinite,
                                                 entries.values())))
            kets.append(ket)
        x, y = kets
        for ket in (k for k in (x, y) if k is not None):
            _finite_or_refused(lambda: scalar * ket)
            _finite_or_refused(lambda: ket * scalar)
            _finite_or_refused(lambda: -ket)
            if divisor == 0:
                with pytest.raises(ZeroDivisionError):
                    _ = ket / divisor
            else:
                _finite_or_refused(lambda: ket / divisor)
        if x is not None and y is not None:
            _finite_or_refused(lambda: x + y)
            _finite_or_refused(lambda: x - y)
            _finite_or_refused(lambda: y - x)


# -- in-order merges and binary-search lookups against the lexsort path --------

# signed zeros in either part, amplitudes at and about DROP_TOL
signed_amplitudes = amplitudes | st.sampled_from([
    complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(1.0, -0.0), complex(-0.0, -2.5), complex(1e-15, -0.0),
    complex(-1e-15, 0.0), complex(0.0, 1e-15), complex(-1e-16, 1e-15)])


@st.composite
def merge_entries(draw):
    """(space, n_cols, cols, field, sites, amps): entries in column and
    label order without a repeat, or in any order with repeats."""
    space = draw(small_spaces())
    pool = SparseKet(space, dict.fromkeys(draw(st.lists(
        labels_of(space), min_size=1, max_size=8)), 1.0))
    n_cols = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, n_cols - 1),
                      st.integers(0, len(pool) - 1))
    entries = draw(st.lists(pairs, max_size=12))
    if draw(st.booleans()):
        entries = sorted(set(entries))
    cols = np.array([col for col, _row in entries], dtype=np.uint8)
    rows = np.array([row for _col, row in entries], dtype=np.intp)
    amps = np.array([draw(signed_amplitudes) for _ in entries], complex)
    return space, n_cols, cols, pool.field[rows], pool.sites[rows], amps


def _same_bits(got, want):
    assert got.n_cols == want.n_cols
    for name in ("cols", "field", "sites"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(merge_entries())
def test_an_in_order_merge_is_the_lexsort_merge_bit_for_bit(case):
    got = states._merge(*case)
    with mock.patch.object(states, "_in_order", lambda keys: False):
        want = states._merge(*case)
    _same_bits(got, want)


def test_the_in_order_check_needs_one_strictly_increasing_key():
    key = np.array([3, 5, 9], dtype=np.int64)
    assert states._in_order([key])
    assert states._in_order([key[:0]])
    assert not states._in_order([np.array([3, 5, 5])])     # a repeat
    assert not states._in_order([key[::-1]])
    assert not states._in_order([key, key])                 # two keys


@st.composite
def lookups(draw):
    """A space, a ket of distinct labels in label order (drawn, or a whole
    sector of one column per label) and a ket whose labels may be absent
    from it."""
    space = draw(small_spaces())
    if draw(st.booleans()):
        totals = draw(st.lists(st.integers(0, 6), max_size=3))
        ref = enumerate_sector(space, totals)
    else:
        ref = SparseKet(space, dict.fromkeys(draw(st.lists(
            labels_of(space), max_size=10)), 1.0))
    probe = SparseKet(space, dict.fromkeys(draw(st.lists(
        labels_of(space), max_size=10)) + ref.labels()[:draw(
            st.integers(0, 5))], 1.0))
    return ref, probe


@settings(max_examples=200, deadline=None)
@given(lookups())
def test_find_is_the_index_of_each_label_or_minus_one(case):
    ref, probe = case
    index = {label: i for i, label in enumerate(ref.labels())}
    at = probe.find(ref)
    assert at.dtype == np.intp
    assert at.tolist() == [index.get(label, -1) for label in probe.labels()]


def test_find_takes_the_lexsort_path_only_when_a_label_needs_two_keys(
        monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: calls.append(len(keys)) or lexsort(keys))
    for space in (atomic_space(8, 3), atomic_space(200, 10)):
        labels = [space.label(c_sites=s) for s in
                  [(), (0,), (3,), (0, 5), (2, 4, 7), (1, 2, 3)]]
        ref = SparseKet(space, dict.fromkeys(labels[::2], 1.0))
        probe = SparseKet(space, dict.fromkeys(labels, 1.0))
        calls.clear()
        at = probe.find(ref)
        index = {label: i for i, label in enumerate(ref.labels())}
        assert at.tolist() == [index.get(label, -1)
                               for label in probe.labels()]
        assert len(states._keys(space, ref.field, ref.sites)) == \
            (1 if space.n_atoms == 8 else 2)
        assert calls == ([] if space.n_atoms == 8 else [2])
