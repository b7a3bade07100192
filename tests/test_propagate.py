import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coldstore import (
    BosonicState,
    BudgetExceededError,
    EitParams,
    Geometry,
    IntegrationError,
    ModeSet,
    SpaceMismatchError,
    StateSpace,
    apply_field,
    apply_hamiltonian,
    bosonic_to_joint,
    enumerate_basis,
    enumerate_sector,
    estimate_basis_size,
    estimate_sector_size,
    evolve_exact_atoms,
    exact_vs_analytic_deviation,
    RampSchedule,
    control_amplitude,
    joint_space,
    operator_matrix,
    rk4_propagate,
    transfer_space,
    vacuum,
    with_field_occupation,
)
from coldstore import propagate
from coldstore.eit import apply_control_coupling, sweep_time_step
from coldstore.propagate import (
    SparseOperator,
    ket_to_vector,
    sector_operator,
    step_grid,
    vector_to_ket,
)
from coldstore.transfer import (
    _apply_transfer_hamiltonian,
    _transfer_step,
    _two_boson_hamiltonian,
)

from oracles import rk4_stage_loop


def transfer_sector(n_atoms, quanta, rabi=1.0):
    geom = Geometry.lattice(n_atoms, 0.5)
    space = transfer_space(n_atoms, quanta)
    basis = enumerate_sector(space, [quanta])
    return (lambda ket: _apply_transfer_hamiltonian(ket, geom, 0.0, rabi),
            space, basis)


def sweep_sector(n_atoms, quanta):
    params = EitParams(Geometry.lattice(n_atoms, 0.5),
                       ModeSet(1.9, 0.7, (0.0,), "raman"),
                       1.0, rabi=0.0)
    space = joint_space(params, quanta)
    basis = enumerate_sector(space, [quanta])
    return ((lambda ket: apply_hamiltonian(ket, params, rabi=0.0)),
            (lambda ket: apply_control_coupling(ket, params)), space, basis)


def random_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_sector_operator_is_sparse_at_every_size():
    for n_atoms, quanta, dim in ((1, 1, 2), (4, 1, 5), (8, 3, 93)):
        apply_fn, space, basis = transfer_sector(n_atoms, quanta)
        assert len(basis) == dim
        op = sector_operator(apply_fn, space, basis)
        assert isinstance(op, SparseOperator) and op.shape == (dim, dim)
        assert np.array_equal(op.toarray(),
                              operator_matrix(apply_fn, space, basis))


def test_size_estimates_count_the_enumerated_labels():
    # every cap binds somewhere on this grid: n_exc_max and a_max below N,
    # a mode capped at 0, photon_cap 0 and below the sum of the mode caps
    spaces = []
    for n_atoms in (1, 3, 5):
        for n_exc_max in sorted({1, min(2, n_atoms), n_atoms}):
            for a_max in sorted({1, n_exc_max}):
                for caps in ((), (2,), (1, 3), (2, 0, 1)):
                    for photon_cap in (None, 0, sum(caps) - 1):
                        if photon_cap == -1:
                            continue
                        spaces.append(StateSpace(
                            n_atoms, n_exc_max, a_max,
                            tuple(0.1 * i for i in range(len(caps))), caps,
                            photon_cap))
    assert len(spaces) == 121
    for space in spaces:
        for totals in ([0], [1], [2, 4], range(7)):
            assert estimate_sector_size(space, totals) == \
                len(enumerate_sector(space, totals)), (space, totals)
        assert estimate_basis_size(space) == len(enumerate_basis(space))
        for estimate_or_enumerate in (estimate_sector_size, enumerate_sector):
            with pytest.raises(ValueError, match="negative"):
                estimate_or_enumerate(space, [2, -1])


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
    control = _lookup(np.linspace(0.0, 3.0, 2 * n_steps + 1), 1e-3)
    psi0 = random_vector(rng, len(basis))
    sparse_psi = rk4_propagate(ops[0], psi0, 1e-3, n_steps, h1=ops[1],
                               control=control)
    dense_psi = rk4_propagate(dense[0], psi0, 1e-3, n_steps, h1=dense[1],
                              control=control)
    assert_allclose(sparse_psi, dense_psi, rtol=0, atol=1e-12)


def _sectors_to_order():
    """(space, totals) of transfer sectors, whose rows are built in label
    order, and of sweep and multimode sectors, whose rows are not."""
    for n_atoms in (*range(1, 9), 16, 24):
        for quanta in (1, 2, 3):
            space = transfer_space(n_atoms, quanta, 0.4)
            yield space, [quanta]
            yield space, range(quanta + 1)
    for n_atoms, quanta in ((4, 1), (8, 1), (8, 2), (5, 3)):
        *_, space, _basis = sweep_sector(n_atoms, quanta)
        yield space, [quanta]
    yield StateSpace(5, 3, 1, (0.0, 0.5), (2, 1), 2), [2, 3]


def test_enumerate_sector_keeps_the_rows_of_the_lexsort_path_bit_for_bit(
        monkeypatch):
    got = [enumerate_sector(space, totals)
           for space, totals in _sectors_to_order()]
    monkeypatch.setattr(propagate, "_in_order", lambda keys: False)
    for ket, (space, totals) in zip(got, _sectors_to_order()):
        want = enumerate_sector(space, totals)
        assert ket.n_cols == want.n_cols == len(want)
        for name in ("cols", "field", "sites", "amps"):
            a, b = getattr(ket, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (space, name)


def test_a_transfer_sector_is_built_in_label_order(monkeypatch):
    def refuse(keys):
        raise AssertionError("sorted a sector already in order")
    monkeypatch.setattr(np, "lexsort", refuse)
    assert len(enumerate_sector(transfer_space(24, 3), [3])) == 2325


def test_a_sparse_matvec_leaves_its_vector_alone():
    op = SparseOperator([0, 2, 1], [1, 0, 2], [2.0, 1j, -0.5], 3)
    v = np.array([1.0, 2j, 3.0 - 1j])
    v.flags.writeable = False
    assert np.array_equal(op @ v, [4j, -1.5 + 0.5j, 1j])
    assert np.array_equal(v, [1.0, 2j, 3.0 - 1j])
    assert np.array_equal(op @ np.array([1, 2, 3]), [4, -1.5, 1j])


def test_the_closure_rows_stay_orthonormal_as_they_double():
    # a random state in the 93-state sector of N = 8 closes on 9 rows, so
    # the rows and their conjugates double four times, from 1 to 16
    apply_fn, space, basis = transfer_sector(8, 3)
    h = sector_operator(apply_fn, space, basis)
    psi = random_vector(np.random.default_rng(5), len(basis))
    rows, (reduced,) = propagate._reachable_subspace((h,), psi)
    assert len(rows) > 8
    assert_allclose(rows.conj() @ rows.T, np.eye(len(rows)), rtol=0,
                    atol=1e-13)
    assert_allclose(reduced, rows.conj() @ np.array([h @ v for v in rows]).T,
                    rtol=0, atol=1e-13)


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

    # a (row, column) pair given twice counts twice, in @ and in toarray()
    twice = SparseOperator([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0], 2)
    assert np.array_equal(twice.toarray(), [[0, 3], [5, 0]])
    assert np.array_equal(twice @ np.ones(2), [3, 5])


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
    lower = lambda ket: apply_field(ket, 0)
    message = r"maps \|.*outside.*widen the caps or the totals"
    for build in (sector_operator, operator_matrix):
        with pytest.raises(IntegrationError, match=message):
            build(lower, space, basis)


def test_sector_vectors_round_trip_and_refuse_what_the_sector_lacks():
    space = transfer_space(4, 3)
    basis = enumerate_sector(space, [3])
    ket = bosonic_to_joint(BosonicState.fock(2, 1), Geometry.lattice(4, 0.5))
    vec = ket_to_vector(ket, basis)
    assert (vector_to_ket(space, basis, vec) - ket).norm() == 0.0
    # amplitudes at or below DROP_TOL drop, as a ket's do
    assert len(vector_to_ket(space, basis, 1e-15 * vec / abs(vec).max())) == 0
    with pytest.raises(IntegrationError,
                       match=r"state component \|2;bbbb> lies outside"):
        ket_to_vector(with_field_occupation(vacuum(space), (2,)), basis)
    # |3;bbbb> is a label of both spaces, but their digits differ
    wider = StateSpace(4, 3, 0, (0.0,), (4,), 4)
    with pytest.raises(SpaceMismatchError, match="incompatible spaces"):
        ket_to_vector(with_field_occupation(vacuum(wider), (3,)), basis)


def test_a_space_other_than_the_basis_space_is_refused():
    # a 4-atom sector's digits read in a 5-atom space would make a 5-atom
    # ket, or an operator that never looked at the space it was given
    apply_fn, space, basis = transfer_sector(4, 3)
    wrong = transfer_space(5, 3)
    vec = ket_to_vector(bosonic_to_joint(BosonicState.fock(2, 1),
                                         Geometry.lattice(4, 0.5)), basis)
    for build in (lambda: vector_to_ket(wrong, basis, vec),
                  lambda: sector_operator(apply_fn, wrong, basis),
                  lambda: operator_matrix(apply_fn, wrong, basis)):
        with pytest.raises(SpaceMismatchError, match="incompatible spaces"):
            build()
    assert vector_to_ket(space, basis, vec).space == space


def test_sector_operator_acts_on_every_nonzero_entry():
    # entries far below the ket drop tolerance are still multiplied
    _apply_fn, space, basis = transfer_sector(4, 3)
    op = sector_operator(lambda ket: 1e6 * ket, space, basis)
    v = 1e-18 * random_vector(np.random.default_rng(3), len(basis))
    assert_allclose(op @ v, 1e6 * v, rtol=1e-15, atol=0)


def test_sector_operator_refuses_a_vector_of_another_shape():
    op = sector_operator(*transfer_sector(4, 3))
    assert op.shape == (15, 15)
    for shape in [(14,), (16,), (15, 1), (1, 15), ()]:
        with pytest.raises(ValueError, match="shape"):
            op @ np.ones(shape)


def test_large_transfer_sector_never_forms_a_dense_matrix(monkeypatch):
    # the evolution hands RK4 one sparse operator of 13,296 triplets
    def refuse(*args, **kwargs):
        raise AssertionError("dense sector matrix formed")

    handed = []

    def recorded(h0, *args, **kwargs):
        handed.append(h0)
        return rk4_propagate(h0, *args, **kwargs)

    for original, stand_in in ((operator_matrix, refuse),
                               (rk4_propagate, recorded)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("coldstore") and \
                    vars(module).get(original.__name__) is original:
                monkeypatch.setattr(module, original.__name__, stand_in)
    monkeypatch.setattr(SparseOperator, "toarray", refuse)
    assert propagate.operator_matrix is not operator_matrix
    dev = exact_vs_analytic_deviation(BosonicState.fock(3, 0),
                                      Geometry.lattice(24, 0.5), rabi=1.0,
                                      t=math.pi / 2)
    assert [(type(h), h.shape, h._amps.size) for h in handed] == \
        [(SparseOperator, (2325, 2325), 13_296)]
    assert dev == pytest.approx(0.0689078768544164, rel=0, abs=1e-8)


def _constant(value):
    """The callable form of a constant control."""
    return lambda t: np.full(len(t), value)


def test_rk4_rejects_control_without_control_operator():
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="h1"):
        rk4_propagate(np.eye(2), psi, 0.1, 3, control=_constant(1.0))


@pytest.mark.parametrize("control", [None, 1.0, np.float64(1.0), np.zeros(7),
                                     [0.0] * 7],
                         ids=["none", "float", "numpy-float", "array", "list"])
def test_rk4_refuses_h1_without_a_callable_control(control):
    # h1 with no control, or with the constant or half-step array forms
    # that a callable u(t) replaced, is refused before anything runs
    seen = []
    with pytest.raises(ValueError, match="control must be a callable"):
        rk4_propagate(np.eye(2), np.array([1.0, 0.0]), 0.1, 3, h1=np.eye(2),
                      control=control,
                      on_sample=lambda step, t, v: seen.append(step))
    assert seen == []


@pytest.mark.parametrize("sample_every", [0, -1])
def test_rk4_rejects_sample_every_below_one(sample_every):
    psi = np.array([1.0, 0.0])
    seen = []
    with pytest.raises(ValueError, match="sample_every"):
        rk4_propagate(np.eye(2), psi, 0.1, 3, sample_every=sample_every,
                      on_sample=lambda step, t, v: seen.append(step))
    assert seen == []


@pytest.mark.parametrize("n_steps", [-3, -1, 2.0, 2.5, "3", None])
@pytest.mark.parametrize("with_control", [False, True])
def test_rk4_rejects_bad_step_counts(n_steps, with_control):
    psi = np.array([1.0, 0.0])
    kwargs = {"h1": np.eye(2), "control": _constant(1.0)} \
        if with_control else {}
    with pytest.raises(ValueError, match="n_steps"):
        rk4_propagate(np.eye(2), psi, 0.1, n_steps, **kwargs)


@pytest.mark.parametrize("with_control", [False, True])
def test_rk4_rejects_non_integer_sample_every(with_control):
    psi = np.array([1.0, 0.0])
    kwargs = {"h1": np.eye(2), "control": _constant(1.0)} \
        if with_control else {}
    with pytest.raises(ValueError, match="sample_every"):
        rk4_propagate(np.eye(2), psi, 0.1, 10, sample_every=2.5,
                      on_sample=lambda step, t, v: None, **kwargs)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("with_control", [False, True])
def test_rk4_rejects_non_finite_step(dt, with_control):
    psi = np.array([1.0, 0.0])
    kwargs = {"h1": np.eye(2), "control": _constant(1.0)} \
        if with_control else {}
    with pytest.raises(ValueError, match="dt"):
        rk4_propagate(np.eye(2), psi, dt, 3, **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["control", "control array", "psi0"])
def test_rk4_rejects_non_finite_control_or_state(where, bad):
    # a control that is bad throughout, or at one half-step of its grid, is
    # refused when it is read, before any sample after step 0; psi0 up front
    psi = np.array([1.0, 0.0])
    values = np.zeros(7)
    control = _lookup(values, 0.1)
    if where == "control":
        control = _constant(bad)
    elif where == "control array":
        values[3] = bad
    else:
        psi = np.array([1.0, bad])
    seen = []
    with pytest.raises(ValueError, match=where.split()[0]):
        rk4_propagate(np.eye(2), psi, 0.1, 3, h1=np.eye(2), control=control,
                      on_sample=lambda step, t, v: seen.append(step))
    assert seen == ([] if where == "psi0" else [0])
    if where == "psi0":
        with pytest.raises(ValueError, match="psi0"):
            rk4_propagate(np.eye(2), psi, 0.1, 3)


def test_rk4_accepts_numpy_integers_and_zero_steps():
    psi = np.array([1.0, 0.0])
    seen = []
    for h1, control in ((None, None), (np.eye(2), _constant(1.0))):
        out = rk4_propagate(np.eye(2), psi, 0.1, np.int64(0), h1=h1,
                            control=control,
                            on_sample=lambda step, t, v: seen.append(step))
        assert np.array_equal(out, psi)
    assert seen == [0, 0]


def test_step_grid_covers_the_span():
    assert step_grid(1.0, 0.3) == (0.25, 4)
    assert step_grid(-1.0, 0.3) == (-0.25, 4)
    assert step_grid(0.0, 0.1) == (0.0, 1)
    assert step_grid(2.0, math.inf) == (2.0, 1)


@pytest.mark.parametrize("t, dt_max", [
    (1.0, -0.1), (1.0, 0.0), (1.0, math.nan), (1.0, -math.inf),
    (math.inf, 0.1), (-math.inf, 0.1), (math.nan, 0.1), (math.nan, math.inf),
])
def test_step_grid_rejects_bad_arguments(t, dt_max):
    with pytest.raises(ValueError) as info:
        step_grid(t, dt_max)
    assert info.type is ValueError


@pytest.fixture(scope="module")
def sweep_problem():
    """The sweep's 17-state sector as dense operator_matrix forms, with its
    real control schedule:
    N=8, one quantum, duration_coupling 5, control clamped at 50 g sqrt(N),
    25,000 steps; the stage-by-stage reference sampled at every step."""
    params = EitParams(Geometry.lattice(8, 0.5),
                       ModeSet(1.9, 0.7, (0.0,), "raman"),
                       1.0, rabi=0.0)
    space = joint_space(params, 1)
    basis = enumerate_sector(space, [1])
    h0 = operator_matrix(lambda k: apply_hamiltonian(k, params, rabi=0.0),
                         space, basis)
    h1 = operator_matrix(lambda k: apply_control_coupling(k, params),
                         space, basis)
    cc = params.collective_coupling
    ramp = RampSchedule(0.0, math.pi / 2, 5.0 / cc)
    rabi_max = 50.0 * cc
    dt, n_steps = step_grid(ramp.duration, sweep_time_step(cc, rabi_max))
    control = control_amplitude(
        cc, ramp.theta(np.linspace(0.0, ramp.duration, 2 * n_steps + 1)),
        rabi_max)
    psi0 = ket_to_vector(with_field_occupation(vacuum(space), (1,)), basis)
    reference = rk4_stage_loop(h0, h1, psi0, dt, control, 1)
    return h0, h1, psi0, dt, n_steps, control, reference


@pytest.mark.parametrize("sample_every", [625, 62, 30_000])
def test_compiled_rk4_step_matches_the_stage_loop_oracle(sweep_problem,
                                                         sample_every):
    h0, h1, psi0, dt, n_steps, control, reference = sweep_problem
    assert isinstance(h0, np.ndarray) and h0.shape == (17, 17)
    assert n_steps == 25_000
    seen = []
    psi = rk4_propagate(h0, psi0, dt, n_steps, h1=h1,
                        control=_lookup(control, dt),
                        sample_every=sample_every,
                        on_sample=lambda step, t, v: seen.append(
                            (step, t, v.copy())))
    steps = sorted({*range(0, n_steps, sample_every), n_steps})
    assert [(step, t) for step, t, _v in seen] == \
        [reference[step][:2] for step in steps]
    for (step, _t, v) in seen:
        assert_allclose(v, reference[step][2], rtol=0, atol=1e-14)
    expected = reference[-1][2]
    assert_allclose(psi, expected, rtol=0, atol=1e-14)
    drift = max(abs(np.linalg.norm(v) - 1.0) for _s, _t, v in seen)
    expected_drift = max(abs(np.linalg.norm(reference[step][2]) - 1.0)
                         for step in steps)
    assert drift <= expected_drift


def _sampled_run(h0, h1, psi0, dt, n_steps, control, sample_every):
    """rk4_propagate with the callable ``control``, and its samples."""
    seen = []
    psi = rk4_propagate(h0, psi0, dt, n_steps, h1=h1, control=control,
                        sample_every=sample_every,
                        on_sample=lambda step, t, v: seen.append(
                            (step, t, v.copy())))
    return psi, seen


@pytest.mark.parametrize("sample_every", [97, 1, 25_001])
def test_composed_stretches_match_the_stage_loop_oracle(sweep_problem,
                                                        sample_every):
    # stretches of 97 steps (odd, so the product tree pads five of its
    # levels), of one step (the fast sweep's schedule), and one stretch
    # longer than a block of step matrices
    h0, h1, psi0, dt, n_steps, control, reference = sweep_problem
    basis, _ = propagate._reachable_subspace((h0, h1), psi0)
    assert len(basis) == 3 <= propagate.COMPOSE_MAX_DIM
    psi, seen = _sampled_run(h0, h1, psi0, dt, n_steps, _lookup(control, dt),
                             sample_every)
    steps = sorted({*range(0, n_steps, sample_every), n_steps})
    assert [(step, t) for step, t, _v in seen] == \
        [reference[step][:2] for step in steps]
    assert_allclose(np.array([v for _s, _t, v in seen]),
                    np.array([reference[step][2] for step in steps]),
                    rtol=0, atol=1e-14)
    assert_allclose(psi, reference[-1][2], rtol=0, atol=1e-14)


def _lookup(control, dt, reads=None):
    """The callable form of a half-step ``control`` array: the value at
    each grid time t = i dt/2, logging the half-steps of each read."""
    def u(t):
        index = np.rint(t / (dt / 2)).astype(np.intp)
        assert np.array_equal(index * (dt / 2), t)
        if reads is not None:
            reads.append(index)
        return control[index]
    return u


@pytest.mark.parametrize("sample_every", [1, 97, 25_001])
def test_the_control_is_read_ahead_once_in_order_and_matches_the_stage_loop(
        sweep_problem, sample_every):
    # one-step stretches, 97-step stretches and one unsampled stretch in
    # blocks of step matrices: the callable is asked for 500 steps at a
    # time, or for a whole block when it holds more
    h0, h1, psi0, dt, n_steps, control, reference = sweep_problem
    reads = []
    psi, seen = _sampled_run(h0, h1, psi0, dt, n_steps,
                             _lookup(control, dt, reads), sample_every)
    steps = sorted({*range(0, n_steps, sample_every), n_steps})
    assert [(s, t) for s, t, _v in seen] == \
        [reference[step][:2] for step in steps]
    assert_allclose(np.array([v for _s, _t, v in seen]),
                    np.array([reference[step][2] for step in steps]),
                    rtol=0, atol=1e-14)
    assert_allclose(psi, reference[-1][2], rtol=0, atol=1e-14)
    assert np.array_equal(np.concatenate(reads), np.arange(2 * n_steps + 1))
    # every read after the first is of whole steps, every one but the last
    # of at least _CONTROL_HALF_STEPS, and none longer than that plus one
    # block of the 3-state closure
    assert all(len(r) % 2 == 0 for r in reads[1:])
    assert min(map(len, reads[:-1])) >= propagate._CONTROL_HALF_STEPS
    block = propagate.STEP_BLOCK_BYTES // (16 * 3 * 3)
    assert max(map(len, reads)) <= propagate._CONTROL_HALF_STEPS + 2 * block


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("half_step", [0, 1, 999, 1000, 1001, 1500, 4000])
def test_a_non_finite_callable_control_stops_before_the_samples_past_it(
        bad, half_step):
    rng = np.random.default_rng(20)
    h0, h1 = (a + a.conj().T for a in rng.normal(size=(2, 4, 4))
              + 1j * rng.normal(size=(2, 4, 4)))
    n_steps, dt = 2_000, 1e-3
    control = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    control[half_step] = bad
    seen = []
    with pytest.raises(ValueError, match="control must be finite"):
        rk4_propagate(h0, random_vector(rng, 4), dt, n_steps, h1=h1,
                      control=_lookup(control, dt),
                      on_sample=lambda step, t, v: seen.append(step))
    assert seen and all(2 * step < half_step for step in seen[1:])


def test_a_callable_control_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="shape"):
        rk4_propagate(np.eye(2), np.array([1.0, 0.0]), 0.1, 3, h1=np.eye(2),
                      control=lambda t: np.zeros(len(t) + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 625, 1000])
@pytest.mark.parametrize("dim", [1, 3, 6, 8])
def test_compose_matches_the_sequential_product(dim, n):
    # random non-commuting increments of RK4-step size, around the composed
    # sizes; the reference multiplies the I + D_n in turn, the later step on
    # the left, held as increments so I is never rounded
    rng = np.random.default_rng(100 * dim + n)
    steps = 1e-3 * (rng.normal(size=(n, dim, dim))
                    + 1j * rng.normal(size=(n, dim, dim)))
    composed = propagate._compose(steps)
    if n == 1:
        assert np.array_equal(composed, steps[0])
    expected = np.zeros((dim, dim), dtype=complex)
    for d_n in steps:
        expected = d_n + expected + d_n @ expected
    assert composed.shape == (dim, dim)
    assert np.abs(composed - expected).max() <= \
        1e-13 * np.abs(expected).max()


def test_controlled_rk4_with_a_zero_step_returns_psi_exactly(sweep_problem):
    h0, h1, psi0, _dt, n_steps, control, _reference = sweep_problem
    rng = np.random.default_rng(18)
    for start in (psi0, 2.5 * random_vector(rng, h0.shape[0])):
        psi, seen = _sampled_run(h0, h1, start, 0.0, n_steps,
                                 _constant(control.max()), 97)
        assert np.array_equal(psi, start)
        assert all(np.array_equal(v, start) for _s, _t, v in seen)
        assert {t for _s, t, _v in seen} == {0.0}


@pytest.fixture(scope="module")
def sparse_sweep_problem():
    """The sweep's 129-state sector of N=8 with two quanta as sparse
    operators, starting from two photons, with a schedule clamped at
    50 g sqrt(N) over duration_coupling 1 (5,000 steps); the stage-by-stage
    reference runs on the dense operator_matrix forms, sampled every step."""
    params = EitParams(Geometry.lattice(8, 0.5),
                       ModeSet(1.9, 0.7, (0.0,), "raman"),
                       1.0, rabi=0.0)
    space = joint_space(params, 2)
    basis = enumerate_sector(space, [2])
    fns = (lambda k: apply_hamiltonian(k, params, rabi=0.0),
           lambda k: apply_control_coupling(k, params))
    h0, h1 = (sector_operator(fn, space, basis) for fn in fns)
    cc = params.collective_coupling
    ramp = RampSchedule(0.0, math.pi / 2, 1.0 / cc)
    rabi_max = 50.0 * cc
    dt, n_steps = step_grid(ramp.duration, sweep_time_step(cc, rabi_max))
    control = control_amplitude(
        cc, ramp.theta(np.linspace(0.0, ramp.duration, 2 * n_steps + 1)),
        rabi_max)
    psi0 = ket_to_vector(with_field_occupation(vacuum(space), (2,)), basis)
    reference = rk4_stage_loop(*(operator_matrix(fn, space, basis)
                                 for fn in fns), psi0, dt, control, 1)
    return h0, h1, psi0, dt, n_steps, control, reference


@pytest.mark.parametrize("sample_every", [97, 10_000])
def test_sparse_sector_sweep_matches_the_stage_loop_oracle(
        sparse_sweep_problem, sample_every):
    h0, h1, psi0, dt, n_steps, control, reference = sparse_sweep_problem
    assert isinstance(h0, SparseOperator) and h0.shape == (129, 129)
    assert isinstance(h1, SparseOperator)
    assert n_steps == 5_000
    seen = []
    psi = rk4_propagate(h0, psi0, dt, n_steps, h1=h1,
                        control=_lookup(control, dt),
                        sample_every=sample_every,
                        on_sample=lambda step, t, v: seen.append(
                            (step, t, v.copy())))
    steps = sorted({*range(0, n_steps, sample_every), n_steps})
    assert [(step, t) for step, t, _v in seen] == \
        [reference[step][:2] for step in steps]
    for (step, _t, v) in seen:
        assert_allclose(v, reference[step][2], rtol=0, atol=1e-12)
    assert_allclose(psi, reference[-1][2], rtol=0, atol=1e-12)


def test_a_closure_above_the_crossover_matches_the_stage_loop_oracle(
        sparse_sweep_problem):
    # a random state of the 129-state sector: its closure is too large to
    # compose, so every step is applied in turn
    h0, h1, _psi0, dt, n_steps, control, _reference = sparse_sweep_problem
    psi0 = random_vector(np.random.default_rng(19), h0.shape[0])
    basis, _ = propagate._reachable_subspace((h0, h1), psi0)
    assert len(basis) > propagate.COMPOSE_MAX_DIM
    reference = rk4_stage_loop(h0.toarray(), h1.toarray(), psi0, dt, control,
                               1000)
    psi, seen = _sampled_run(h0, h1, psi0, dt, n_steps,
                             _lookup(control, dt), 1000)
    assert [(step, t) for step, t, _v in seen] == \
        [(step, t) for step, t, _v in reference]
    for (_s, _t, v), (_rs, _rt, expected) in zip(seen, reference):
        assert_allclose(v, expected, rtol=0, atol=1e-12)
    assert_allclose(psi, reference[-1][2], rtol=0, atol=1e-12)


def test_a_reachable_space_above_the_cap_is_refused():
    # a random Hermitian tridiagonal matrix: the closure of a random state
    # under it is all 600 states
    rng = np.random.default_rng(17)
    dim = 600
    assert propagate.REACHABLE_MAX_DIM < dim
    off = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    h = SparseOperator(np.r_[np.arange(dim), np.arange(dim - 1),
                             np.arange(1, dim)],
                       np.r_[np.arange(dim), np.arange(1, dim),
                             np.arange(dim - 1)],
                       np.r_[rng.normal(size=dim), off, off.conj()], dim)
    seen = []
    for h1, control in ((None, None), (h, _constant(1.0))):
        with pytest.raises(BudgetExceededError) as info:
            rk4_propagate(h, random_vector(rng, dim), 0.01, 10, h1=h1,
                          control=control,
                          on_sample=lambda step, t, v: seen.append(step))
        assert f"{propagate.REACHABLE_MAX_DIM}" in str(info.value)
        assert f"{dim} states" in str(info.value)
    assert seen == [0, 0]


def test_an_operator_whose_images_overflow_is_refused():
    # |h e_0| = 1e300 squares to infinity: the leakage check would compare
    # inf with inf and pass
    h = 1e300 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(IntegrationError,
                       match=r"\|h v\| of closure row 0 is inf"):
        rk4_propagate(h, np.array([1.0, 0.0]), 1e-301, 10)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scalar_control_memory_does_not_grow_with_the_step_count():
    # the closure of e_0 has 2 states; at 2 and 8 whole step blocks both
    # calls below compose blocks of one size
    h0 = np.array([[0.0, 1.0], [1.0, 0.3]])
    h1 = np.diag([0.5, -0.5])
    psi0 = np.array([1.0, 0.0])
    n_steps = 2 * (propagate.STEP_BLOCK_BYTES // (16 * 2 * 2))

    def steps(n_steps):
        return lambda: rk4_propagate(h0, psi0, 1e-4, n_steps, h1=h1,
                                     control=_constant(0.7))

    steps(n_steps)()
    assert abs(_traced_peak(steps(4 * n_steps))
               - _traced_peak(steps(n_steps))) <= 64 * 1024


def test_a_closure_that_drops_a_needed_direction_is_refused(monkeypatch):
    # at REACHABLE_TOL = 1 every new direction counts as rounding, so the
    # closure of |3 photons> keeps one row and h V leaves its span
    apply_fn, space, basis = transfer_sector(8, 3)
    h = sector_operator(apply_fn, space, basis)
    psi0 = np.zeros(len(basis), dtype=complex)
    psi0[basis.labels().index(space.label(field=(3,)))] = 1.0
    assert np.array_equal(rk4_propagate(h, psi0, 0.1, 0), psi0)
    monkeypatch.setattr(propagate, "REACHABLE_TOL", 1.0)
    with pytest.raises(IntegrationError,
                       match=r"closure of psi0 \(1 states\) is not invariant"):
        rk4_propagate(h, psi0, 0.01, 10)


class _NoControl:
    """h1 = 0 for the stage-loop oracle, with no dim^2 array behind it."""

    def __matmul__(self, v):
        return np.zeros(len(v), dtype=complex)


def control_free_oracle(h0, psi0, dt, n_steps, sample_every=None):
    """Stage-loop RK4 of a constant h0: the oracle with a zero control."""
    samples = rk4_stage_loop(h0, _NoControl(), psi0, dt,
                             np.zeros(2 * n_steps + 1),
                             sample_every or n_steps + 1)
    return samples if sample_every else samples[-1][2]


@pytest.fixture(scope="module")
def transfer_sector_24():
    """The sparse 2,325-state sector of N=24, 3 quanta at wavevectors 0
    and 1.3, with the collective Fock state |3 photons> and the transfer
    step grid over a quarter period."""
    out = {}
    for k in (0.0, 1.3):
        geom = Geometry.lattice(24, 0.5)
        joint = bosonic_to_joint(BosonicState.fock(3, 0), geom, k)
        basis = enumerate_sector(joint.space, [3])
        h = sector_operator(
            lambda ket: _apply_transfer_hamiltonian(ket, geom, k, 1.0),
            joint.space, basis)
        fock = ket_to_vector(joint, basis)
        out[k] = h, fock
    return out, step_grid(math.pi / 2, _transfer_step(1.0, 3))


def test_the_closure_holds_its_rows_not_its_cap(transfer_sector_24):
    sectors, _ = transfer_sector_24
    h, fock = sectors[0.0]
    out = []
    peak = _traced_peak(lambda: out.append(
        propagate._reachable_subspace((h,), fock)))
    basis, _ = out[0]
    # REACHABLE_MAX_DIM = 512 rows of the 2,325 states would take 19 MB
    assert len(basis) == 4
    assert peak <= 8 * len(basis) * h.shape[0] * 16


@pytest.mark.parametrize("k", [0.0, 1.3])
@pytest.mark.parametrize("initial", ["fock", "random"])
def test_krylov_power_matches_the_stage_loop_on_the_24_atom_sector(
        transfer_sector_24, k, initial):
    """The control-free (I + D0)^k RK4 path against the stage loop; the
    name is kept from the Krylov power that path replaced."""
    sectors, (dt, n_steps) = transfer_sector_24
    h, fock = sectors[k]
    assert isinstance(h, SparseOperator) and h.shape == (2325, 2325)
    assert n_steps == 943
    psi0 = fock if initial == "fock" else \
        random_vector(np.random.default_rng(11), h.shape[0])
    assert_allclose(rk4_propagate(h, psi0, dt, n_steps),
                    control_free_oracle(h, psi0, dt, n_steps),
                    rtol=0, atol=1e-12)


def test_control_free_rk4_power_matches_the_stage_loop_on_the_two_boson_model():
    h = _two_boson_hamiltonian(4, 4, 1.3)
    dt, n_steps = step_grid(0.9 / 1.3, _transfer_step(1.3, 4))
    psi0 = random_vector(np.random.default_rng(12), h.shape[0])
    assert_allclose(rk4_propagate(h, psi0, dt, n_steps),
                    control_free_oracle(h, psi0, dt, n_steps),
                    rtol=0, atol=1e-12)


def test_control_free_rk4_power_matches_the_stage_loop_off_hermitian():
    rng = np.random.default_rng(13)
    h = (rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))) / 8.0
    h -= 0.5j * np.eye(60)
    assert not np.allclose(h, h.conj().T)
    psi0 = rng.normal(size=60) + 1j * rng.normal(size=60)
    expected = control_free_oracle(h, psi0, 0.01, 300)
    got = rk4_propagate(h, psi0, 0.01, 300)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_control_free_rk4_matches_the_stage_loop_at_rho_t_79():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    h = a + a.conj().T
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))      # spectral radius 1
    psi0 = random_vector(rng, 200)
    got = rk4_propagate(h, psi0, 0.1, 790)           # rho t = 79
    assert_allclose(got, control_free_oracle(h, psi0, 0.1, 790),
                    rtol=0, atol=1e-12)


@pytest.mark.parametrize("sample_every", [100, 97, 2000])
def test_control_free_rk4_power_keeps_the_sample_schedule(sample_every):
    apply_fn, space, basis = transfer_sector(16, 3)
    h = sector_operator(apply_fn, space, basis)
    psi0 = random_vector(np.random.default_rng(15), len(basis))
    dt, n_steps = step_grid(1.0, _transfer_step(1.0, 3))
    reference = control_free_oracle(h, psi0, dt, n_steps, sample_every)
    seen = []
    psi = rk4_propagate(h, psi0, dt, n_steps, sample_every=sample_every,
                        on_sample=lambda step, t, v: seen.append(
                            (step, t, v.copy())))
    assert [(step, t) for step, t, _v in seen] == \
        [(step, t) for step, t, _v in reference]
    for (_s, _t, v), (_rs, _rt, expected) in zip(seen, reference):
        assert_allclose(v, expected, rtol=0, atol=1e-12)
    assert_allclose(psi, reference[-1][2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_control_free_rk4_returns_psi_exactly_when_nothing_moves(sparse):
    apply_fn, space, basis = transfer_sector(16 if sparse else 8, 3)
    h = (sector_operator if sparse else operator_matrix)(apply_fn, space,
                                                         basis)
    assert isinstance(h, SparseOperator) == sparse
    dim = h.shape[0]
    zero = SparseOperator([], [], [], dim) if sparse else np.zeros((dim, dim))
    psi0 = 3.7 * random_vector(np.random.default_rng(16), dim)
    assert np.array_equal(rk4_propagate(h, psi0, 0.0, 50), psi0)
    assert np.array_equal(rk4_propagate(h, psi0, 0.1, 0), psi0)
    assert np.array_equal(rk4_propagate(zero, psi0, 0.1, 50), psi0)
    assert np.array_equal(rk4_propagate(h, np.zeros(dim), 0.1, 50),
                          np.zeros(dim))


def test_24_atom_transfer_costs_a_few_matvecs(monkeypatch):
    calls = []
    original = SparseOperator.__matmul__

    def counted(self, v):
        calls.append(self.shape)
        return original(self, v)

    monkeypatch.setattr(SparseOperator, "__matmul__", counted)
    dev = exact_vs_analytic_deviation(BosonicState.fock(3, 0),
                                      Geometry.lattice(24, 0.5), rabi=1.0,
                                      t=math.pi / 2)
    assert calls and set(calls) == {(2325, 2325)}
    assert len(calls) <= 16
    assert dev == pytest.approx(0.0689078768544164, rel=0, abs=1e-8)


@pytest.mark.parametrize("rows, cols, amps", [
    ([0, 1], [0], [1.0]), ([0], [0, 1], [1.0]), ([0], [0], [1.0, 2.0]),
    ([-1], [0], [1.0]), ([0], [-1], [1.0]), ([3], [0], [1.0]),
    ([0], [3], [1.0]), ([[0]], [[0]], [[1.0]]),
])
def test_sparse_operator_rejects_malformed_entries(rows, cols, amps):
    with pytest.raises(ValueError):
        SparseOperator(rows, cols, amps, 3)


@pytest.mark.parametrize("n_steps", [0, 3])
def test_rk4_rejects_mismatched_shapes(n_steps):
    sparse = SparseOperator([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], 3)
    for h0 in (np.eye(3), sparse):
        with pytest.raises(ValueError, match="psi0"):
            rk4_propagate(h0, np.ones(2), 0.1, n_steps)
        with pytest.raises(ValueError, match="psi0"):
            rk4_propagate(h0, np.ones((3, 1)), 0.1, n_steps)
        for h1 in (np.eye(2), SparseOperator([], [], [], 4)):
            with pytest.raises(ValueError, match="h1"):
                rk4_propagate(h0, np.ones(3), 0.1, n_steps, h1=h1,
                              control=_constant(1.0))
    with pytest.raises(ValueError, match="square"):
        rk4_propagate(np.ones((3, 2)), np.ones(3), 0.1, n_steps)


@pytest.mark.parametrize("dim", range(1, 9))
def test_control_free_step_term_is_d0_of_the_twelve_bit_for_bit(dim):
    # without h1 only the stages' products with -i h0 are formed; D0 never
    # takes a product with the driven operator, so nothing may move
    rng = np.random.default_rng(100 + dim)
    for dt in (1e-3, 0.05, 0.7):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h0 = a + a.conj().T
        free = propagate._rk4_step_terms(h0, None, dt)
        full = propagate._rk4_step_terms(h0, np.zeros_like(h0), dt)
        assert free.shape == (1, dim, dim)
        assert np.array_equal(free[0].view(float), full[0].view(float))
