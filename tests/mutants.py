"""Mutation gate: every mutant in the catalogue must fail its tests.

Usage, from the repository root::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant replaces one exact snippet of one source file with a deliberate
bug.  The script first runs every selected test on the unchanged tree, in
one pytest process, so that a selection that already fails kills nothing.
Then, for each mutant, it copies ``src``, ``tests`` and ``pyproject.toml``
to a temporary directory, applies the mutant there and runs the mutant's
pytest selection with ``-x``.  A mutant is killed when pytest reports a
failing test (exit status 1).  The script exits 1 if a mutant survives, if
its run ends any other way (no test collected, a collection error, a
timeout), or if a snippet no longer occurs exactly once: code that moves
takes its mutant with it.

A surviving mutant is a finding: add a test that kills it rather than
deleting the mutant.  Property tests draw the ``ci`` profile's
derandomized examples (tests/conftest.py), so a run repeats.

The file name keeps pytest from collecting the script.  It needs only the
standard library, plus pytest and the test dependencies in the interpreter
that runs it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str               # relative to the repository root
    snippet: str            # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids expected to kill it


CATALOGUE = (
    Mutant("purity-without-conj", "src/coldstore/transfer.py",
           "gram = grids @ grids.conj().swapaxes(-1, -2)",
           "gram = grids @ grids.swapaxes(-1, -2)",
           ("tests/test_transfer.py::test_the_purity_is_that_of_the_"
            "eigenvalue_oracle",)),
    Mutant("nonfinite-amplitude-kept", "src/coldstore/states.py",
           "        if len(bad):\n            raise ColdstoreError(",
           "        if False:\n            raise ColdstoreError(",
           ("tests/test_states.py::test_a_nan_or_infinite_amplitude_is_"
            "refused_by_name",)),
    Mutant("schedule-unclamped", "src/coldstore/eit.py",
           "        np.minimum(np.maximum(0.0, f, out=f), 1.0, out=f)\n",
           "",
           ("tests/test_eit.py::test_the_schedule_is_its_former_expressions_"
            "bit_for_bit",)),
    Mutant("nan-angle-unclamped", "src/coldstore/eit.py",
           "clamped = ~(sin > 1e-12)",
           "clamped = sin <= 1e-12",
           ("tests/test_eit.py::test_the_schedule_is_its_former_expressions_"
            "bit_for_bit",)),
    Mutant("adjoint-keeps-negative-zero", "src/coldstore/propagate.py",
           "    adjoint.imag += 0.0     # -0.0 to 0.0, as compiling the term"
           " would\n",
           "",
           ("tests/test_transfer.py::test_the_compiled_transfer_hamiltonian_"
            "is_both_terms_bit_for_bit",)),
    Mutant("norm-summed-pairwise", "src/coldstore/states.py",
           "total = float(np.cumsum(np.float_power(\n"
           "                    moduli, np.full(len(moduli), 2.0)))[-1])",
           "total = float(np.sum(np.float_power(\n"
           "                    moduli, np.full(len(moduli), 2.0))))",
           ("tests/test_states.py::test_norm_is_the_loop_of_squares_bit_for_"
            "bit_on_both_paths",)),
    Mutant("control-callable-unchecked", "src/coldstore/propagate.py",
           "            if not np.isfinite(u).all():\n",
           "            if False:\n",
           ("tests/test_propagate.py::test_a_non_finite_callable_control_"
            "stops_before_the_samples_past_it",)),
    Mutant("fidelity-passes-nan", "src/coldstore/states.py",
           "        if not abs(n - 1.0) <= _NORM_TOL:",
           "        if abs(n - 1.0) > _NORM_TOL:",
           ("tests/test_eit.py::test_non_finite_inputs_are_refused",)),
    Mutant("dark-weight-sum-of-squares", "src/coldstore/eit.py",
           "np.sum(np.abs(along) ** 2 / lam[keep])",
           "np.sum(np.abs(along) ** 2)",
           ("tests/test_eit.py::test_dark_manifold_weight_is_a_projection_"
            "when_patterns_overlap",)),
    Mutant("box-muller-log-of-u", "src/coldstore/harness.py",
           "math.log(1.0 - rng.random())",
           "math.log(rng.random())",
           ("tests/test_harness.py::test_the_seed_zero_stream_is_pinned",)),
    Mutant("quanta-on-atoms-unchecked", "src/coldstore/harness.py",
           "    for q_key, n_key in _QUANTA_ON_ATOMS:\n",
           "    for q_key, n_key in ():\n",
           ("tests/test_harness.py::test_more_storage_quanta_than_atoms_are_"
            "refused",)),
    Mutant("vector-to-ket-any-space", "src/coldstore/propagate.py",
           "    _same_space(space, basis)\n    return SparseKet._of(",
           "    return SparseKet._of(",
           ("tests/test_propagate.py::test_a_space_other_than_the_basis_space_"
            "is_refused",)),
    Mutant("down-moves-unconjugated", "src/coldstore/operators.py",
           "coeffs = coeffs.conjugate()",
           "coeffs = coeffs",
           ("tests/test_operators.py::test_sigma_matches_dense_oracle",)),
    Mutant("lattice-sum-reversed-phase", "src/coldstore/geometry.py",
           "(1.0 - cmath.exp(1j * kd * n_atoms)) / denom",
           "(1.0 - cmath.exp(-1j * kd * n_atoms)) / denom",
           ("tests/test_geometry.py::test_lattice_closed_form_matches_direct_"
            "sum",)),
    Mutant("storage-norm-without-falling-factorial",
           "src/coldstore/storage.py",
           "return math.sqrt(num / falling_factorial(n_atoms, n))",
           "return math.sqrt(num / n_atoms ** n)",
           ("tests/test_storage.py::test_prefactor_and_coefficient_closed_"
            "forms",)),
    Mutant("in-order-repeats-unsummed", "src/coldstore/states.py",
           "(keys[0][1:] > keys[0][:-1])",
           "(keys[0][1:] >= keys[0][:-1])",
           ("tests/test_states.py::test_an_in_order_merge_is_the_lexsort_"
            "merge_bit_for_bit",)),
    Mutant("in-order-keeps-negative-zero", "src/coldstore/states.py",
           "return SparseKet._of(space, n_cols, cols, field, sites, amps "
           "+ 0.0)",
           "return SparseKet._of(space, n_cols, cols, field, sites, amps)",
           ("tests/test_states.py::test_an_in_order_merge_is_the_lexsort_"
            "merge_bit_for_bit",)),
    Mutant("find-at-a-neighbour", "src/coldstore/states.py",
           "            found[found] = ref[0][at[found]] == own[0][found]\n",
           "",
           ("tests/test_states.py::test_find_is_the_index_of_each_label_or_"
            "minus_one",)),
    Mutant("non-finite-scalar-multiplied", "src/coldstore/states.py",
           "    if not cmath.isfinite(scalar):\n",
           "    if False:\n",
           ("tests/test_states.py::test_a_non_finite_scalar_is_refused_by_"
            "name_before_any_product",)),
    Mutant("product-overflow-warns", "src/coldstore/states.py",
           'with np.errstate(over="ignore", invalid="ignore"):\n'
           "            amps = _times(",
           "with np.errstate():\n            amps = _times(",
           ("tests/test_states.py::test_a_nan_or_infinite_amplitude_is_"
            "refused_by_name",)),
    Mutant("closure-conjugates-not-copied", "src/coldstore/propagate.py",
           "grown[0, :m], grown[1, :m] = basis, conj",
           "grown[0, :m] = basis",
           ("tests/test_propagate.py::test_the_closure_rows_stay_orthonormal_"
            "as_they_double",)),
    Mutant("sector-rows-never-sorted", "src/coldstore/propagate.py",
           "    if not _in_order(keys):\n",
           "    if False:\n",
           ("tests/test_invariants.py::test_the_sector_is_the_brute_force_"
            "label_set_in_order",)),
    Mutant("deviation-against-the-initial-state", "src/coldstore/transfer.py",
           "ket_to_vector(mapped, basis)",
           "ket_to_vector(joint0, basis)",
           ("tests/test_transfer.py::test_the_deviation_runs_on_sector_"
            "vectors_without_a_sort",)),
    Mutant("transfer-adjoint-cap-unchecked", "src/coldstore/transfer.py",
           "    _check_creation(space, basis.field[_level_count(basis, \"c\")"
           " > 0], 0)\n",
           "",
           ("tests/test_transfer.py::test_exact_atoms_keeps_the_errors_of_a_"
            "binding_cap",)),
    Mutant("creation-past-the-mode-cap", "src/coldstore/operators.py",
           "field[:, mode_index] >= space.mode_caps[mode_index]",
           "field[:, mode_index] > space.mode_caps[mode_index]",
           ("tests/test_operators.py::test_creation_past_a_mode_cap_is_"
            "refused_below_the_photon_cap",)),
    Mutant("continuum-without-i", "src/coldstore/geometry.py",
           "(cmath.exp(1j * x) - 1.0) / (1j * x)",
           "(cmath.exp(1j * x) - 1.0) / x",
           ("tests/test_geometry.py::test_continuum_formula",)),
    Mutant("ladder-prefactor-without-n-power", "src/coldstore/storage.py",
           "falling_factorial(n_atoms, n) / n_atoms ** n * num",
           "falling_factorial(n_atoms, n) * num",
           ("tests/test_storage.py::test_single_mode_ladder_norm_is_"
            "analytic",)),
    Mutant("transfer-space-excited-level-open", "src/coldstore/transfer.py",
           "_joint_space(n_atoms, (k,), total_quanta, a_max=0)",
           "_joint_space(n_atoms, (k,), total_quanta)",
           ("tests/test_transfer.py::test_quanta_sized_spaces_have_the_"
            "written_out_fields",)),
    Mutant("repeated-detunings-accepted", "src/coldstore/harness.py",
           '    if valid("detunings") and len(set(ds)) < len(ds):\n',
           "    if False:\n",
           ("tests/test_harness.py::test_repeated_detunings_are_refused_by_"
            "name",)),
    Mutant("distant-bound-divides-by-zero", "src/coldstore/harness.py",
           "2.0 / (n * sin) if sin else math.inf",
           "2.0 / (n * sin)",
           ("tests/test_harness.py::test_a_base_kd_past_the_float_resolution_"
            "fails_without_an_error",)),
    Mutant("commutator-orderings-swapped", "src/coldstore/operators.py",
           "    ab = apply_a(apply_b(y))\n    ba = apply_b(apply_a(y))\n",
           "    ab = apply_b(apply_a(y))\n    ba = apply_a(apply_b(y))\n",
           ("tests/test_operators.py::test_commutator_element_matches_dense_"
            "oracle_on_random_states",)),
    Mutant("h1-without-control-accepted", "src/coldstore/propagate.py",
           "    elif callable(control):\n"
           "        read = _control_reader(control, n_steps, dt)\n",
           "    elif callable(control) or control is None:\n"
           "        read = _control_reader(control or (lambda t: 0 * t), "
           "n_steps, dt)\n",
           ("tests/test_propagate.py::test_rk4_refuses_h1_without_a_callable_"
            "control",)),
    Mutant("wavevector-overflow-accepted", "src/coldstore/harness.py",
           '        derived("spacing", max(map(abs, ks)) * (n * d), '
           '"a lattice phase k L")\n',
           "",
           ("tests/test_harness.py::test_a_derived_quantity_past_the_float_"
            "range_is_refused_by_name",)),
    Mutant("lattice-spacing-underflow-accepted", "src/coldstore/harness.py",
           '        derived("length", spacing, '
           '"the spacing length / n_atoms")\n',
           "",
           ("tests/test_harness.py::test_a_derived_quantity_past_the_float_"
            "range_is_refused_by_name",)),
    Mutant("mode-spacing-overflow-accepted", "src/coldstore/harness.py",
           '        derived("wavelength", lam * lam / (2 * math.pi * '
           'out["length"]),\n'
           '                "the mode spacing wavelength^2 / '
           '(2 pi length)")\n',
           "",
           ("tests/test_harness.py::test_a_derived_quantity_past_the_float_"
            "range_is_refused_by_name",)),
    Mutant("dark-control-overflow-accepted", "src/coldstore/harness.py",
           '            derived(key, out["g"] * math.sqrt(max(out[n_key])) / '
           'math.tan(\n'
           '                np.min(out[key])), '
           '"the control g sqrt(N) / tan(theta)")\n',
           "            pass\n",
           ("tests/test_harness.py::test_a_derived_quantity_past_the_float_"
            "range_is_refused_by_name",)),
    Mutant("sweep-duration-underflow-accepted", "src/coldstore/harness.py",
           '            derived(key, out[key] / (out["g"] * '
           'math.sqrt(out["n_atoms"])),\n'
           '                    f"the sweep duration {key} / '
           '(g sqrt(n_atoms))")\n',
           "",
           ("tests/test_harness.py::test_a_derived_quantity_past_the_float_"
            "range_is_refused_by_name",)),
    Mutant("sweep-aborts-at-the-drift-tolerance", "src/coldstore/harness.py",
           "norm_drift_tol=math.inf)",
           "norm_drift_tol=cfg[\"norm_drift_tolerance\"])",
           ("tests/test_harness.py::test_a_drift_tolerance_below_rounding_"
            "fails_its_check_without_an_error",)),
)


def _pytest(root: str, tests) -> tuple[int | None, str]:
    """Exit status of ``pytest -x`` on ``tests`` in ``root`` (None on a
    timeout) and the last line of its report."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", "--hypothesis-profile=ci", *tests]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def stale(mutants) -> dict[str, str]:
    """Mutant name -> message, for each whose snippet does not occur
    exactly once."""
    out = {}
    for m in mutants:
        with open(os.path.join(ROOT, m.path)) as fh:
            count = fh.read().count(m.snippet)
        if count != 1:
            out[m.name] = f"snippet occurs {count} times in {m.path}"
    return out


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(killed, detail) for one mutant, run on a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        path = os.path.join(tmp, m.path)
        with open(path) as fh:
            source = fh.read()
        with open(path, "w") as fh:
            fh.write(source.replace(m.snippet, m.replacement))
        status, last = _pytest(tmp, m.tests)
    return status == 1, last if status in (0, 1) else f"status {status}: {last}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in CATALOGUE}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    mutants = [known[n] for n in args.names] if args.names else CATALOGUE
    failed = stale(mutants)
    for name, message in failed.items():
        print(f"STALE     {name}: {message}")
    selection = sorted({t for m in mutants for t in m.tests})
    start = time.perf_counter()
    status, last = _pytest(ROOT, selection)
    print(f"baseline  {len(selection)} selections: {last} "
          f"({time.perf_counter() - start:.1f} s)")
    if status != 0:
        print("the unchanged tree fails its selections; no mutant is run")
        return 1
    for m in mutants:
        if m.name in failed:
            continue
        start = time.perf_counter()
        killed, detail = run_mutant(m)
        print(f"{'killed' if killed else 'SURVIVED':9s} {m.name}: {detail} "
              f"({time.perf_counter() - start:.1f} s)")
        if not killed:
            failed[m.name] = detail
    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed")
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
