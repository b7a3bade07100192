"""Scenario runner: validated JSON configs in, machine-parseable reports out.

Each scenario yields check units ``(name, size, fn)`` against closed-form
values, brute-force oracles, or convergence expectations.  ``fn()`` returns
the unit's record(s); ``size``, known from the config alone, is the label
count of the largest basis the unit enumerates.  ``run`` and each ``scan``
point run their units in one loop, where a unit that raises becomes one
``error`` record; ``scan`` first refuses any point whose largest unit is over
the budget.  ``Report.canonical_json`` excludes the runtime, so reports of
one (config, seed, artifact version) triple byte-compare equal.

Provenance tags on every check record where its expected value comes from:
``analytic`` (closed-form coefficient or identity), ``oracle`` (independent
brute-force computation), ``trivial`` (definition echo / bookkeeping).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ._version import __version__
from .errors import BudgetExceededError, ConfigError
from .eit import (
    EitParams,
    RampSchedule,
    _sweep_grid,
    adiabatic_sweep,
    dark_state,
    joint_space,
    null_eigenvalue_residual,
)
from .geometry import (
    Geometry,
    ModeSet,
    check_mode_conditions,
    lattice_phase_sum_closed,
    mode_spacing_estimate,
    phase_sum,
)
from .operators import (
    angular_momentum_eigencheck,
    apply_population,
    apply_sigma,
    sigma_commutator_element,
)
from .propagate import estimate_basis_size, estimate_sector_size
from .states import _joint_space, atomic_space, fidelity
from .storage import (
    StorageSpec,
    ladder_prefactor,
    normalization_audit,
    storage_direct,
    storage_ladder,
    vacuum,
    with_field_occupation,
)
from .transfer import (
    BosonicState,
    evolve_analytic,
    evolve_numeric,
    exact_vs_analytic_deviation,
    rotation_grids,
    subsystem_purity,
    swap_check,
    transfer_space,
)

SCHEMA_VERSION = 1

PROVENANCES = ("analytic", "oracle", "trivial")

# comparison semantics: how `actual` is judged against expected/tolerance
#   abs    |actual - expected| <= tolerance
#   le     actual <= tolerance
#   lt     actual <  tolerance
#   ge     actual >= tolerance
#   report informational, always passes
#   error  a check raised; never passes
COMPARISONS = ("abs", "le", "lt", "ge", "report", "error")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    comparison: str
    actual: float
    expected: float
    tolerance: float
    passed: bool
    provenance: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "comparison": self.comparison,
            "actual": _json_float(self.actual),
            "expected": _json_float(self.expected),
            "tolerance": _json_float(self.tolerance),
            "passed": self.passed,
            "provenance": self.provenance,
            "detail": self.detail,
        }


def _write_rows(path, fieldnames: list[str], rows: list[dict]) -> None:
    """A CSV file of one header line and one line per row."""
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)


def _json_float(x: float):
    # strict JSON has no NaN/inf; stringify the rare non-finite diagnostic
    return x if math.isfinite(x) else repr(x)


def _record(name, comparison, actual, expected, tolerance, provenance,
            detail="") -> CheckRecord:
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    if comparison not in COMPARISONS:
        raise ValueError(f"unknown comparison {comparison!r}")
    actual = float(actual)
    if comparison == "abs":
        passed = math.isfinite(actual) and abs(actual - expected) <= tolerance
    elif comparison == "le":
        passed = math.isfinite(actual) and actual <= tolerance
    elif comparison == "lt":
        passed = math.isfinite(actual) and actual < tolerance
    elif comparison == "ge":
        passed = math.isfinite(actual) and actual >= tolerance
    elif comparison == "report":
        passed = True
    else:
        passed = False
    return CheckRecord(name, comparison, actual, float(expected),
                       float(tolerance), passed, provenance, detail)


def check_abs(name, actual, expected, tolerance, provenance, detail=""):
    return _record(name, "abs", actual, expected, tolerance, provenance, detail)


def check_le(name, actual, bound, provenance, detail=""):
    return _record(name, "le", actual, 0.0, bound, provenance, detail)


def check_lt(name, actual, bound, provenance, detail=""):
    return _record(name, "lt", actual, 0.0, bound, provenance, detail)


def check_ge(name, actual, bound, provenance, detail=""):
    return _record(name, "ge", actual, 1.0, bound, provenance, detail)


def check_report(name, actual, provenance="trivial", detail=""):
    return _record(name, "report", actual, 0.0, 0.0, provenance, detail)


Unit = tuple[str, int, Callable[[], CheckRecord | list[CheckRecord]]]


def _run_units(units: Iterable[Unit]) -> list[CheckRecord]:
    """Run check units in order; a unit that raises becomes one error record."""
    checks: list[CheckRecord] = []
    for name, _size, fn in units:
        try:
            out = fn()
        except Exception as exc:  # recorded per unit by design
            out = _record(name, "error", math.nan, 0.0, 0.0, "trivial",
                          detail=f"{type(exc).__name__}: {exc}")
        checks.extend([out] if isinstance(out, CheckRecord) else out)
    return checks


@dataclass
class Report:
    scenario: str
    config: dict
    checks: tuple[CheckRecord, ...]
    runtime_seconds: float

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.checks)

    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "artifact_version": __version__,
            "scenario": self.scenario,
            "config": self.config,
            "aggregate": {
                "n_checks": len(self.checks),
                "n_passed": self.n_passed,
                "all_passed": self.all_passed,
            },
            "checks": [c.to_dict() for c in self.checks],
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out

    def canonical_json(self) -> str:
        """Byte-stable serialization: no runtime, sorted keys, no whitespace."""
        return json.dumps(self.to_dict(include_runtime=False), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def write_csv(self, path) -> None:
        _write_rows(path, ["name", "comparison", "actual", "expected",
                           "tolerance", "passed", "provenance", "detail"],
                    [c.to_dict() for c in self.checks])

    def summary_line(self) -> str:
        status = "PASS" if self.all_passed else "FAIL"
        return (f"{self.scenario}: {status} "
                f"({self.n_passed}/{len(self.checks)} checks, "
                f"{self.runtime_seconds:.2f} s)")


# -- config schema ----------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """One config key; its default sets the type the key takes.

    An int default takes integers, a float default finite numbers and a str
    default a string.  A list default takes a list of at least ``min_len``
    entries, each typed like its first entry, so ``[[1, 1], [2, 1]]`` takes
    pairs of integers.  A ``None`` default takes null or an integer.
    ``options``, if given, lists the values allowed; ``lo``, ``hi`` and
    ``positive`` bound a number.  Both apply to every entry of a list.
    """
    default: object
    lo: float | None = None
    hi: float | None = None
    positive: bool = False
    options: tuple = ()
    min_len: int = 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _broken_rule(fld: Field, v) -> str | None:
    """The first rule of ``fld`` that ``v`` breaks, or None."""
    like = fld.default
    if not isinstance(like, list):
        return _broken_entry_rule(fld, like, v)
    if not isinstance(v, (list, tuple)) or len(v) < fld.min_len:
        return f"must be a list with at least {fld.min_len} element(s)"
    like = like[0]
    if isinstance(like, list):  # entries of a fixed length, such as pairs
        if any(not isinstance(x, (list, tuple)) or len(x) != len(like)
               for x in v):
            return f"each element must be a list of {len(like)}"
        like, v = like[0], [y for x in v for y in x]
    errs = (_broken_entry_rule(fld, like, x) for x in v)
    return next(("each element " + err for err in errs if err), None)


def _broken_entry_rule(fld: Field, like, v) -> str | None:
    if like is None and v is None:
        return None
    if isinstance(like, str):
        if not isinstance(v, str):
            return "must be a string"
    elif isinstance(like, float):
        if not (_is_int(v) or isinstance(v, float) and math.isfinite(v)):
            return "must be a finite number"
    elif not _is_int(v):
        return "must be an integer" + (" or null" if like is None else "")
    if fld.options and v not in fld.options:
        return f"must be one of {fld.options}"
    if fld.positive and v <= 0:
        return "must be positive"
    if fld.lo is not None and v < fld.lo:
        return f"must be >= {fld.lo}"
    if fld.hi is not None and v > fld.hi:
        return f"must be <= {fld.hi}"
    return None


def _validate(schema: Mapping[str, Field], given: Mapping, what: str,
              violations: list) -> dict:
    """Fill in defaults; append every unknown key and broken rule."""
    violations.extend(f"{key}: unknown key for {what}"
                      for key in sorted(given) if key not in schema)
    out = {}
    for key, fld in schema.items():
        v = given.get(key, fld.default)
        err = key in given and _broken_rule(fld, v)
        if err:
            violations.append(f"{key}: {err} (got {v!r})")
        out[key] = _copied(v) if isinstance(v, (list, tuple)) else v
    return out


def _copied(values) -> list:
    """A new list of ``values``, with every list inside it copied too, so a
    config shares no list with the schema's defaults or the caller."""
    return [_copied(x) if isinstance(x, list) else x for x in values]


# (quanta key, atoms key) pairs checked by validate_config; a list of atom
# counts binds at its smallest, a list of occupancy patterns at its largest
# total
_QUANTA_ON_ATOMS = (("n_quanta", "n_atoms"), ("deviation_m", "n_atoms_list"),
                    ("approx_n", "approx_n_atoms"),
                    ("audit_occupancies", "audit_n_atoms"))

_COMMON_FIELDS = {
    "schema_version": Field(SCHEMA_VERSION, options=(SCHEMA_VERSION,)),
    "seed": Field(None, lo=0),
}


def validate_config(scenario: str, config: Mapping | None) -> dict:
    """Fill defaults and collect *all* violations before raising."""
    if scenario not in SCENARIOS:
        raise ConfigError([f"unknown scenario {scenario!r}; available: "
                           + ", ".join(sorted(SCENARIOS))])
    violations: list[str] = []
    out = _validate({**_COMMON_FIELDS, **SCENARIOS[scenario].schema},
                    dict(config or {}), f"scenario {scenario!r}", violations)
    lo, hi = out.get("n_atoms_min"), out.get("n_atoms_max")
    if _is_int(lo) and _is_int(hi) and lo > hi:
        violations.append(
            f"n_atoms_min: must be <= n_atoms_max (got {lo!r} > {hi!r})")
    def valid(*keys):
        return all(key in out and not any(v.startswith(f"{key}:")
                                          for v in violations) for key in keys)

    # each storage quantum needs its own atom: (S^dag)^n |0> = 0 for n > N
    for q_key, n_key in _QUANTA_ON_ATOMS:
        if valid(q_key, n_key):
            quanta, atoms = out[q_key], out[n_key]
            quanta = max(map(sum, quanta)) if isinstance(quanta, list) \
                else quanta
            atoms = min(atoms) if isinstance(atoms, list) else atoms
            if quanta > atoms:
                violations.append(
                    f"{q_key}: must be <= {n_key}, since each storage quantum "
                    f"needs its own atom (got {quanta!r} > {atoms!r})")
    # an occupancy pattern fills one mode per wavevector, and modes differ
    if valid("audit_occupancies", "audit_wavevectors"):
        width, ks = len(out["audit_occupancies"][0]), out["audit_wavevectors"]
        if len(set(ks[:width])) < width:
            violations.append(
                f"audit_wavevectors: the {width} modes of audit_occupancies "
                f"need distinct wavevectors (got {ks!r})")
    # a mode set tracks each detuning once
    ds = out.get("detunings", [])
    if valid("detunings") and len(set(ds)) < len(ds):
        violations.append(f"detunings: must be distinct (got {ds!r})")
    # a lattice of N atoms at spacing d is N d long, and that must be finite
    counts = [n for key, v in out.items() if "n_atoms" in key
              for n in (v if isinstance(v, list) else [v]) if _is_int(n)]
    if counts and valid("spacing"):
        spacing = out["spacing"]
        try:
            length = max(counts) * float(spacing)
        except OverflowError:  # an integer beyond the float range
            length = math.inf
        if math.isinf(length):
            violations.append(
                f"spacing: {max(counts)} atoms at this spacing overflow the "
                f"lattice length (got {spacing!r})")
    # a quantity a unit derives must stay in the float range (neither 0 nor
    # inf), or the unit raises; a valid spacing keeps the atom counts finite
    def derived(key, value, what):
        if not 0.0 < value < math.inf:
            violations.append(f"{key}: {what} leaves the float range "
                              f"(got {out[key]!r})")
    if valid("n_atoms", "spacing", "max_kd", "base_kd", "dk_length_grid"):
        n, d = out["n_atoms"], out["spacing"]
        ks = [out["max_kd"] / d] + [out["base_kd"] / d + dkl / (n * d)
                                    for dkl in out["dk_length_grid"]]
        derived("spacing", max(map(abs, ks)) * (n * d), "a lattice phase k L")
    if valid("length", "n_atoms", "wavelength"):
        try:
            spacing = out["length"] / out["n_atoms"]
        except OverflowError:  # an integer beyond the float range
            spacing = 0.0
        derived("length", spacing, "the spacing length / n_atoms")
        lam = out["wavelength"]
        derived("wavelength", lam * lam / (2 * math.pi * out["length"]),
                "the mode spacing wavelength^2 / (2 pi length)")
    for key, n_key in (("thetas", "n_atoms_list"),
                       ("approx_theta", "approx_n_atoms")):
        if valid("g", "spacing", key, n_key):
            derived(key, out["g"] * math.sqrt(max(out[n_key])) / math.tan(
                np.min(out[key])), "the control g sqrt(N) / tan(theta)")
    # a sweep's step count grows with rabi_cap_factor (dt ~ 1 / Omega_max)
    durations = ("duration_coupling", "fast_duration_coupling")
    if valid("n_atoms", "spacing", "g", "rabi_cap_factor", *durations):
        for key in durations:
            derived(key, out[key] / (out["g"] * math.sqrt(out["n_atoms"])),
                    f"the sweep duration {key} / (g sqrt(n_atoms))")
            steps = _sweep_steps(out, out[key])
            if steps > SWEEP_MAX_STEPS:
                violations.append(
                    f"rabi_cap_factor: with {key} {out[key]!r} a sweep takes "
                    f"{steps:,} RK4 steps, more than SWEEP_MAX_STEPS = "
                    f"{SWEEP_MAX_STEPS:,} (got {out['rabi_cap_factor']!r})")
    if violations:
        raise ConfigError(violations)
    return out


def _rng(cfg: Mapping) -> random.Random:
    """``random.Random(seed)``, seed 0 if none.  Every draw reads it through
    ``.random()`` alone, the one stream Python keeps for a seed across
    versions, so seeded reports depend on neither the Python nor the numpy
    version (whose other streams promise no such thing)."""
    seed = cfg.get("seed")
    return random.Random(0 if seed is None else seed)


def _uniforms(rng, lo: float, hi: float, n: int) -> list:
    """``n`` uniform deviates on [lo, hi) (hi only by rounding)."""
    return [lo + (hi - lo) * rng.random() for _ in range(n)]


def _integer(rng, lo: int, hi: int) -> int:
    """A uniform integer in [lo, hi)."""
    return lo + int((hi - lo) * rng.random())


def _normals(rng, n: int) -> np.ndarray:
    """``n`` standard normal deviates: Box-Muller on pairs of uniforms, with
    ``1 - u`` in (0, 1] inside the log; an odd ``n`` drops the last sine."""
    out = []
    while len(out) < n:
        r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        phi = 2.0 * math.pi * rng.random()
        out += (r * math.cos(phi), r * math.sin(phi))
    return np.array(out[:n])


# -- scenario: verify-ladder -------------------------------------------------

_LADDER_SCHEMA = {
    "n_atoms_min": Field(3, lo=2),
    "n_atoms_max": Field(12, lo=2),
    "n_max": Field(3, lo=1),
    "spacing": Field(0.5, positive=True),
    "wavevectors": Field([0.0, 1.7]),
    "tolerance": Field(1e-12, positive=True),
}


def _ladder_unit(cfg, n_atoms) -> list[CheckRecord]:
    tol = cfg["tolerance"]
    geom = Geometry.lattice(n_atoms, cfg["spacing"])
    n_top = min(cfg["n_max"], n_atoms - 1)
    space = atomic_space(n_atoms, n_top + 1)
    worst = {"raising": 0.0, "lowering": 0.0, "vacuum-power": 0.0,
             "population": 0.0}
    for k in cfg["wavevectors"]:
        states = {0: vacuum(space)}
        for n in range(1, n_top + 2):
            states[n] = storage_direct(
                StorageSpec(geom, ((k, n),)), space=space)
        for n in range(n_top + 1):
            coeff = math.sqrt(1.0 - n / n_atoms) * math.sqrt(n + 1)
            up = apply_sigma(states[n], geom, k, dagger=True)
            worst["raising"] = max(
                worst["raising"], (up - coeff * states[n + 1]).norm())
            down = apply_sigma(states[n + 1], geom, k)
            worst["lowering"] = max(
                worst["lowering"], (down - coeff * states[n]).norm())
        ket = vacuum(space)
        for n in range(1, n_top + 2):
            ket = apply_sigma(ket, geom, k, dagger=True)
            pref = ladder_prefactor(n_atoms, (n,))
            worst["vacuum-power"] = max(
                worst["vacuum-power"], (ket - pref * states[n]).norm())
        for n in range(n_top + 2):
            st = states[n]
            dev_b = (apply_population(st, "b") - (n_atoms - n) * st).norm()
            dev_c = (apply_population(st, "c") - n * st).norm()
            worst["population"] = max(worst["population"], dev_b, dev_c)
    return [
        check_le(f"single-step raising coefficient, N={n_atoms}",
                 worst["raising"], tol, "analytic"),
        check_le(f"single-step lowering coefficient, N={n_atoms}",
                 worst["lowering"], tol, "analytic"),
        check_le(f"repeated raising from vacuum prefactor, N={n_atoms}",
                 worst["vacuum-power"], tol, "analytic"),
        check_le(f"level-population eigenvalues (N-n, n), N={n_atoms}",
                 worst["population"], tol, "analytic"),
    ]


def _atom_range_units(cfg, name, unit) -> Iterator[Unit]:
    """One unit ``unit(cfg, N)`` per N in the config's range, sized as the
    storage states up to n_max quanta and one raising step above them."""
    for n_atoms in range(cfg["n_atoms_min"], cfg["n_atoms_max"] + 1):
        top = min(cfg["n_max"] + 1, n_atoms)
        yield (f"{name} N={n_atoms}",
               estimate_basis_size(atomic_space(n_atoms, top)),
               lambda n_atoms=n_atoms: unit(cfg, n_atoms))


def _run_verify_ladder(cfg) -> Iterator[Unit]:
    return _atom_range_units(cfg, "ladder identities", _ladder_unit)


# -- scenario: verify-dicke --------------------------------------------------

_DICKE_SCHEMA = {
    "n_atoms_min": Field(2, lo=2),
    "n_atoms_max": Field(10, lo=2),
    "n_max": Field(3, lo=1),
    "spacing": Field(0.5, positive=True),
    "wavevector": Field(1.3),
    "tolerance": Field(1e-10, positive=True),
}


def _dicke_unit(cfg, n_atoms) -> list[CheckRecord]:
    tol = cfg["tolerance"]
    k = cfg["wavevector"]
    geom = Geometry.lattice(n_atoms, cfg["spacing"])
    n_top = min(cfg["n_max"], n_atoms - 1)
    space = atomic_space(n_atoms, n_top + 1)
    worst_res3 = worst_eig3 = worst_res2 = worst_eig2 = 0.0
    casimir = (n_atoms / 2.0) * (n_atoms / 2.0 + 1.0)
    for n in range(n_top + 1):
        st = storage_direct(StorageSpec(geom, ((k, n),)), space=space) \
            if n else vacuum(space)
        chk = angular_momentum_eigencheck(st, geom, k)
        worst_res3 = max(worst_res3, chk.r3_residual)
        worst_eig3 = max(worst_eig3,
                         abs(chk.r3_eigenvalue - (2 * n - n_atoms) / 2.0))
        worst_res2 = max(worst_res2, chk.r_squared_residual)
        worst_eig2 = max(worst_eig2, abs(chk.r_squared_eigenvalue - casimir))
    return [
        check_le(f"inversion eigen-residual, N={n_atoms}",
                 worst_res3, tol, "analytic"),
        check_le(f"inversion eigenvalue vs (2n-N)/2, N={n_atoms}",
                 worst_eig3, tol, "analytic"),
        check_le(f"total-spin eigen-residual, N={n_atoms}",
                 worst_res2, tol, "analytic"),
        check_le(f"total-spin eigenvalue vs (N/2)(N/2+1), N={n_atoms}",
                 worst_eig2, tol, "analytic"),
    ]


def _run_verify_dicke(cfg) -> Iterator[Unit]:
    return _atom_range_units(cfg, "collective-spin eigenpairs", _dicke_unit)


# -- scenario: commutator-scan ----------------------------------------------

_COMMUTATOR_SCHEMA = {
    "n_atoms": Field(64, lo=2),
    "spacing": Field(0.5, positive=True),
    "n_pairs": Field(10, lo=1),
    "max_kd": Field(0.2, positive=True),
    "base_kd": Field(0.1, lo=0.0),
    "identity_tolerance": Field(1e-12, positive=True),
    "distant_bound": Field(0.05, positive=True),
    "min_dk_length": Field(40.0, positive=True),
    "dk_length_grid": Field([40.0, 41.0, 44.0, 50.0, 60.0, 80.0, 120.0,
                            200.0, 300.0]),
}


def _run_commutator_scan(cfg) -> Iterator[Unit]:
    n = cfg["n_atoms"]
    d = cfg["spacing"]
    size = n + 1  # atomic_space(n, 1): the vacuum and n single excitations
    rng = _rng(cfg)
    k_max = cfg["max_kd"] / d

    @functools.cache  # by the first unit: a scan sizes all units first
    def lattice():
        return Geometry.lattice(n, d), vacuum(atomic_space(n, 1))

    def identity_pair(i, k, kp):
        geom, vac = lattice()
        elem = sigma_commutator_element(geom, k, kp, vac, vac)
        expected = phase_sum(geom, kp - k) / n
        closed = lattice_phase_sum_closed(n, kp - k, d) / n
        recs = [check_le(
            f"vacuum commutator equals phase sum / N, pair {i}",
            abs(elem - expected), cfg["identity_tolerance"], "oracle",
            detail=f"kd={k * d:.4f}, k'd={kp * d:.4f}")]
        recs.append(check_le(
            f"direct phase sum matches lattice closed form, pair {i}",
            abs(expected - closed), cfg["identity_tolerance"], "analytic"))
        return recs

    for i in range(cfg["n_pairs"]):
        k, kp = _uniforms(rng, 0.0, k_max, 2)
        yield (f"commutator identity pair {i}", size,
               lambda i=i, k=k, kp=kp: identity_pair(i, k, kp))

    base_k = cfg["base_kd"] / d

    # On a lattice the suppression claim only holds away from the aliasing
    # resonances dk*d = 2 pi m, where the phase sum re-coheres to N.  The
    # envelope 1/(N |sin(dk d / 2)|) stays under the bound on a finite
    # |dk|L window; report it so out-of-window grid choices are explicable.
    def window():
        s = 1.0 / (n * cfg["distant_bound"])
        if s >= 1.0:
            return check_report("aliasing-free window", 0.0, "analytic",
                                detail="bound never reached for this N")
        lo = 2.0 * math.asin(s) * n
        hi = 2.0 * (math.pi - math.asin(s)) * n
        return check_report(
            "aliasing-free |dk|L window for the suppression bound",
            lo, "analytic",
            detail=f"envelope below {cfg['distant_bound']:g} for |dk|L in "
                   f"[{lo:.1f}, {hi:.1f}] (mod {2 * math.pi * n:.1f})")

    yield "aliasing-free window", 0, window

    def distant_point(dkl):
        geom, vac = lattice()
        kp = base_k + dkl / geom.length
        elem = sigma_commutator_element(geom, base_k, kp, vac, vac)
        sin = abs(math.sin((kp - base_k) * d / 2.0))  # 0 once k' rounds to k
        return check_le(
            f"distant-mode commutator magnitude at |dk|L={dkl:g}",
            abs(elem), cfg["distant_bound"], "analytic",
            detail=f"bound 2/(N|sin(dk d/2)|)="
                   f"{2.0 / (n * sin) if sin else math.inf:.4f}")

    for dkl in cfg["dk_length_grid"]:
        if dkl < cfg["min_dk_length"]:
            continue
        yield (f"distant-mode commutator at |dk|L={dkl:g}", size,
               lambda dkl=dkl: distant_point(dkl))


# -- scenario: mode-conditions -----------------------------------------------

_MODE_SCHEMA = {
    "wavelength": Field(589.6e-9, positive=True),
    "length": Field(339e-6, positive=True),
    "expected_spacing": Field(0.163e-9, positive=True),
    "spacing_tolerance": Field(0.001e-9, positive=True),
    "n_atoms": Field(100_000, lo=2),
    "n_max": Field(2, lo=1),
    "transition": Field("raman", options=("raman", "cascade")),
    "detunings": Field([0.0, 1.0e5]),
    "min_ratio": Field(10.0, positive=True),
}


def _run_mode_conditions(cfg) -> Iterator[Unit]:
    yield "resolvable mode spacing", 0, lambda: check_abs(
        "resolvable mode spacing lambda^2/(2 pi L)",
        mode_spacing_estimate(cfg["wavelength"], cfg["length"]),
        cfg["expected_spacing"], cfg["spacing_tolerance"], "oracle",
        detail=f"wavelength={cfg['wavelength']:g}, length={cfg['length']:g}")

    def condition_records():
        n = cfg["n_atoms"]
        geom = Geometry.lattice(n, cfg["length"] / n)
        k_s = 2.0 * math.pi / cfg["wavelength"]
        k_c = k_s if cfg["transition"] == "raman" else k_s * 0.5
        modes = ModeSet(k_s, k_c, tuple(cfg["detunings"]), cfg["transition"])
        report = check_mode_conditions(geom, modes, cfg["n_max"],
                                       cfg["min_ratio"])
        recs = [
            check_ge("excitation dilution N / n_max",
                     report.excitation_ratio, cfg["min_ratio"], "trivial"),
            check_ge("sample length over spacing L / d",
                     report.length_over_spacing, cfg["min_ratio"], "trivial"),
        ]
        for m in report.mode_records:
            recs.append(check_ge(
                f"wavelength over spacing at q={m.q:g}",
                m.wavelength_over_spacing, cfg["min_ratio"], "trivial"))
        for p in report.pair_records:
            recs.append(check_ge(
                f"mode distinguishability |dk| L, q={p.q_low:g} vs {p.q_high:g}",
                p.dk_times_length, cfg["min_ratio"], "trivial",
                detail=f"phase-sum residual {p.residual:.3e}"))
            recs.append(check_report(
                f"phase-sum residual, q={p.q_low:g} vs {p.q_high:g}",
                p.residual, "oracle"))
        return recs

    # counts the lattice's N positions; no label basis is built
    yield ("collective-description conditions", cfg["n_atoms"],
           condition_records)


# -- scenario: dark-residual --------------------------------------------------

_DARK_SCHEMA = {
    "n_atoms_list": Field([4, 8], lo=2),
    "n_list": Field([1, 2], lo=1),
    # Omega = g sqrt(N) / tan(theta) is finite and nonnegative on (0, pi/2]
    "thetas": Field([math.pi / 6, math.pi / 4, math.pi / 3], positive=True,
                    hi=math.pi / 2),
    # SparseKet.norm squares amplitudes of order g N: inf once g N > 1e154;
    # kets drop amplitudes <= DROP_TOL = 1e-15, so a tiny g empties H
    "g": Field(1.0, positive=True, lo=1e-10, hi=1e100),
    "spacing": Field(0.5, positive=True),
    "k_signal": Field(1.9),
    "k_control": Field(0.7),
    "transition": Field("raman", options=("raman", "cascade")),
    "q": Field(0.0),
    "exact_tolerance": Field(1e-10, positive=True),
    "approx_n_atoms": Field([8, 16], min_len=2, lo=2),
    "approx_n": Field(2, lo=1),
    "approx_theta": Field(math.pi / 4, positive=True, hi=math.pi / 2),
}


def _dark_params(cfg, n_atoms, theta) -> EitParams:
    geom = Geometry.lattice(n_atoms, cfg["spacing"])
    modes = ModeSet(cfg["k_signal"], cfg["k_control"], (cfg["q"],),
                    cfg["transition"])
    coupling = cfg["g"] * math.sqrt(n_atoms)
    rabi = coupling / math.tan(theta)
    return EitParams(geom, modes, cfg["g"], rabi)


def _run_dark_residual(cfg) -> Iterator[Unit]:
    def size(n_atoms, n):
        # no geometry, no Rabi frequency: theta = 0 must fail in its unit only
        return estimate_basis_size(_joint_space(n_atoms, (cfg["q"],), n))

    for n_atoms in cfg["n_atoms_list"]:
        for n in cfg["n_list"]:
            for theta in cfg["thetas"]:
                name = (f"exact dark-state residual N={n_atoms}, n={n}, "
                        f"theta={theta:.4f}")
                def unit(name=name, n_atoms=n_atoms, n=n, theta=theta):
                    params = _dark_params(cfg, n_atoms, theta)
                    res = null_eigenvalue_residual(params, n, cfg["q"],
                                                   form="exact")
                    return check_le(name, res, cfg["exact_tolerance"],
                                    "analytic")
                yield name, size(n_atoms, n), unit

    def approx_unit():
        n = cfg["approx_n"]
        theta = cfg["approx_theta"]
        residuals = []
        for n_atoms in cfg["approx_n_atoms"]:
            params = _dark_params(cfg, n_atoms, theta)
            residuals.append(null_eigenvalue_residual(params, n, cfg["q"],
                                                      form="approx"))
        recs = [check_report(
            f"approximate-form residual N={n_atoms}", r, "analytic")
            for n_atoms, r in zip(cfg["approx_n_atoms"], residuals)]
        for (na, ra), (nb, rb) in zip(
                zip(cfg["approx_n_atoms"], residuals),
                zip(cfg["approx_n_atoms"][1:], residuals[1:])):
            recs.append(check_lt(
                f"approximate-form residual decreases N={na} -> N={nb}",
                rb - ra, 0.0, "analytic",
                detail=f"{ra:.6e} -> {rb:.6e}"))
        return recs

    yield ("approximate-form residual convergence",
           max(size(n_atoms, cfg["approx_n"])
               for n_atoms in cfg["approx_n_atoms"]), approx_unit)


# -- scenario: adiabatic-sweep -------------------------------------------------

_SWEEP_SCHEMA = {
    "n_atoms": Field(8, lo=2),
    "n_quanta": Field(1, lo=1),
    # an RK4 step multiplies up to four control samples of order 50 g sqrt(N),
    # which overflow past g ~ 1e75; kets drop amplitudes <= DROP_TOL = 1e-15,
    # so a tiny g empties H
    "g": Field(1.0, positive=True, lo=1e-10, hi=1e70),
    "spacing": Field(0.5, positive=True),
    "k_signal": Field(1.9),
    "k_control": Field(0.7),
    "transition": Field("raman", options=("raman", "cascade")),
    "q": Field(0.0),
    "duration_coupling": Field(200.0, positive=True),
    "fast_duration_coupling": Field(0.1, positive=True),
    "rabi_cap_factor": Field(50.0, positive=True),
    "shape": Field("smooth-cosine", options=("smooth-cosine", "linear")),
    "min_fidelity": Field(0.999, lo=0.0, hi=1.0),
    "fast_max_fidelity": Field(0.9, lo=0.0, hi=1.0),
    "norm_drift_tolerance": Field(1e-8, positive=True),
    "record_every": Field(0, lo=0),
    "trajectory_out": Field(""),
}


# RK4 steps one sweep may take: a bound on work, not on memory, which does
# not grow with the step count
SWEEP_MAX_STEPS = 20_000_000


def _sweep_steps(cfg, duration_coupling) -> float:
    """RK4 steps of one sweep by adiabatic_sweep's own step rule, which needs
    only the collective coupling (no geometry); inf without a finite grid."""
    cc = cfg["g"] * math.sqrt(cfg["n_atoms"])
    try:
        return _sweep_grid(cc, duration_coupling / cc, 0.0,
                           cfg["rabi_cap_factor"] * cc)[1]
    except ValueError:      # an infinite span or an unbounded peak control
        return math.inf


def _sweep_setup(cfg):
    n_atoms = cfg["n_atoms"]
    geom = Geometry.lattice(n_atoms, cfg["spacing"])
    modes = ModeSet(cfg["k_signal"], cfg["k_control"], (cfg["q"],),
                    cfg["transition"])
    params = EitParams(geom, modes, cfg["g"], rabi=0.0)
    space = joint_space(params, cfg["n_quanta"])
    initial = with_field_occupation(vacuum(space), (cfg["n_quanta"],))
    return params, space, initial


def _run_adiabatic_sweep(cfg) -> Iterator[Unit]:
    setup = functools.cache(lambda: _sweep_setup(cfg))  # one for both sweeps
    size = estimate_sector_size(
        _joint_space(cfg["n_atoms"], (cfg["q"],), cfg["n_quanta"]),
        [cfg["n_quanta"]])

    def sweep(duration_coupling):
        params, space, initial = setup()
        ramp = RampSchedule(0.0, math.pi / 2.0,
                            duration_coupling / params.collective_coupling,
                            shape=cfg["shape"])
        traj = adiabatic_sweep(
            initial, params, ramp,
            rabi_max=cfg["rabi_cap_factor"] * params.collective_coupling,
            record_every=cfg["record_every"] or None,
            norm_drift_tol=math.inf)    # a drift fails its check, not the run
        target = dark_state(params, cfg["n_quanta"], cfg["q"], form="exact",
                            space=space, theta=math.pi / 2.0)
        return traj, fidelity(traj.final_state, target)

    def slow_unit():
        traj, fid = sweep(cfg["duration_coupling"])
        if cfg["trajectory_out"]:
            traj.to_csv(cfg["trajectory_out"])
        return [
            check_ge(
                f"slow-sweep storage fidelity (T*coupling="
                f"{cfg['duration_coupling']:g})",
                fid, cfg["min_fidelity"], "analytic",
                detail=f"{traj.n_steps} steps, dt={traj.dt:.3e}"),
            check_le("slow-sweep norm drift", traj.norm_drift,
                     cfg["norm_drift_tolerance"], "trivial"),
            check_report("initial dark-manifold weight",
                         float(traj.dark_fidelity[0]), "analytic",
                         detail="control clamped at rabi_cap_factor"),
            check_report("final photon expectation",
                         float(traj.photon_expectation[-1]), "trivial"),
            check_report("final storage-level population",
                         float(traj.c_population[-1]), "trivial"),
        ]

    def fast_unit():
        traj, fid = sweep(cfg["fast_duration_coupling"])
        return check_le(
            f"fast-sweep fidelity stays low (T*coupling="
            f"{cfg['fast_duration_coupling']:g})",
            fid, cfg["fast_max_fidelity"], "analytic",
            detail=f"norm drift {traj.norm_drift:.2e}")

    yield "slow adiabatic sweep", size, slow_unit
    yield "fast sweep contrast", size, fast_unit


# -- scenario: dynamic-transfer ------------------------------------------------

_TRANSFER_SCHEMA = {
    "m_max": Field(3, lo=1),
    "checkpoint_tolerance": Field(1e-10, positive=True),
    "numeric_tolerance": Field(1e-8, positive=True),
    "n_atoms_list": Field([4, 8, 16], min_len=2, lo=2),
    "deviation_m": Field(2, lo=1),
    # only rabi t matters; the closure squares rabi N: inf once rabi N > 1e154;
    # kets drop amplitudes <= DROP_TOL = 1e-15, so a tiny rabi empties H
    "rabi": Field(1.0, positive=True, lo=1e-10, hi=1e100),
    "spacing": Field(0.5, positive=True),
    "wavevector": Field(0.0),
    "purity_grid": Field(64, lo=8),
}


def _run_dynamic_transfer(cfg) -> Iterator[Unit]:
    # only the finite-N deviation enumerates labels; the rest have size 0
    tol = cfg["checkpoint_tolerance"]

    def single_quantum():
        angles = (0.0, 0.3, 0.7, 1.2, math.pi / 2)
        worst = 0.0
        for omega_t, ev in zip(angles, rotation_grids(BosonicState.fock(1, 0),
                                                      angles)):
            expected = np.zeros_like(ev)
            expected[1, 0] = math.cos(omega_t)
            expected[0, 1] = -1j * math.sin(omega_t)
            worst = max(worst, float(np.linalg.norm(ev - expected)))
        return check_le("single-quantum amplitudes (cos, -i sin)",
                        worst, tol, "analytic")

    yield "single-quantum amplitudes", 0, single_quantum

    def checkpoints(m):
        state = BosonicState.fock(m, 0)
        grids = rotation_grids(state, (math.pi / 2, math.pi, 2 * math.pi))
        expected = np.zeros_like(grids)
        expected[0, 0, m], expected[1, m, 0] = (-1j) ** m, (-1.0) ** m
        expected[2] = state.amplitudes
        return [check_le(f"{what}, m={m}", float(np.linalg.norm(g - e)), tol,
                         "analytic") for what, g, e in zip(
            ("full transfer to (-i)^m storage at quarter period",
             "sign flip at half period", "recurrence at full period"),
            grids, expected)]

    for m in range(1, cfg["m_max"] + 1):
        yield f"rotation checkpoints m={m}", 0, lambda m=m: checkpoints(m)

    def mixed_sign():
        state = BosonicState.fock(1, 2)
        half = evolve_analytic(state, math.pi).amplitudes
        expected = np.zeros_like(half)
        expected[1, 2] = (-1.0) ** 3
        return check_le(
            "sign flip at half period for mixed occupation (m=1, n=2)",
            float(np.linalg.norm(half - expected)), tol, "analytic")

    yield "mixed-occupation sign flip", 0, mixed_sign

    def numeric_crosscheck():
        rng = _rng(cfg)
        arr = np.zeros((5, 5), dtype=complex)
        arr[:3, :3] = (_normals(rng, 9) + 1j * _normals(rng, 9)).reshape(3, 3)
        arr /= np.linalg.norm(arr)
        state = BosonicState(arr)
        omega_t = 0.9
        a = evolve_analytic(state, omega_t)
        b = evolve_numeric(state, cfg["rabi"], omega_t / cfg["rabi"])
        return check_le(
            "closed form vs numeric integration of the two-boson model",
            float(np.linalg.norm(a.amplitudes - b.amplitudes)),
            cfg["numeric_tolerance"], "oracle")

    yield "numeric cross-check", 0, numeric_crosscheck

    def finite_n_deviation():
        m = cfg["deviation_m"]
        t = (math.pi / 2.0) / cfg["rabi"]
        state = BosonicState.fock(m, 0)
        devs = []
        for n_atoms in cfg["n_atoms_list"]:
            geom = Geometry.lattice(n_atoms, cfg["spacing"])
            devs.append(exact_vs_analytic_deviation(
                state, geom, cfg["rabi"], t, cfg["wavevector"]))
        recs = [check_report(
            f"finite-N transfer deviation N={n_atoms}", dev, "oracle")
            for n_atoms, dev in zip(cfg["n_atoms_list"], devs)]
        # m = 1 transfer is exact at any N, so consecutive deviations are
        # both rounding noise and their difference has arbitrary sign.
        slack = 1e-9
        for i in range(1, len(devs)):
            na, nb = cfg["n_atoms_list"][i - 1], cfg["n_atoms_list"][i]
            recs.append(check_le(
                f"deviation non-increasing N={na} -> N={nb} (m={m})",
                devs[i] - devs[i - 1], slack, "oracle",
                detail=f"{devs[i - 1]:.6e} -> {devs[i]:.6e}"))
        return recs

    m = cfg["deviation_m"]
    yield ("finite-N deviation trend", estimate_sector_size(
        transfer_space(max(cfg["n_atoms_list"]), m, cfg["wavevector"]), [m]),
        finite_n_deviation)

    def purity_extrema():
        grid = np.linspace(0.0, math.pi / 2.0, cfg["purity_grid"] + 1)
        recs = []
        for m in (1, 2):
            state = BosonicState.fock(m, 0)
            purities = subsystem_purity(rotation_grids(state, grid))
            i_min = int(np.argmin(purities))
            loc = float(grid[i_min])
            if m == 1:
                recs.append(check_abs(
                    "field-purity minimum location, single quantum",
                    loc, math.pi / 4.0, float(grid[1] - grid[0]) + 1e-12,
                    "analytic", detail=f"purity {purities[i_min]:.6f}"))
            else:
                recs.append(check_report(
                    f"field-purity minimum location, m={m} (measured)",
                    loc, "trivial",
                    detail=f"purity {purities[i_min]:.6f}; no closed-form "
                           f"location is asserted for m >= 2"))
        return recs

    yield "entanglement extremum", 0, purity_extrema


# -- scenario: swap ------------------------------------------------------------

_SWAP_SCHEMA = {
    "max_quanta": Field(3, lo=1),
    "n_trials": Field(5, lo=1),
    "tolerance": Field(1e-10, positive=True),
}


def _random_side(rng, max_quanta) -> np.ndarray:
    size = _integer(rng, 1, max_quanta + 1) + 1
    amps = _normals(rng, size) + 1j * _normals(rng, size)
    return amps / np.linalg.norm(amps)


def _run_swap(cfg) -> Iterator[Unit]:
    rng = _rng(cfg)
    for trial in range(cfg["n_trials"]):
        f = _random_side(rng, cfg["max_quanta"])
        a = _random_side(rng, cfg["max_quanta"])
        # amplitudes of the (field, atom) grid BosonicState.from_product
        # builds for this product: one row and column per total quantum
        size = (len(f) + len(a) - 1) ** 2

        def unit(trial=trial, f=f, a=a):
            return [check_ge(f"trial {trial}: {cp.description} "
                             f"(omega t = {cp.omega_t / math.pi:.2f} pi)",
                             cp.fidelity, 1.0 - cfg["tolerance"], "analytic",
                             detail=f"field quanta {len(f) - 1}, "
                                    f"atom quanta {len(a) - 1}")
                    for cp in swap_check(f, a).checkpoints]

        yield f"swap checkpoints trial {trial}", size, unit


# -- scenario: normalization-audit ---------------------------------------------

_AUDIT_SCHEMA = {
    "n_atoms_min": Field(2, lo=2),
    "n_atoms_max": Field(12, lo=2),
    "n_max": Field(3, lo=1),
    "spacing": Field(0.5, positive=True),
    "wavevector": Field(1.7),
    "route_tolerance": Field(1e-12, positive=True),
    "audit_n_atoms": Field(8, lo=2),
    "audit_occupancies": Field([[1, 1], [2, 1]], lo=1),
    "audit_wavevectors": Field([1.3, 2.9], min_len=2),
    "audit_tolerance": Field(1e-12, positive=True),
}


def _route_unit(cfg, n_atoms) -> CheckRecord:
    geom = Geometry.lattice(n_atoms, cfg["spacing"])
    worst = 1.0
    for n in range(1, min(cfg["n_max"], n_atoms) + 1):
        spec = StorageSpec(geom, ((cfg["wavevector"], n),))
        direct = storage_direct(spec)
        laddered, _raw = storage_ladder(spec)
        worst = min(worst, fidelity(direct, laddered))
    return check_ge(
        f"construction-route equivalence, N={n_atoms}",
        worst, 1.0 - cfg["route_tolerance"], "oracle")


def _run_normalization_audit(cfg) -> Iterator[Unit]:
    yield from _atom_range_units(cfg, "construction-route equivalence",
                                 _route_unit)

    def audit_unit(occ):
        n_atoms = cfg["audit_n_atoms"]
        geom = Geometry.lattice(n_atoms, cfg["spacing"])
        ks = cfg["audit_wavevectors"]
        spec = StorageSpec(geom, tuple(
            (ks[i], m) for i, m in enumerate(occ)))
        audit = normalization_audit(spec)
        occ_txt = ",".join(str(m) for m in occ)
        return [
            check_le(
                f"raw norm matches brute-force oracle, occupancies ({occ_txt})",
                audit.routes_agree,
                cfg["audit_tolerance"], "oracle"),
            check_le(
                f"leading normalization term is exactly 1, occupancies "
                f"({occ_txt})",
                abs(audit.leading_term - 1.0), cfg["audit_tolerance"],
                "analytic"),
            check_report(
                f"cross-term deviation from unit norm, occupancies "
                f"({occ_txt})",
                audit.deviation_from_unity, "oracle",
                detail=f"coefficient {audit.coefficient:.6e}"),
        ]

    for occ in cfg["audit_occupancies"]:
        # the brute-force oracle sums over ordered placements twice
        placements = math.perm(cfg["audit_n_atoms"], sum(occ))
        yield (f"normalization audit occupancies {tuple(occ)}",
               placements * placements, lambda occ=occ: audit_unit(occ))


# -- registry ------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    runner: Callable[[dict], Iterable[Unit]]
    schema: Mapping[str, Field]
    description: str


SCENARIOS: dict[str, Scenario] = {
    "verify-ladder": Scenario(
        _run_verify_ladder, _LADDER_SCHEMA,
        "Exact collective raising/lowering coefficients and level populations"),
    "verify-dicke": Scenario(
        _run_verify_dicke, _DICKE_SCHEMA,
        "Collective-spin eigenvalues of symmetric storage states"),
    "commutator-scan": Scenario(
        _run_commutator_scan, _COMMUTATOR_SCHEMA,
        "Vacuum commutator of collective operators vs the geometric phase sum"),
    "mode-conditions": Scenario(
        _run_mode_conditions, _MODE_SCHEMA,
        "Mode spacing estimate and collective-description validity ratios"),
    "dark-residual": Scenario(
        _run_dark_residual, _DARK_SCHEMA,
        "Null-eigenvalue residuals of exact and approximate dark states"),
    "adiabatic-sweep": Scenario(
        _run_adiabatic_sweep, _SWEEP_SCHEMA,
        "Integrated storage sweep: slow-ramp fidelity and fast-ramp contrast"),
    "dynamic-transfer": Scenario(
        _run_dynamic_transfer, _TRANSFER_SCHEMA,
        "Closed-form photon/excitation rotation and finite-N deviations"),
    "swap": Scenario(
        _run_swap, _SWAP_SCHEMA,
        "Quarter-period state swapping for random superpositions"),
    "normalization-audit": Scenario(
        _run_normalization_audit, _AUDIT_SCHEMA,
        "Construction-route equivalence and multimode normalization audit"),
}


def run(scenario: str, config: Mapping | None = None,
        out_dir=None, fmt: str = "json") -> Report:
    """Validate, execute, and (optionally) write one scenario report."""
    _check_format(fmt)
    cfg = validate_config(scenario, config)
    start = time.perf_counter()
    checks = _run_units(SCENARIOS[scenario].runner(cfg))
    report = Report(scenario=scenario, config=cfg, checks=tuple(checks),
                    runtime_seconds=time.perf_counter() - start)
    if out_dir is not None:
        _write_report(report, out_dir, fmt, scenario)
    return report


def _check_format(fmt: str) -> None:
    if fmt not in ("json", "csv"):
        raise ConfigError([f"format: must be 'json' or 'csv' (got {fmt!r})"])


def _write_report(report: Report, out_dir, fmt: str, stem: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        report.write_json(out / f"{stem}.json")
    else:
        report.write_csv(out / f"{stem}.csv")


# -- parameter scans -------------------------------------------------------------

# "scenario", "grid" and "base" are checked in validate_scan_config
_SCAN_FIELDS = {**_COMMON_FIELDS, "budget": Field(500_000, lo=1)}


def validate_scan_config(config: Mapping | None) -> dict:
    given = dict(config or {})
    scenario = given.pop("scenario", None)
    grid = given.pop("grid", {})
    base = given.pop("base", {})
    violations: list[str] = []
    own = _validate(_SCAN_FIELDS, given, "scan", violations)
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        violations.append(
            "scenario: must name a known scenario, one of "
            + ", ".join(sorted(SCENARIOS)))
        raise ConfigError(violations)
    if not isinstance(grid, dict) or not grid:
        violations.append("grid: must be a non-empty object of "
                          "parameter -> list of values")
        grid = {}
    schema = SCENARIOS[scenario].schema
    for key, values in sorted(grid.items()):
        if key not in schema:
            violations.append(f"grid.{key}: not a parameter of {scenario!r}")
        elif not isinstance(values, list) or not values:
            violations.append(f"grid.{key}: must be a non-empty list")
    if not isinstance(base, dict):
        violations.append("base: must be an object of parameter overrides")
        base = {}
    if violations:
        raise ConfigError(violations)
    return {
        "schema_version": own["schema_version"],
        "seed": own["seed"],
        "scenario": scenario,
        "grid": {k: _copied(v) for k, v in grid.items()},
        "base": {k: _copied(v) if isinstance(v, (list, tuple)) else v
                 for k, v in base.items()},
        "budget": own["budget"],
    }


def scan_points(cfg: dict) -> list[dict]:
    """Deterministic Cartesian expansion of the grid (sorted key order)."""
    keys = sorted(cfg["grid"])
    points = []
    for combo in itertools.product(*(cfg["grid"][k] for k in keys)):
        overrides = dict(zip(keys, combo))
        point = {**cfg["base"], **overrides}
        if cfg["seed"] is not None:
            point["seed"] = cfg["seed"]
        points.append({"overrides": overrides, "config": point})
    return points


def _scan_worker(scenario: str, point_cfg: dict) -> list[CheckRecord]:
    # units are closures, so only (scenario, config) crosses to a worker
    return _run_units(SCENARIOS[scenario].runner(point_cfg))


def scan(config: Mapping | None, out_dir=None, fmt: str = "json",
         jobs: int = 1) -> Report:
    """Run one scenario over a parameter grid; per-point rows, ordered.

    ``jobs`` worker processes run the points; 1 runs them in this process.
    """
    _check_format(fmt)
    if not (_is_int(jobs) and jobs >= 1):
        raise ConfigError([f"jobs: must be an integer >= 1 (got {jobs!r})"])
    cfg = validate_scan_config(config)
    scenario = cfg["scenario"]
    points = scan_points(cfg)

    validated = []
    violations = []
    for i, point in enumerate(points):
        try:
            validated.append(validate_config(scenario, point["config"]))
        except ConfigError as exc:
            violations.extend(f"point {i} {point['overrides']}: {v}"
                              for v in exc.violations)
    if violations:
        raise ConfigError(violations)

    units = [list(SCENARIOS[scenario].runner(pcfg)) for pcfg in validated]
    for i, (point, point_units) in enumerate(zip(points, units)):
        est = max(size for _name, size, _fn in point_units)
        if est > cfg["budget"]:
            raise BudgetExceededError(
                f"point {i} {point['overrides']} has estimated basis size "
                f"{est}, over the configured budget {cfg['budget']}; raise "
                f"'budget' or shrink the grid")

    start = time.perf_counter()
    if jobs > 1 and len(units) > 1:
        # imported here: it costs ~18 ms of every ``import coldstore``
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_worker,
                                    [scenario] * len(validated), validated))
    else:
        results = [_run_units(point_units) for point_units in units]

    checks: list[CheckRecord] = []
    rows = []
    for point, point_checks in zip(points, results):
        tag = ",".join(f"{k}={v}" for k, v in sorted(point["overrides"].items()))
        checks.extend(replace(c, name=f"[{tag}] {c.name}")
                      for c in point_checks)
        rows.append({**{k: v for k, v in sorted(point["overrides"].items())},
                     "n_checks": len(point_checks),
                     "n_passed": sum(1 for c in point_checks if c.passed),
                     "status": "pass" if all(c.passed for c in point_checks)
                               else "fail"})

    report = Report(scenario=f"scan:{scenario}", config=cfg,
                    checks=tuple(checks),
                    runtime_seconds=time.perf_counter() - start)
    if out_dir is not None:
        _write_report(report, out_dir, fmt, "scan")
        # a validated grid has at least one point, so rows is never empty
        _write_rows(Path(out_dir) / "scan-points.csv", list(rows[0]), rows)
    return report


def load_config(path) -> dict:
    """Read a JSON config file; top level must be an object."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    return data
