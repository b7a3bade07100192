"""Span tracing of coldstore's layers from outside the package.

``Tracer.install`` wraps the public functions of each layer (the package
modules ``states``, ``geometry``, ``operators``, ``storage``, ``propagate``,
``eit``, ``transfer`` and ``harness``) and rebinds every name under which a
coldstore module holds them: ``eit``, ``transfer``, ``storage`` and
``harness`` import ``rk4_propagate``, ``operator_matrix``, ``apply_sigma``
and others by name, and a wrapper bound only in the defining module would be
bypassed by those calls.  ``Tracer.uninstall`` puts the originals back.

Each call records a span ``(run_id, span_id, parent_id, name, start_ns,
end_ns)`` in memory, plus counts taken at the same boundary.  A call made
directly inside a span of the same name (``dark_state`` calling
``multimode_dark_state``, ``ket / x`` calling ``ket * y``) is covered by the
outer span and records none of its own, so summed inclusive times never
count the same interval twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Attribute set on every wrapper, so leftovers can be found.
MARKER = "__perfbench_span__"

# (module, attribute, span name).  "Class.method" patches the class itself.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("propagate", "rk4_propagate", "propagate.rk4"),
    ("propagate", "operator_matrix", "propagate.assemble"),
    ("propagate", "enumerate_sector", "propagate.enumerate"),
    ("operators", "apply_sigma", "operators.apply"),
    ("operators", "apply_rho_ab", "operators.apply"),
    ("operators", "apply_rho_ac", "operators.apply"),
    ("operators", "apply_population", "operators.apply"),
    ("operators", "apply_field", "operators.apply"),
    ("operators", "angular_momentum_eigencheck", "operators.eigencheck"),
    ("operators", "commutator_matrix_element", "operators.commutator"),
    ("states", "SparseKet.__add__", "states.ket_arith"),
    ("states", "SparseKet.__sub__", "states.ket_arith"),
    ("states", "SparseKet.__mul__", "states.ket_arith"),
    ("states", "SparseKet.__rmul__", "states.ket_arith"),
    ("states", "SparseKet.__truediv__", "states.ket_arith"),
    ("states", "SparseKet.__neg__", "states.ket_arith"),
    ("states", "inner_product", "states.inner_product"),
    ("states", "fidelity", "states.fidelity"),
    ("storage", "storage_direct", "storage.direct"),
    ("storage", "storage_ladder", "storage.ladder"),
    ("storage", "normalization_audit", "storage.audit"),
    ("geometry", "Geometry.phases", "geometry.phases"),
    ("geometry", "phase_sum", "geometry.phase_sum"),
    ("eit", "adiabatic_sweep", "eit.sweep"),
    ("eit", "dark_manifold_weight", "eit.dark_weight"),
    ("eit", "dark_state", "eit.dark_state"),
    ("eit", "multimode_dark_state", "eit.dark_state"),
    ("eit", "apply_hamiltonian", "eit.hamiltonian"),
    ("eit", "apply_control_coupling", "eit.hamiltonian"),
    ("eit", "null_eigenvalue_residual", "eit.residual"),
    ("transfer", "evolve_exact_atoms", "transfer.exact"),
    ("transfer", "evolve_numeric", "transfer.numeric"),
    ("transfer", "evolve_analytic", "transfer.analytic"),
    ("transfer", "bosonic_to_joint", "transfer.to_joint"),
    ("harness", "validate_config", "harness.validate"),
    ("harness", "run", "harness.run"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rk4(counts, args, kwargs, result):
    h0 = _arg(args, kwargs, 0, "h0")
    n_steps = _arg(args, kwargs, 3, "n_steps")
    h1 = args[4] if len(args) > 4 else kwargs.get("h1")
    matvecs = n_steps * (8 if h1 is not None else 4)
    counts["propagate.rk4_steps"] += n_steps
    counts["propagate.matvecs"] += matvecs
    # computed, not measured: one pass over a dense complex matrix per matvec
    counts["propagate.matvec_bytes"] += h0.shape[0] ** 2 * 16 * matvecs


def _count_assemble(counts, args, kwargs, result):
    dim = len(_arg(args, kwargs, 2, "basis"))
    counts["propagate.assemble_cols"] += dim
    counts["propagate.matrix_bytes_max"] = max(
        counts["propagate.matrix_bytes_max"], dim * dim * 16)


def _count_enumerate(counts, args, kwargs, result):
    counts["propagate.sector_dim_max"] = max(
        counts["propagate.sector_dim_max"], len(result))


def _count_apply(counts, args, kwargs, result):
    counts["operators.labels_in"] += len(_arg(args, kwargs, 0, "ket"))
    counts["operators.labels_out"] += len(result)


def _count_direct(counts, args, kwargs, result):
    counts["storage.direct_labels"] += len(result)


def _count_run(counts, args, kwargs, result):
    counts["harness.checks"] += len(result.checks)


COUNTERS = {
    "propagate.rk4": _count_rk4,
    "propagate.assemble": _count_assemble,
    "propagate.enumerate": _count_enumerate,
    "operators.apply": _count_apply,
    "storage.direct": _count_direct,
    "harness.run": _count_run,
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.run_id, span_id, parent, name, start, end))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        setattr(traced, MARKER, name)
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in every coldstore module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for module_name, attr, name in TARGETS:
            owner = modules[f"coldstore.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            rebind(modules, original, self.wrap(name, original),
                   self._patches)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        restore(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def rebind(modules, original, wrapper, patches) -> None:
    """Point every name bound to ``original`` in ``modules`` at ``wrapper``,
    appending ``(module, name, original)`` to ``patches`` for each."""
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if value is original:
                patches.append((module, key, value))
                setattr(module, key, wrapper)


def restore(patches) -> None:
    """Undo the ``(owner, name, original)`` patches, newest first."""
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


def package_modules() -> dict[str, object]:
    """Every imported ``coldstore`` module, by name."""
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "coldstore" or name.startswith("coldstore."))}


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for _run, _sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for _run, sid, _parent, _name, start, end in spans:
        covered = 0
        reach = start  # children cover [start, reach) so far
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed inclusive and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for _run, sid, _parent, name, start, end in spans:
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += (end - start) * 1e-9
        t["self_s"] += selfs[sid] * 1e-9
    return out


# Per-layer metrics: name -> (unit, how to read it from totals and counts).
def _time(span, key="s"):
    return lambda totals, counts: totals.get(span, {}).get(key, 0.0)


def _calls(span):
    return lambda totals, counts: int(totals.get(span, {}).get("calls", 0))


def _count(key):
    return lambda totals, counts: int(counts.get(key, 0))


def _ratio(num, den, scale=1.0):
    def get(totals, counts):
        d = den(totals, counts)
        return num(totals, counts) / d * scale if d else 0.0
    return get


LAYER_METRICS: dict[str, tuple[str, object]] = {
    "propagate.rk4_s": ("s", _time("propagate.rk4")),
    "propagate.rk4_self_s": ("s", _time("propagate.rk4", "self_s")),
    "propagate.rk4_steps": ("count", _count("propagate.rk4_steps")),
    "propagate.rk4_step_us": ("us", _ratio(
        _time("propagate.rk4", "self_s"), _count("propagate.rk4_steps"), 1e6)),
    "propagate.matvecs": ("count", _count("propagate.matvecs")),
    "propagate.matvec_bytes": ("B", _count("propagate.matvec_bytes")),
    "propagate.rk4_gbps": ("GB/s", _ratio(
        _count("propagate.matvec_bytes"), _time("propagate.rk4", "self_s"),
        1e-9)),
    "propagate.assemble_s": ("s", _time("propagate.assemble")),
    "propagate.assemble_cols": ("count", _count("propagate.assemble_cols")),
    "propagate.matrix_bytes_max": ("B", _count("propagate.matrix_bytes_max")),
    "propagate.enumerate_s": ("s", _time("propagate.enumerate")),
    "propagate.sector_dim_max": ("count", _count("propagate.sector_dim_max")),
    "operators.apply_s": ("s", _time("operators.apply")),
    "operators.apply_self_s": ("s", _time("operators.apply", "self_s")),
    "operators.apply_calls": ("count", _calls("operators.apply")),
    "operators.labels_in": ("count", _count("operators.labels_in")),
    "operators.labels_out": ("count", _count("operators.labels_out")),
    "operators.labels_per_s": ("1/s", _ratio(
        _count("operators.labels_in"), _time("operators.apply", "self_s"))),
    "operators.eigencheck_s": ("s", _time("operators.eigencheck")),
    "operators.commutator_s": ("s", _time("operators.commutator")),
    "states.ket_arith_s": ("s", _time("states.ket_arith")),
    "states.ket_arith_calls": ("count", _calls("states.ket_arith")),
    "states.inner_product_s": ("s", _time("states.inner_product")),
    "states.fidelity_s": ("s", _time("states.fidelity")),
    "storage.direct_s": ("s", _time("storage.direct")),
    "storage.direct_labels": ("count", _count("storage.direct_labels")),
    "storage.ladder_s": ("s", _time("storage.ladder")),
    "storage.audit_s": ("s", _time("storage.audit")),
    "geometry.phases_s": ("s", _time("geometry.phases")),
    "geometry.phases_calls": ("count", _calls("geometry.phases")),
    "geometry.phase_sum_s": ("s", _time("geometry.phase_sum")),
    "eit.sweep_s": ("s", _time("eit.sweep")),
    "eit.sweep_self_s": ("s", _time("eit.sweep", "self_s")),
    "eit.samples": ("count", _calls("eit.dark_weight")),
    "eit.dark_weight_s": ("s", _time("eit.dark_weight")),
    "eit.dark_state_s": ("s", _time("eit.dark_state")),
    "eit.hamiltonian_s": ("s", _time("eit.hamiltonian")),
    "eit.residual_s": ("s", _time("eit.residual")),
    "transfer.exact_s": ("s", _time("transfer.exact")),
    "transfer.exact_self_s": ("s", _time("transfer.exact", "self_s")),
    "transfer.numeric_s": ("s", _time("transfer.numeric")),
    "transfer.analytic_s": ("s", _time("transfer.analytic")),
    "transfer.to_joint_s": ("s", _time("transfer.to_joint")),
    "harness.validate_s": ("s", _time("harness.validate")),
    "harness.run_self_s": ("s", _time("harness.run", "self_s")),
    "harness.checks": ("count", _count("harness.checks")),
}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    totals = span_totals(spans)
    return {name: get(totals, counts)
            for name, (_unit, get) in LAYER_METRICS.items()}
