"""Progress marks of an untraced pass, and the pass time they give.

A pass of a workload does the same work in the same order every time, so
the i-th stretch of one pass (from one mark to the next) is the same work
as the i-th stretch of every other pass of the run.  ``ProgressClock``
reads the clock at the entry and exit of a few coarse calls and at every
``on_sample(step, t, psi)`` callback of ``propagate.rk4_propagate`` (902
on ``sweep``: every 625 steps of the slow sweep, every step of the fast
one; ``sector`` has none, so its passes are cut only at call boundaries).
A mark is one ``perf_counter_ns`` call and two list appends: no names,
nesting or counts.  On a 2-core Xeon VM (Python 3.11) a mark costs about
0.65 us, under 1 ms over a 6 s ``sweep`` pass.

The host of that VM ran Python at speeds that differed by up to 1.8x from
one 7 s pass to the next, in phases lasting seconds to minutes and shared
by both cores.  The median pass of a 55 s run measured those phases more
than the code: its spread over ten runs (interquartile range over median)
reached 0.29, and that of the fastest whole pass 0.17 to 0.22.
``fastest_pass`` gives instead the pass's wall time at the best speed the
host gave each part of it during the run:

* a stretch counts at the fastest time any pass of the run took for it;
* between two samples of one ``rk4_propagate`` call every RK4 step does
  the same work (the same matrices, and one sample callback per stretch),
  so such a stretch counts at its number of steps times the fastest time
  per step seen in any stretch of that call in any pass.

A change to the code moves every pass's stretches, so it moves this sum; a
slow phase of the host moves it only if it lasts the whole run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import tracer

# (module, attribute): calls whose entry and exit are marked.
TARGETS: tuple[tuple[str, str], ...] = (
    ("harness", "run"),
    ("propagate", "enumerate_sector"),
    ("propagate", "operator_matrix"),
    ("propagate", "rk4_propagate"),
)
# Calls whose keyword ``on_sample`` callback, if given, is marked too.
SAMPLED = {("propagate", "rk4_propagate")}


class ProgressClock:
    """Clock readings taken during one pass, kept in memory.

    ``marks`` holds ``perf_counter_ns`` readings; ``labels`` holds, for
    each, ``(call, step)`` if the mark is a sample of the call-th sampled
    call, at that step, and ``None`` for the entry or exit of a call.
    """

    def __init__(self):
        self.marks: list[int] = []
        self.labels: list[tuple[int, int] | None] = []
        self._calls = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, sampled: bool):
        marks, labels = self.marks, self.labels
        clock = time.perf_counter_ns

        def marked(*args, **kwargs):
            on_sample = kwargs.get("on_sample") if sampled else None
            if on_sample is not None:
                call = self._calls
                self._calls += 1

                def sample(step, *a, **k):
                    marks.append(clock())
                    labels.append((call, step))
                    return on_sample(step, *a, **k)
                kwargs["on_sample"] = sample
            marks.append(clock())
            labels.append(None)
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())
                labels.append(None)

        marked.__name__ = getattr(fn, "__name__", "marked")
        marked.__qualname__ = getattr(fn, "__qualname__", "marked")
        marked.__doc__ = getattr(fn, "__doc__", None)
        marked.__wrapped__ = fn
        setattr(marked, tracer.MARKER, "progress")
        return marked

    def install(self) -> None:
        """Wrap every target and rebind it in every coldstore module."""
        if self._patches:
            raise RuntimeError("progress clock is already installed")
        modules = tracer.package_modules()
        for module_name, attr in TARGETS:
            original = getattr(modules[f"coldstore.{module_name}"], attr)
            wrapper = self.wrap(original, (module_name, attr) in SAMPLED)
            tracer.rebind(modules, original, wrapper, self._patches)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        tracer.restore(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def stretches(self, start_ns: int, end_ns: int) -> list[list]:
        """``[seconds, call, steps]`` from mark to mark, ``start_ns`` to
        ``end_ns``.  ``call`` and ``steps`` say that the stretch ran
        ``steps`` RK4 steps between two samples of that sampled call; they
        are ``None`` for any other stretch.  The seconds add up to the
        pass's wall time."""
        times = [start_ns, *self.marks, end_ns]
        labels = [None, *self.labels, None]
        out = []
        for i in range(len(times) - 1):
            a, b = labels[i], labels[i + 1]
            call = steps = None
            if a is not None and b is not None and a[0] == b[0] \
                    and b[1] > a[1]:
                call, steps = a[0], b[1] - a[1]
            out.append([(times[i + 1] - times[i]) * 1e-9, call, steps])
        return out


def fastest_pass(passes: list[list[list]]) -> float:
    """The pass's wall time at the best speed seen for each of its parts.

    ``passes`` holds each pass's ``ProgressClock.stretches``.  If passes
    were cut differently (the code took another path), their stretches
    cannot be matched and the fastest whole pass is returned.
    """
    if not passes:
        raise ValueError("no passes")
    shapes = {tuple((c, n) for _s, c, n in p) for p in passes}
    if len(shapes) != 1:
        return min(sum(s for s, _c, _n in p) for p in passes)
    total = 0.0
    per_step: dict[int, float] = {}
    steps: defaultdict[int, int] = defaultdict(int)
    for column in zip(*passes):
        fastest = min(s for s, _c, _n in column)
        _s, call, n = column[0]
        if call is None:
            total += fastest
        else:
            per_step[call] = min(per_step.get(call, float("inf")),
                                 fastest / n)
            steps[call] += n
    return total + sum(steps[c] * per_step[c] for c in steps)
