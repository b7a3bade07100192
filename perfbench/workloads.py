"""The benchmark's workloads: which scenario runs each one makes, and why.

A workload is a list of ``(scenario, config)`` runs, each executed through
the public ``coldstore.harness.run`` entry point.  The seed goes into every
config's ``seed`` field.  It changes only the random (k, k') pairs of
``commutator-scan``, the random product states of ``swap`` and the random
two-boson state of the numeric cross-check in ``dynamic-transfer``.  Sector
sizes, label counts and step counts do not depend on it, so the exact counts
of a traced run repeat across seeds.

Each workload puts the bulk of its time in a different module, or uses a
shared module differently, so that a change to one layer shows a gain on one
workload and "no change" (or a loss) on another:

``sweep``
    ``adiabatic-sweep`` at one quarter of the default sweep length
    (``duration_coupling`` 50): N=8, one quantum, a 17-state sector,
    250,000 slow plus 500 fast RK4 steps and 902 samples of the dark
    manifold.  RK4 on a tiny matrix costs Python per-step overhead, about
    99 % of the wall time inside ``propagate.rk4_propagate``.  An
    exponential or Magnus propagator shows its gain here.  The slow sweep
    still passes at this length (fidelity 0.99969 against the 0.999 bound).

``sector``
    ``dynamic-transfer`` with N in (4, 8, 16, 24) and three quanta: sector
    dimensions 15 / 93 / 697 / 2,325 and 4,492 RK4 steps, most of them dense
    matvecs on a 2,325 x 2,325 complex matrix (86.5 MB, computed).  The same
    ``propagate`` layer as ``sweep``, but bound by memory bandwidth: about
    93 % dense matvec and 4 % ``operator_matrix`` assembly.  Sparse or
    compiled operators win here and do almost nothing for ``sweep``; a
    per-step ``eigh`` at dimension 2,325 would lose badly, and this is the
    workload where that loss must show.

``algebra``
    The exact-identity scenarios at larger N, plus the remaining small
    scenarios at their defaults.  No propagation at all: about 80 % of the
    time is sparse-ket operator application (``operators``, ``states``,
    ``storage``) on kets of thousands of labels, including the nested
    ``r_squared`` images of ``verify-dicke``.  A label-encoding or
    compiled-transition core shows its gain here, and a propagator change
    must show none.

``BENCHMARK.json`` registers only ``sweep`` and ``sector``.  On a 2-core
Xeon VM (Python 3.11, numpy 2.4, OpenBLAS with 2 threads) host load came in
phases lasting minutes that slowed pure-Python passes by up to 1.5x, and
``algebra`` felt them most: over ten 30-40 s runs its median pass time
had an interquartile spread of 0.30 of the median in two sets out of three,
against at most 0.20 for ``sweep`` and 0.12 for ``sector``.  That is beyond
the largest regression bound a registered metric may have, and
``progress.fastest_pass`` would not help much: an ``algebra`` pass is cut
only at its seven scenario calls, so it would be little steadier than the
fastest whole pass.  ``algebra``
stays runnable (``--workload algebra`` or ``all``) for comparisons made by
hand with ``compare.py``, and its exact counts stay under test.

The Tier-1 test suite is deliberately not a workload: most of its time is
the same RK4 loop that ``sweep`` already measures.
"""

from __future__ import annotations

import copy

WORKLOADS: dict[str, dict] = {
    "sweep": {
        "why": "RK4 per-step Python overhead on a 17-state sector; "
               "stresses propagate.rk4_propagate, bypasses operator assembly",
        "runs": [
            ("adiabatic-sweep", {"duration_coupling": 50.0}),
        ],
    },
    "sector": {
        "why": "dense matvecs on sectors up to dim 2,325; stresses memory "
               "bandwidth in propagate and operator_matrix assembly",
        "runs": [
            ("dynamic-transfer", {"n_atoms_list": [4, 8, 16, 24],
                                  "deviation_m": 3}),
        ],
    },
    "algebra": {
        "why": "sparse-ket operator algebra on thousands of labels; "
               "stresses operators/states/storage, bypasses propagate",
        "runs": [
            ("verify-ladder", {"n_atoms_min": 12, "n_atoms_max": 18,
                               "n_max": 3}),
            ("verify-dicke", {"n_atoms_min": 12, "n_atoms_max": 17,
                              "n_max": 4}),
            ("normalization-audit", {"n_atoms_min": 12, "n_atoms_max": 18,
                                     "n_max": 4, "audit_n_atoms": 10,
                                     "audit_occupancies": [[1, 1], [2, 1],
                                                           [2, 2]]}),
            ("commutator-scan", {}),
            ("swap", {}),
            ("mode-conditions", {}),
            ("dark-residual", {}),
        ],
    },
}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The exact ``(scenario, config)`` runs of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; available: "
                       + ", ".join(WORKLOADS))
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return [(scenario, {**copy.deepcopy(cfg), "seed": seed})
            for scenario, cfg in WORKLOADS[workload]["runs"]]
