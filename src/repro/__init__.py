"""repro — a reproduction of "Evaluating Synchronization Mechanisms"
(Toby Bloom, SOSP 1979).

The library's core layers (bottom-up):

* :mod:`repro.runtime` — deterministic cooperative concurrency substrate:
  generator-based processes, schedulers and policies, FIFO semaphores,
  traces.
* :mod:`repro.core` + :mod:`repro.analysis` — the paper's actual
  contribution: the evaluation methodology (information types, constraint
  taxonomy, criteria), made machine-checkable.
* :mod:`repro.mechanisms` — the constructs under evaluation, built from
  scratch: Hoare monitors, Atkinson-Hewitt serializers, Campbell-Habermann
  path expressions (plus the extended/open variants).
* :mod:`repro.resources` — unsynchronized shared resources with built-in
  race detection, and the paper's section-2 protected-resource structure.
* :mod:`repro.verify` — the checker layer: trace oracles, liveness
  queries, the oracle registry and the mechanism-level detectors, which
  import only :mod:`repro.runtime`.
* :mod:`repro.problems` — the paper's test-problem suite (footnote 2 plus
  the 4.2/5.2 probes), each problem solved under every mechanism,
  registered in :mod:`repro.problems.registry`.

The search (:mod:`repro.explore`) and the recovery, distribution and
resilience runtimes sit between the checker layer and the problems that
use them; the fault campaigns, synthesis, load and the suite sit on top.
DESIGN.md §5 gives the whole layer order.  A package re-exports only its
own layer, and a module above it (``repro.verify.chaos``,
``repro.explore.targets``) is imported by its full path.

Quickstart::

    from repro.problems.registry import build_evaluator
    report = build_evaluator().evaluate()
    print(report.render())
"""

from . import analysis, core, mechanisms, problems, resources, runtime, verify

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "mechanisms",
    "problems",
    "resources",
    "runtime",
    "verify",
    "__version__",
]
