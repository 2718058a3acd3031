"""The four verdict workloads.

Each workload is built once per process (its set-up: imports and name
resolution), then runs passes.  ``run_pass(tracer, timer)`` computes one
full verdict set and returns it as plain data, timing each part of the
pass (a target, a sweep point, a campaign, the repair) with ``timer``.
``check(observed)`` compares the verdicts with the committed reference and
returns ``(attempted, failed, messages)`` in the workload's own unit.
``layer_metrics(tracer, observed)`` adds the workload's own per-layer
numbers to a traced pass.

The program is imported lazily, inside set-up, so that importing this
module costs nothing and the set-up probe measures the program's imports.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import ledger
from hostspeed import PartTimer
from ledger import Tracer, span

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: (attempted, failed, messages), in the workload's unit.
Verdict = Tuple[int, int, List[str]]


def load_reference(name: str) -> Dict[str, Any]:
    with open(REFERENCE_DIR / (name + ".json")) as fh:
        return json.load(fh)


def _report_error(where: str) -> str:
    """Log the current exception's traceback; return a one-line failure."""
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    return "{}: {}: {}".format(where, type(exc).__name__, exc)


# ----------------------------------------------------------------------
# explore_catalog
# ----------------------------------------------------------------------
class ExploreCatalog:
    """Pruned serial exhaustive search over every exploration target."""

    name = "explore_catalog"
    unit = "targets"
    #: One schedule budget for every target.  ``footnote3/csp`` exhausts
    #: at 5,497 runs; ``fcfs_resource/csp`` and ``staged_queue/csp`` do
    #: not, and stop here with budget-bound verdicts.
    BUDGET = 6000

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        from repro.explore.targets import available_targets, get_target

        self.reference = reference["targets"]
        pairs = available_targets()
        # The seed only orders the targets; every verdict is seed-free.
        random.Random(seed).shuffle(pairs)
        self.targets = []
        for problem, mechanism in pairs:
            target = get_target(problem, mechanism)
            self.targets.append((target, target.checker))

    def run_pass(self, tracer: Optional[Tracer],
                 timer: PartTimer) -> Dict[str, Any]:
        engine = ledger.engine_class(tracer)
        out: Dict[str, Any] = {}
        for target, checker in self.targets:
            key = "{}/{}".format(target.problem, target.mechanism)
            try:
                with timer.part(key):
                    out[key] = self._search(target, checker, engine, tracer,
                                            timer)
            except Exception:
                out[key] = {"error": _report_error(key)}
        return out

    def _search(self, target, checker, engine, tracer,
                timer: PartTimer) -> Dict[str, Any]:
        """One target's search, then a replay of its witness, if any."""
        from repro.runtime.policies import ScriptedPolicy

        runner = target.runner()
        if tracer is not None:
            runner = tracer.runtime(runner)

        def run(policy):
            # Some searches take seconds; sample the host speed inside
            # them, outside the runtime span.
            timer.checkpoint()
            return runner(policy)
        # Already timed inside: the traced engine must not wrap it again.
        run.traced_by = tracer

        result = engine(run, max_runs=self.BUDGET,
                        prune=True).explore(checker)
        replay = None
        if result.witness is not None:
            run, check = target.build_and_run, checker
            if tracer is not None:
                run, check = tracer.runtime(run), tracer.checker(check)
            with span(tracer, ledger.EXPLORE_REPLAY):
                replay = bool(check(run(
                    ScriptedPolicy(list(result.witness)))))
        return {"violating": not result.ok, "exhausted": result.exhausted,
                "witness_replays": replay}

    def check(self, observed: Dict[str, Any]) -> Verdict:
        failures: List[str] = []
        for key, want in sorted(self.reference.items()):
            got = observed.get(key)
            if got is None:
                failures.append("{}: not searched".format(key))
            elif "error" in got:
                failures.append(got["error"])
            elif (got["violating"], got["exhausted"]) != (
                    want["violating"], want["exhausted"]):
                failures.append(
                    "{}: (violating, exhausted) = ({}, {}), reference "
                    "({}, {})".format(key, got["violating"],
                                      got["exhausted"], want["violating"],
                                      want["exhausted"]))
            elif got["violating"] and not got["witness_replays"]:
                failures.append("{}: witness does not replay to a "
                                "violation".format(key))
        extra = sorted(set(observed) - set(self.reference))
        failures.extend("{}: target missing from the reference".format(k)
                        for k in extra)
        return len(self.reference) + len(extra), len(failures), failures

    def layer_metrics(self, tracer: Tracer, observed) -> Dict[str, float]:
        return {}

    @staticmethod
    def reference_of(observed: Dict[str, Any]) -> Dict[str, Any]:
        return {"budget": ExploreCatalog.BUDGET,
                "targets": {k: {"violating": v["violating"],
                                "exhausted": v["exhausted"]}
                            for k, v in sorted(observed.items())}}


# ----------------------------------------------------------------------
# load_sweep
# ----------------------------------------------------------------------
class LoadSweep:
    """``run_load`` for every load mechanism at a few client populations."""

    name = "load_sweep"
    unit = "client operations"
    POPULATIONS = (64, 256, 1024)
    OPS = 2
    #: ``--seed`` picks one of this many arrival seeds, each with its
    #: simulated statistics committed in the reference.
    ARRIVAL_SEEDS = 16

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        from repro.load.engine import DEFAULT_HORIZON, LOAD_MECHANISMS

        self.arrival_seed = seed % self.ARRIVAL_SEEDS
        self.reference = reference["seeds"].get(str(self.arrival_seed), {})
        self.horizon = DEFAULT_HORIZON
        self.points = [(m, c) for m in LOAD_MECHANISMS
                       for c in self.POPULATIONS]

    def ops_of(self, clients: int) -> int:
        """Client operations one point completes: a put and a get per op.
        ``run_load`` raises on a wedge, so a returned run completed all."""
        return clients * self.OPS * 2

    def run_pass(self, tracer: Optional[Tracer],
                 timer: PartTimer) -> Dict[str, Any]:
        from repro.load.engine import run_load
        from repro.obs.streaming import StreamingSink

        out: Dict[str, Any] = {}
        for mechanism, clients in self.points:
            key = "{}/{}".format(mechanism, clients)
            # The same sink run_load would build by default.
            sink = StreamingSink(window=32, max_windows=64,
                                 shard_prefix=True)
            if tracer is not None:
                tracer.sink(sink)
                sink_before = tracer.counts["obs.sink_s"]
            try:
                with timer.part(key), span(tracer, ledger.LOAD_RUN):
                    point, __ = run_load(
                        mechanism, clients=clients,
                        rate=clients / float(self.horizon), ops=self.OPS,
                        seed=self.arrival_seed, sink=sink,
                        keep_windows=False)
            except Exception:  # a wedge raises DeadlockError and the like
                out[key] = {"error": _report_error(key)}
                continue
            if tracer is not None:
                seconds = timer.parts[key]
                sink_s = tracer.counts["obs.sink_s"] - sink_before
                tracer.note_run(seconds - sink_s, point.steps, point.events)
                tracer.add("load.run_s", seconds)
            out[key] = {
                "steps": point.steps,
                "duration_ticks": point.duration_ticks,
                "latency": point.latency,
                "sink_completed": point.completed,
                "memory_cells": point.memory_cells,
            }
        return out

    def check(self, observed: Dict[str, Any]) -> Verdict:
        attempted, failed, messages = 0, 0, []
        for mechanism, clients in self.points:
            key = "{}/{}".format(mechanism, clients)
            ops = self.ops_of(clients)
            attempted += ops
            got, want = observed.get(key), self.reference.get(key)
            problem = None
            if want is None:
                problem = "{}: no reference for arrival seed {}".format(
                    key, self.arrival_seed)
            elif got is None or "error" in got:
                problem = got["error"] if got else key + ": not run"
            else:
                wrong = [f for f in ("steps", "duration_ticks", "latency")
                         if got[f] != want[f]]
                if wrong:
                    problem = "{}: {} differ from the reference".format(
                        key, ", ".join(wrong))
            if problem is not None:
                # Every operation of a failed point counts as failed.
                failed += ops
                messages.append(problem)
        return attempted, failed, messages

    def layer_metrics(self, tracer: Tracer,
                      observed: Dict[str, Any]) -> Dict[str, float]:
        from repro.load.engine import LOAD_MECHANISMS

        ok = {k: v for k, v in observed.items() if "error" not in v}
        out = {
            "load.ops_attempted": sum(self.ops_of(c) for __, c in self.points),
            "load.run_s": tracer.counts.get("load.run_s", 0.0),
            "obs.memory_cells": max(
                (v["memory_cells"] for v in ok.values()), default=0),
            "obs.sink_completed": sum(v["sink_completed"]
                                      for v in ok.values()),
        }
        largest = self.POPULATIONS[-1]
        for mechanism in LOAD_MECHANISMS:
            keys = ["{}/{}".format(mechanism, c) for c in self.POPULATIONS]
            steps = sum(ok[k]["steps"] for k in keys if k in ok)
            ops = sum(self.ops_of(c) for c in self.POPULATIONS)
            top = ok.get("{}/{}".format(mechanism, largest))
            out["load.steps_per_op." + mechanism] = steps / float(ops)
            out["load.sim_p99_ticks." + mechanism] = (
                top["latency"]["p99"] if top else 0.0)
        return out

    @staticmethod
    def reference_of(observed: Dict[str, Any]) -> Dict[str, Any]:
        return {k: {f: v[f] for f in ("steps", "duration_ticks", "latency",
                                      "sink_completed")}
                for k, v in sorted(observed.items())}


# ----------------------------------------------------------------------
# fault_campaigns
# ----------------------------------------------------------------------
#: Modules whose explore loops a traced pass routes through the traced
#: engine.
_CAMPAIGN_ENGINE_MODULES = (
    "repro.verify.chaos", "repro.verify.recovery", "repro.verify.partition",
    "repro.resilience.report", "repro.recover.search",
)
#: Public builders the distributed scenarios look up at call time.
_DISTRIBUTED_BUILDERS = (
    "build_lamport_mutex", "build_leader_election", "build_quorum_lock",
    "build_restart_lock",
)


class FaultCampaigns:
    """The four fault reports in full, the MTTR fingerprints, and the two
    witness searches."""

    name = "fault_campaigns"
    unit = "campaign cells + witness searches"

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        import importlib

        from repro.resilience import report as resilience
        from repro.verify import chaos, partition, recovery

        self.modules = [importlib.import_module(m)
                        for m in _CAMPAIGN_ENGINE_MODULES]
        self.distributed = importlib.import_module(
            "repro.problems.distributed")
        self.reference = reference
        # The program's own predictions: a cell must match them as well
        # as the committed reference.
        self.expected = {
            "chaos": {k: (v,) for k, v in
                      chaos.expected_classifications().items()},
            "recovery": {k: tuple(v) for k, v in
                         recovery.expected_recovery().items()},
            "partition": {"/".join(k): (v,) for k, v in
                          partition.expected_partition_classifications()
                          .items()},
            "resilience": {"/".join(k): (v,) for k, v in
                           resilience.expected_resilience_classifications()
                           .items()},
        }
        self.steps = [
            ("verify.chaos.report", "chaos", self._chaos),
            ("verify.recovery.report", "recovery", self._recovery),
            ("verify.partition.report", "partition", self._partition),
            ("resilience.report", "resilience", self._resilience),
            ("verify.recovery.mttr", "mttr", self._mttr),
            ("recover.search", "defeat_witness", self._defeat),
            ("resilience.search", "restart_witness", self._restart),
        ]
        # The seed only orders the campaigns; every verdict is seed-free.
        random.Random(seed).shuffle(self.steps)

    # Each step returns (observed verdicts, runs explored).
    @staticmethod
    def _chaos():
        from repro.verify.chaos import robustness_report
        results, __ = robustness_report()
        return ({r.name: r.classification for r in results},
                sum(r.runs for r in results))

    @staticmethod
    def _recovery():
        from repro.verify.recovery import recovery_report
        results, __ = recovery_report()
        return ({r.name: r.classification for r in results},
                sum(r.runs for r in results))

    @staticmethod
    def _partition():
        from repro.verify.partition import partition_report
        results, __ = partition_report()
        return ({"{}/{}".format(r.name, o.plan_name): o.classification
                 for r in results for o in r.outcomes},
                sum(r.runs for r in results))

    @staticmethod
    def _resilience():
        from repro.resilience.report import resilience_report
        results, __ = resilience_report()
        return ({"{}/{}".format(r.name, o.cell_name): o.classification
                 for r in results for o in r.outcomes},
                sum(o.runs for r in results for o in r.outcomes))

    @staticmethod
    def _mttr():
        from repro.verify.recovery import mttr_fingerprints
        prints = mttr_fingerprints()
        return prints, len(prints)

    @staticmethod
    def _defeat():
        from repro.verify.recovery import minimal_defeat_witness
        found = minimal_defeat_witness()
        return ({"witness": [k.describe() for k in found.witness or ()],
                 "label": found.witness_label, "tried": found.tried},
                found.tried)

    @staticmethod
    def _restart():
        from repro.resilience.report import search_restart_witness
        found, fenced = search_restart_witness()
        return ({"witness": [f.describe() for f in found.witness or ()],
                 "label": found.witness_label, "fenced_label": fenced,
                 "tried": found.tried},
                found.tried)

    def run_pass(self, tracer: Optional[Tracer],
                 timer: PartTimer) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        try:
            if tracer is not None:
                engine = tracer.engine_class()
                for module in self.modules:
                    tracer.rebind(module, "ExplorationEngine", engine)
                for name in _DISTRIBUTED_BUILDERS:
                    tracer.rebind(self.distributed, name, tracer.runtime(
                        getattr(self.distributed, name)))
            for span_name, key, step in self.steps:
                try:
                    with timer.part(key), span(tracer, span_name):
                        verdicts, runs = step()
                    out[key] = {"verdicts": verdicts, "runs": runs}
                except Exception:
                    out[key] = {"error": _report_error(key)}
        finally:
            if tracer is not None:
                tracer.restore()
        return out

    def check(self, observed: Dict[str, Any]) -> Verdict:
        failures: List[str] = []
        attempted = 0
        for key in ("chaos", "recovery", "partition", "resilience", "mttr"):
            cells = self.reference[key]
            attempted += len(cells)
            got = observed.get(key, {"error": key + ": not run"})
            if "error" in got:
                failures.extend([got["error"]] * len(cells))
                continue
            verdicts = got["verdicts"]
            for cell in sorted(set(cells) | set(verdicts)):
                label = verdicts.get(cell)
                if label != cells.get(cell):
                    failures.append("{} {}: {!r}, reference {!r}".format(
                        key, cell, label, cells.get(cell)))
                elif key != "mttr" and label not in self.expected[key].get(
                        cell, ()):
                    failures.append("{} {}: surprise {!r}, the program "
                                    "expects {}".format(
                                        key, cell, label,
                                        self.expected[key].get(cell)))
        for key in ("defeat_witness", "restart_witness"):
            attempted += 1
            got = observed.get(key, {"error": key + ": not run"})
            if "error" in got:
                failures.append(got["error"])
                continue
            want = self.reference[key]
            wrong = [f for f in want if f != "tried"
                     and got["verdicts"].get(f) != want[f]]
            if wrong:
                failures.append("{}: {} differ from the reference".format(
                    key, ", ".join(wrong)))
        return attempted, len(failures), failures

    def layer_metrics(self, tracer: Tracer,
                      observed: Dict[str, Any]) -> Dict[str, float]:
        dur = ledger.durations(tracer)

        def runs(key):
            return observed.get(key, {}).get("runs", 0)

        return {
            "verify.chaos.report_s": dur.get("verify.chaos.report", 0.0),
            "verify.recovery.report_s": dur.get("verify.recovery.report",
                                                0.0),
            "verify.partition.report_s": dur.get("verify.partition.report",
                                                 0.0),
            "resilience.report_s": dur.get("resilience.report", 0.0),
            "verify.recovery.mttr_s": dur.get("verify.recovery.mttr", 0.0),
            "recover.search_s": dur.get("recover.search", 0.0),
            "resilience.search_s": dur.get("resilience.search", 0.0),
            "faults.cells": sum(len(self.reference[k]) for k in (
                "chaos", "recovery", "partition", "resilience", "mttr")),
            "faults.runs": sum(runs(k) for k in (
                "chaos", "recovery", "partition", "resilience")),
            "recover.search_tried": runs("defeat_witness"),
            "resilience.search_tried": runs("restart_witness"),
        }

    @staticmethod
    def reference_of(observed: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v["verdicts"] for k, v in sorted(observed.items())}


# ----------------------------------------------------------------------
# synth_repair
# ----------------------------------------------------------------------
class CacheNotCold(Exception):
    """A synthesis pass found a persistent cache already populated."""


class SynthRepair:
    """``repair_footnote3(SynthConfig())``, cold, in a fresh directory."""

    name = "synth_repair"
    unit = "repairs"

    #: Fresh working directories are made, and removed, under here.
    WORK_ROOT = HERE.parent / ".verdictbench" / "work"

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        from repro.synth import SynthConfig, repair_footnote3  # noqa: F401

        self.reference = reference

    def run_pass(self, tracer: Optional[Tracer],
                 timer: PartTimer) -> Dict[str, Any]:
        from repro.obs.runstore import FP_CACHE_ROOT
        from repro.synth import OracleCache, SynthConfig, repair_footnote3

        self.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        home = os.getcwd()
        work = tempfile.mkdtemp(dir=str(self.WORK_ROOT))
        try:
            # Both caches resolve against the working directory, so a
            # fresh one holds neither.
            os.chdir(work)
            if OracleCache().entries() or os.path.exists(FP_CACHE_ROOT):
                raise CacheNotCold(work)
            if tracer is not None:
                self._instrument(tracer, OracleCache)
            try:
                # The repair is one long call; its progress messages
                # are where the host speed can be sampled inside it.
                with timer.part("repair"), span(tracer, "synth.repair"):
                    report = repair_footnote3(SynthConfig(),
                                              log=timer.checkpoint)
            finally:
                if tracer is not None:
                    tracer.restore()
        except Exception:
            return {"error": _report_error(self.name)}
        finally:
            os.chdir(home)
            shutil.rmtree(work, ignore_errors=True)
        winner = report.outcome.winner
        return {
            "winner": None if winner is None else {
                "paths": winner.paths_text.strip(),
                "read_guard": list(winner.read_guard),
                "write_guard": list(winner.write_guard),
                "size": winner.size,
            },
            "stats": report.outcome.stats.to_dict(),
        }

    @staticmethod
    def _instrument(tracer: Tracer, oracle_cache) -> None:
        from repro.synth import cegis, repair

        engine = tracer.engine_class()
        for module in (cegis, repair):
            tracer.rebind(module, "ExplorationEngine", engine)
            tracer.rebind(module, "minimize_witness", tracer.wrap(
                ledger.EXPLORE_MINIMIZE, module.minimize_witness))
        tracer.rebind(repair, "synthesize",
                      tracer.wrap("synth.synthesize", repair.synthesize))
        for name in ("run_candidate_footnote3", "run_candidate_two_readers"):
            tracer.rebind(cegis, name, tracer.runtime(getattr(cegis, name)))
        battery = cegis.battery
        tracer.rebind(cegis, "battery",
                      lambda *names: tracer.checker(battery(*names)))
        lookup, store = oracle_cache.lookup, oracle_cache.store
        tracer.rebind(oracle_cache, "lookup",
                      tracer.wrap("synth.cache_lookup", lookup))

        def counted_store(*args, **kwargs):
            tracer.add("synth.cache_stores")
            return store(*args, **kwargs)
        tracer.rebind(oracle_cache, "store",
                      tracer.wrap("synth.cache_store", counted_store))

    def check(self, observed: Dict[str, Any]) -> Verdict:
        if "error" in observed:
            return 1, 1, [observed["error"]]
        if observed["winner"] != self.reference["winner"]:
            return 1, 1, ["winner {!r}, reference {!r}".format(
                observed["winner"], self.reference["winner"])]
        return 1, 0, []

    def layer_metrics(self, tracer: Tracer,
                      observed: Dict[str, Any]) -> Dict[str, float]:
        stats = observed.get("stats", {})
        dur = ledger.durations(tracer)
        explored = stats.get("explored", 0)
        return {
            "synth.candidates_tried": stats.get("candidates_tried", 0),
            "synth.cex_rejected": stats.get("cex_rejected", 0),
            "synth.cex_replays": stats.get("cex_replays", 0),
            "synth.explored": explored,
            "synth.exploration_runs": stats.get("exploration_runs", 0),
            "synth.cex_leverage": (stats.get("explorations_skipped", 0)
                                   / float(explored) if explored else 0.0),
            # Host-speed samples taken at progress messages are not work.
            "synth.diagnose_s": (
                dur.get("synth.repair", 0.0) - dur.get("synth.synthesize", 0.0)
                - ledger.under(tracer, ledger.HOST_SAMPLE, "synth.repair")),
            "synth.synthesize_s": (
                dur.get("synth.synthesize", 0.0)
                - ledger.under(tracer, ledger.HOST_SAMPLE,
                               "synth.synthesize")),
            "synth.cache_lookup_s": dur.get("synth.cache_lookup", 0.0),
            "synth.cache_store_s": dur.get("synth.cache_store", 0.0),
            "synth.cache_stores": tracer.counts.get("synth.cache_stores", 0),
        }

    @staticmethod
    def reference_of(observed: Dict[str, Any]) -> Dict[str, Any]:
        return {"winner": observed["winner"]}


WORKLOADS = {w.name: w for w in (ExploreCatalog, LoadSweep, FaultCampaigns,
                                 SynthRepair)}
