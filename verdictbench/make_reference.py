"""Regenerate the committed verdict references from the current program.

    python3 verdictbench/make_reference.py [workload ...]

Each workload's reference is what one untraced pass of the current code
observes; ``load_sweep`` records one reference per arrival seed.  Review the
diff before committing: a changed reference is a changed verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import PartTimer  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, LoadSweep  # noqa: E402


def observe(name: str) -> dict:
    cls = WORKLOADS[name]
    if cls is LoadSweep:
        seeds = {}
        for seed in range(LoadSweep.ARRIVAL_SEEDS):
            workload = LoadSweep(seed, {"seeds": {}})
            seeds[str(seed)] = LoadSweep.reference_of(
                workload.run_pass(None, PartTimer()))
        return {"arrival_seeds": LoadSweep.ARRIVAL_SEEDS,
                "populations": list(LoadSweep.POPULATIONS),
                "ops": LoadSweep.OPS, "seeds": seeds}
    # A placeholder reference lets the workload set up; only its pass is
    # used.
    workload = cls(0, _placeholder(name))
    return cls.reference_of(workload.run_pass(None, PartTimer()))


def _placeholder(name: str) -> dict:
    return {"explore_catalog": {"targets": {}},
            "fault_campaigns": {},
            "synth_repair": {"winner": None}}[name]


def main(names) -> int:
    for name in names or list(WORKLOADS):
        reference = observe(name)
        with open(REFERENCE_DIR / (name + ".json"), "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", REFERENCE_DIR / (name + ".json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
