"""The replayable oracle cache: logged verdict I/O for resumable synthesis.

Modelled on easyila's ``OracleInterface`` (SNIPPETS.md): an oracle call is
expensive (here: an exhaustive exploration), so every call's inputs and
outputs are logged to disk, and a later run presented with the same inputs
replays the logged answer instead of calling the oracle again.  An
interrupted ``repro synth`` resumes exactly where it stopped — already-
judged candidates cost one file read each.

The cache key is the content fingerprint of ``(candidate, workload id,
oracle battery, source digest)`` — the full input of the verdict, plus the
code that computes it.  The source digest (:func:`source_digest`) hashes
every module of the packages a verdict runs through, so editing the
scheduler, a mechanism, the explore engine, an oracle or the synthesizer
turns every stored verdict into a miss.  Changing the workload, the
battery, or the candidate grammar changes the key too, so stale verdicts
are never replayed; they are simply never looked up again.

Each entry also stores the *witness* decision string that produced a
violation verdict (the logged I/O proper): :func:`replay_verdict` re-runs
that single schedule and re-derives the verdict without any exploration,
which is how the determinism tests validate the cache and how a skeptical
caller can audit any cached rejection in one run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..obs.runstore import canonical_json
from ..runtime.policies import ScriptedPolicy
from ..verify.registry import battery
from .candidates import run_candidate_footnote3
from .grammar import Candidate

#: Cache-entry schema.
ORACLE_CACHE_SCHEMA = 1

#: Default location, beside the run store's other artifacts.
DEFAULT_ROOT = os.path.join(".repro", "runs", "synthesis")

#: Verdict statuses.
CORRECT = "correct"
VIOLATION = "violation"
NO_CONCURRENCY = "no_concurrency"
INCONCLUSIVE = "inconclusive"


#: Packages (under ``repro``) whose code a synthesis verdict runs through:
#: the candidate runner also builds on ``problems`` and ``resources``.
VERDICT_PACKAGES = ("runtime", "mechanisms", "explore", "verify", "synth",
                    "problems", "resources")


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """BLAKE2b over the sorted source files of :data:`VERDICT_PACKAGES`.

    Computed on first use and then once per process, never at import."""
    base = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = []
    for package in VERDICT_PACKAGES:
        for root, _dirs, names in os.walk(os.path.join(base, package)):
            rel = os.path.relpath(root, base).replace(os.sep, "/")
            files.extend((rel + "/" + name, os.path.join(root, name))
                         for name in names if name.endswith(".py"))
    digest = hashlib.blake2b(digest_size=12)
    for rel, path in sorted(files):
        with open(path, "rb") as fh:
            source = fh.read()
        digest.update(rel.encode() + b"\0")
        digest.update(len(source).to_bytes(8, "big"))
        digest.update(source)
    return digest.hexdigest()


def cache_key(candidate: Candidate, workload: str,
              battery_names: Tuple[str, ...]) -> str:
    """Content fingerprint of one oracle call's full input, including the
    code that judges it (:func:`source_digest`)."""
    payload = repr((candidate.paths_text, candidate.read_guard,
                    candidate.write_guard, workload,
                    tuple(battery_names), source_digest())).encode()
    return hashlib.blake2b(payload, digest_size=12).hexdigest()


class OracleCache:
    """Filesystem log of synthesis oracle verdicts, one file per key."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    # ------------------------------------------------------------------
    def lookup(self, candidate: Candidate, workload: str,
               battery_names: Tuple[str, ...]) -> Optional[Dict[str, Any]]:
        """The logged verdict for this exact oracle input, or ``None``.

        An entry of any schema other than :data:`ORACLE_CACHE_SCHEMA` is
        a miss: older code wrote it, so its verdict is not replayed."""
        path = self._path(cache_key(candidate, workload, battery_names))
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            entry = json.load(fh)
        if int(entry.get("schema", 1)) != ORACLE_CACHE_SCHEMA:
            return None
        return entry.get("verdict")

    def store(self, candidate: Candidate, workload: str,
              battery_names: Tuple[str, ...],
              verdict: Dict[str, Any]) -> str:
        """Log one oracle call; returns the entry path."""
        os.makedirs(self.root, exist_ok=True)
        key = cache_key(candidate, workload, battery_names)
        entry = {
            "schema": ORACLE_CACHE_SCHEMA,
            "key": key,
            "workload": workload,
            "battery": list(battery_names),
            "candidate": candidate.to_dict(),
            "verdict": verdict,
        }
        path = self._path(key)
        with open(path, "w") as fh:
            fh.write(canonical_json(entry))
        return path

    def entries(self) -> List[Dict[str, Any]]:
        """Every logged entry, key-sorted (inspection/reporting)."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if name.endswith(".json"):
                with open(os.path.join(self.root, name)) as fh:
                    out.append(json.load(fh))
        return out


def replay_verdict(candidate: Candidate,
                   verdict: Dict[str, Any]) -> List[str]:
    """Re-derive a violation verdict from its logged witness in ONE run.

    Runs the witness decision string against the candidate and returns the
    battery's messages — non-empty confirms the logged rejection without
    re-exploring.  Returns ``[]`` for verdicts that carry no witness
    (``correct`` entries are certified by exhaustive exploration, which a
    single replay cannot reproduce)."""
    witness = verdict.get("witness")
    if witness is None:
        # An empty list is a real witness (the default schedule violates);
        # only a *missing* witness is non-replayable.
        return []
    check = battery(*verdict.get("battery",
                                 ("rw_exclusion", "footnote3_strict",
                                  "all_served")))
    run = run_candidate_footnote3(candidate,
                                  ScriptedPolicy([int(d) for d in witness]))
    return check(run)
