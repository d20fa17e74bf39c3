"""Seeded workload inputs and the answers pinned for them.

Every trace a workload analyses is named by a *key* that fixes how it is
generated (``paper/<app>/<schedule seed>``, ``ladder/<shape>/...``,
``fleet/<app>/<schedule seed>``).  The run's ``--seed`` only chooses keys,
so the set of keys any seed can pick is finite and every one of them has
its canonical digest and its answer pinned in ``expected.json``
(regenerate with ``python3 perfbench/pin.py``).  A changed simulator
therefore shows as a digest mismatch instead of silently changing the
workload, and a changed detector shows as a wrong answer.

Generation runs before any timed region and is never part of a metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The 15 Table-2 subjects, in the paper's order.
PAPER_APPS = (
    "Aard Dictionary", "Music Player", "My Tracks", "Messenger",
    "Tomdroid Notes", "FBReader", "Browser", "OpenSudoku", "K-9 Mail",
    "SGTPuzzles", "Remind Me", "Twitter", "Adobe Reader", "Facebook",
    "Flipkart",
)
#: Schedule seeds a paper-apps run draws from, per app.
PAPER_SCHEDULES = 12

#: Ladder shapes (levels, width) at which the closure dominates the
#: analysis; each run analyses all three.  Rogue count and shared-write
#: stride vary with the seed and barely change the cost.
LADDER_SHAPES = ((30, 17), (24, 20), (36, 14))
LADDER_ROGUES = (1, 2)
LADDER_SHARED_EVERY = (3, 4, 5)

#: Fleet traces: the calibrated apps whose scale-0.02 traces are the
#: smallest (500-1,400 ops) and analyse in tens of milliseconds.  The
#: other apps keep a fixed gadget core at this scale that costs 0.1-4 s
#: (K-9 Mail, Tomdroid Notes) or doubles the upload size, and would turn
#: the fleet into a closure or parsing benchmark.
FLEET_APPS = (
    "Aard Dictionary", "Music Player", "OpenSudoku", "SGTPuzzles", "Facebook",
)
FLEET_SCALE = 0.02
FLEET_SCHEDULES = 60

#: A few-operation trace: the input ``setup_s`` launches the program on.
MINIMAL_KEY = "minimal"


def paper_keys(seed: int) -> List[str]:
    rng = random.Random("paper-apps:%d" % seed)
    return ["paper/%s/%d" % (app, rng.randrange(PAPER_SCHEDULES)) for app in PAPER_APPS]


def ladder_keys(seed: int) -> List[str]:
    rng = random.Random("closure-ladder:%d" % seed)
    return [
        "ladder/%dx%d/r%d/e%d"
        % (levels, width, rng.choice(LADDER_ROGUES), rng.choice(LADDER_SHARED_EVERY))
        for levels, width in LADDER_SHAPES
    ]


def fleet_keys(seed: int, count: int) -> List[str]:
    """``count`` distinct fleet keys in upload order.  Every run of
    ``len(FLEET_APPS)`` consecutive keys holds one trace of each app, so
    the app mix, and with it the cost, is the same for every seed."""
    if count > len(FLEET_APPS) * FLEET_SCHEDULES:
        raise ValueError("the fleet pool holds %d traces, %d asked"
                         % (len(FLEET_APPS) * FLEET_SCHEDULES, count))
    rng = random.Random("served-fleet:%d" % seed)
    schedules = {app: rng.sample(range(FLEET_SCHEDULES), FLEET_SCHEDULES)
                 for app in FLEET_APPS}
    keys: List[str] = []
    while len(keys) < count:
        block = ["fleet/%s/%d" % (app, schedules[app].pop()) for app in FLEET_APPS]
        rng.shuffle(block)
        keys += block
    return keys[:count]


def all_keys() -> List[str]:
    """Every key any seed can choose (what ``pin.py`` pins)."""
    keys = [
        "paper/%s/%d" % (app, schedule)
        for app in PAPER_APPS
        for schedule in range(PAPER_SCHEDULES)
    ]
    keys += [
        "ladder/%dx%d/r%d/e%d" % (levels, width, rogues, every)
        for levels, width in LADDER_SHAPES
        for rogues in LADDER_ROGUES
        for every in LADDER_SHARED_EVERY
    ]
    keys += [
        "fleet/%s/%d" % (app, schedule)
        for app in FLEET_APPS
        for schedule in range(FLEET_SCHEDULES)
    ]
    return sorted(keys + [MINIMAL_KEY])


def generate(key: str) -> str:
    """The canonical JSONL text of the trace ``key`` names."""
    kind, _, rest = key.partition("/")
    if kind in ("paper", "fleet"):
        from repro.apps.registry import paper_app

        app, schedule = rest.rsplit("/", 1)
        scale = 1.0 if kind == "paper" else FLEET_SCALE
        _, trace = paper_app(app, scale=scale).run(int(schedule))
        return trace.to_jsonl()
    if kind == "ladder":
        from repro.apps.ladder import ladder_trace

        shape, rogues, every = rest.split("/")
        levels, width = (int(n) for n in shape.split("x"))
        return ladder_trace(
            levels, width, rogues=int(rogues[1:]), shared_every=int(every[1:])
        ).to_jsonl()
    if key == MINIMAL_KEY:
        from repro.apps.ladder import ladder_trace

        return ladder_trace(1, 1, loopers=1, rogues=0).to_jsonl()
    raise ValueError("unknown input key %r" % key)


def digest(text: str) -> str:
    """The trace's ``canonical_digest`` (SHA-256 of its canonical JSONL)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer_of(report: dict) -> Tuple[str, int, int, int]:
    """``(answer hash, races, racy pairs, nodes)`` of one ``analyze --json``
    report.

    The answer is what the paper's detector decides: the race list (op
    pair, location, category), the racy pair count and the node count.
    Closure bookkeeping (backend, chain counts, memory) and timings are
    left out, so every closure engine that computes the same relation
    gives the same answer.
    """
    races = sorted(
        [r["op_i"]["index"], r["op_j"]["index"], r["location"], r["category"]]
        for r in report["races"]
    )
    blob = json.dumps(
        [races, report["racy_pair_count"], report["node_count"]],
        separators=(",", ":"),
    )
    answer = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return answer, len(races), report["racy_pair_count"], report["node_count"]


def load_expected() -> Dict[str, list]:
    """``key -> [digest16, answer16, races, racy_pairs, nodes, ops]``."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Inputs:
    """Generates a run's traces into ``directory`` and checks them and
    their answers against the pins."""

    def __init__(self, directory: str):
        self.directory = directory
        self.expected = load_expected()
        self.paths: Dict[str, str] = {}
        self.texts: Dict[str, str] = {}
        self.ops: Dict[str, int] = {}
        self.bad_inputs: List[str] = []

    def make(self, keys: List[str], keep_text: bool = False) -> List[str]:
        """Write each key's trace to a file; returns the paths.  A trace
        whose digest differs from its pin is recorded in ``bad_inputs``."""
        paths = []
        for key in keys:
            text = generate(key)
            pin = self.expected.get(key)
            if pin is None or digest(text)[:16] != pin[0]:
                self.bad_inputs.append(key)
            path = os.path.join(self.directory, "t%04d.jsonl" % len(self.paths))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.paths[key] = path
            self.ops[key] = text.count("\n")
            if keep_text:
                self.texts[key] = text
            paths.append(path)
        return paths

    def check(self, key: str, report: str) -> bool:
        """Whether the JSON ``report`` gives the answer pinned for ``key``;
        output that is not a report is a wrong answer."""
        pin = self.expected.get(key)
        try:
            return pin is not None and list(answer_of(json.loads(report))) == pin[1:5]
        except (KeyError, TypeError, ValueError):
            return False

    def checked(self, key: str, report: str) -> bool:
        """Whether ``key``'s input matched its pin and ``report`` gives
        the pinned answer."""
        return key not in self.bad_inputs and self.check(key, report)
