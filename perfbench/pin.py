"""Regenerate ``expected.json``: the digest and answer of every input key.

    python3 perfbench/pin.py [KEY_PREFIX ...]

Each trace is analysed in-process with the detector's default settings
and again with ``backend="chains"``; the two answers must agree, so the
pins hold for any closure engine that computes the paper's relation.
With prefixes, only matching keys are recomputed and the rest of the
file is kept.  Run it only when a change is meant to alter the inputs or
the answers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402


def pin(key: str) -> list:
    from repro.core.race_detector import RaceDetector
    from repro.core.trace import ExecutionTrace

    text = inputs.generate(key)
    trace = ExecutionTrace.from_jsonl(text, name=key)
    answers = [
        inputs.answer_of(RaceDetector(trace, backend=backend).detect().to_dict())
        for backend in ("bitmask", "chains")
    ]
    if answers[0] != answers[1]:
        raise SystemExit("%s: bitmask and chains answers differ: %r" % (key, answers))
    return [inputs.digest(text)[:16], *answers[0], len(trace)]


def main(prefixes) -> int:
    expected = {}
    if prefixes and os.path.exists(inputs.EXPECTED_PATH):
        expected = inputs.load_expected()
    for key in inputs.all_keys():
        if prefixes and not key.startswith(tuple(prefixes)):
            continue
        started = time.perf_counter()
        expected[key] = pin(key)
        print("%-40s %s  %.1fs" % (key, expected[key], time.perf_counter() - started),
              flush=True)
    write(expected)
    return 0


def write(expected: dict) -> None:
    """One key per line, sorted, so a re-pin diffs by key."""
    lines = ["%s: %s" % (json.dumps(key), json.dumps(expected[key])) for key in sorted(expected)]
    with open(inputs.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
