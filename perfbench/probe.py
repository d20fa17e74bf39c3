"""Run ``droidracer analyze --json`` with timers around each layer's
public entry points, from outside the program.

    python3 probe.py TIMINGS.json TRACE REPORT [TRACE REPORT ...]

Each TRACE is analysed in this process through the CLI's own ``main``;
its report goes to REPORT.  TIMINGS.json receives the time taken to
import the CLI and, per trace, the inclusive seconds spent in
``ExecutionTrace.load``, ``HBGraph.__init__``, ``HappensBefore.__init__``,
``RaceDetector.detect`` and ``report_to_json``.  The caller turns these
into self times (closure = happens-before minus graph, enumeration =
detect minus happens-before).

If an entry point no longer exists, or a trace's analysis never called
it, its time would silently read 0, so the probe names it on stderr and
exits with code 3 instead; the caller counts that as a failed operation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

_started = time.perf_counter()
import repro.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _started

import repro.corpus  # noqa: E402
import repro.core.graph  # noqa: E402
import repro.core.happens_before  # noqa: E402
import repro.core.race_detector  # noqa: E402
import repro.core.trace  # noqa: E402

_current = {}


def _timed(key, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            _current[key] = _current.get(key, 0.0) + time.perf_counter() - started

    return wrapper


#: (key, module, owner, attribute) of each wrapped entry point; ``owner``
#: None means a module-level function.
TARGETS = (
    ("load", repro.core.trace, "ExecutionTrace", "load"),
    ("graph", repro.core.graph, "HBGraph", "__init__"),
    ("hb", repro.core.happens_before, "HappensBefore", "__init__"),
    ("detect", repro.core.race_detector, "RaceDetector", "detect"),
    ("report", repro.corpus, None, "report_to_json"),
)
MISSING = 3


def _install() -> list:
    """Wrap every target; returns the names of those not found."""
    missing = []
    for key, module, owner_name, attr in TARGETS:
        owner = module if owner_name is None else getattr(module, owner_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append("%s.%s" % (owner_name or module.__name__, attr))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_timed(key, raw.__func__)))
        else:
            setattr(owner, attr, _timed(key, raw))
    return missing


def main(argv) -> int:
    out_path, pairs = argv[0], argv[1:]
    missing = _install()
    if missing:
        print("probe: not found: %s" % ", ".join(missing), file=sys.stderr)
        return MISSING
    traces = []
    status = 0
    for trace_path, report_path in zip(pairs[::2], pairs[1::2]):
        _current.clear()
        with open(report_path, "w", encoding="utf-8") as handle:
            with contextlib.redirect_stdout(handle):
                status = cli.main(["analyze", "--json", trace_path]) or status
        uncalled = [key for key, *_ in TARGETS if key not in _current]
        if uncalled:
            print("probe: %s: never called: %s" % (trace_path, ", ".join(uncalled)),
                  file=sys.stderr)
            return MISSING
        traces.append(dict(_current))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": IMPORT_S, "traces": traces}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
