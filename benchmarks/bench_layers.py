"""Benchmark — per-layer CPU of ``droidracer analyze`` on the paper's apps.

Runs the ``analyze --json`` pipeline in-process on each of the 15
Table-2-calibrated subjects of ``repro.apps.registry`` (schedule seed
``SCHEDULE``, full scale) and splits its CPU time into layers:

==================  ==========================================================
layer               measured as (process CPU, from the pipeline's own spans)
==================  ==========================================================
``load``            ``trace.load`` — JSONL parse, ``Operation`` build, ingest
``graph``           ``closure.graph`` — node coalescing and masks
``closure``         ``detect.closure`` minus ``closure.graph``
``location_index``  ``detect.location_index`` — per-location accessor index
``enumerate``       ``detect.enumerate`` minus ``location_index``
``report``          ``report_to_json`` of the finished report
==================  ==========================================================

Each layer is the minimum over ``REPEATS`` runs (taken per layer).  The
default backend (bitmask) runs the whole pipeline; the chains backend
additionally reruns ``graph``, ``closure`` and ``enumerate`` on the same loaded
trace, so the file also carries the per-app backend comparison (its
``graph`` includes building the chain index).

Deterministic work counters ride along per app: ``ops``, ``nodes``,
``location_entries`` (the ``detect.location_entries`` counter),
``racy_pairs``, ``races`` and ``answer`` — a hash of the race list
(op pair, location, category), the racy-pair count and the node count.

    python benchmarks/bench_layers.py                 # writes results/BENCH_layers.json
    python benchmarks/bench_layers.py --baseline F    # ... embedding an earlier run F
    python benchmarks/bench_layers.py --smoke         # counters only (CI)

``--smoke`` runs every app once and asserts its counters equal the ones
committed in ``BENCH_layers.json`` and that the chains backend gives the
same answer; it checks no time.  ``--baseline F`` copies the ``apps`` and
``totals`` of an earlier output ``F`` (for example one taken on the
previous commit) into the new file under ``baseline``, so a claimed gain
and the numbers behind it sit in one committed document.
"""

import hashlib
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC_DIR)

from repro.apps.registry import all_paper_apps  # noqa: E402
from repro.core.happens_before import BACKEND_BITMASK, BACKEND_CHAINS  # noqa: E402
from repro.core.race_detector import RaceDetector  # noqa: E402
from repro.core.trace import ExecutionTrace  # noqa: E402
from repro.corpus import report_to_json  # noqa: E402
from repro.obs import Tracer, use_tracer  # noqa: E402

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
OUT = RESULTS / "BENCH_layers.json"

SCHEDULE = 0
REPEATS = 3
LAYERS = ("load", "graph", "closure", "location_index", "enumerate", "report")
CHAINS_LAYERS = ("graph", "closure", "enumerate")
COUNTERS = ("ops", "nodes", "location_entries", "racy_pairs", "races", "answer")


def answer_of(report) -> str:
    """Hash of what the detector decided, independent of timings and of
    closure bookkeeping (so both backends give the same answer)."""
    races = sorted(
        [race.op_i.index, race.op_j.index, race.location, race.category.value]
        for race in report.races
    )
    blob = json.dumps(
        [races, report.racy_pair_count, report.node_count], separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _span_cpu(tracer: Tracer) -> dict:
    totals: dict = {}
    for record in tracer.spans:
        totals[record.name] = totals.get(record.name, 0.0) + record.cpu_seconds
    return totals


def _detect(trace: ExecutionTrace, backend: str):
    """One detection under a fresh tracer: ``(report, layer CPU, counters)``."""
    tracer = Tracer()
    with use_tracer(tracer):
        report = RaceDetector(trace, backend=backend).detect()
    cpu = _span_cpu(tracer)
    index_s = cpu.get("detect.location_index", 0.0)
    layers = {
        "graph": cpu["closure.graph"],
        "closure": cpu["detect.closure"] - cpu["closure.graph"],
        "location_index": index_s,
        "enumerate": cpu["detect.enumerate"] - index_s,
    }
    counters = {
        "nodes": report.node_count,
        "location_entries": tracer.counters.get("detect.location_entries", 0),
        "racy_pairs": report.racy_pair_count,
        "races": len(report.races),
        "answer": answer_of(report),
    }
    return report, layers, counters


def measure(path: str, repeats: int) -> dict:
    """Per-layer CPU minima over ``repeats`` runs plus the counters."""
    best = {layer: float("inf") for layer in LAYERS}
    best_chains = {layer: float("inf") for layer in CHAINS_LAYERS}
    for _ in range(repeats):
        tracer = Tracer()
        with use_tracer(tracer):
            trace = ExecutionTrace.load(path)
        layers = {"load": _span_cpu(tracer)["trace.load"]}
        report, detect_layers, counters = _detect(trace, BACKEND_BITMASK)
        layers.update(detect_layers)
        started = time.process_time()
        report_to_json(report)
        layers["report"] = time.process_time() - started
        for layer in LAYERS:
            best[layer] = min(best[layer], layers[layer])
        _, chains_layers, chains_counters = _detect(trace, BACKEND_CHAINS)
        for layer in CHAINS_LAYERS:
            best_chains[layer] = min(best_chains[layer], chains_layers[layer])
    counters["ops"] = len(trace)
    return {
        "counters": {key: counters[key] for key in COUNTERS},
        "cpu_s": {layer: round(best[layer], 4) for layer in LAYERS},
        "chains_cpu_s": {layer: round(best_chains[layer], 4) for layer in CHAINS_LAYERS},
        "chains_answer": chains_counters["answer"],
    }


def generate(directory: str):
    """Write each paper app's trace; yields ``(app name, path)``."""
    for app in all_paper_apps():
        _, trace = app.run(SCHEDULE)
        path = os.path.join(directory, "%s.jsonl" % app.name.replace(" ", "_"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(trace.to_jsonl())
        yield app.name, path


def totals_of(apps: list) -> dict:
    totals = {
        layer: round(sum(row["cpu_s"][layer] for row in apps), 4) for layer in LAYERS
    }
    totals["all"] = round(sum(totals[layer] for layer in LAYERS), 4)
    for layer in CHAINS_LAYERS:
        totals["chains_" + layer] = round(
            sum(row["chains_cpu_s"][layer] for row in apps), 4
        )
    return totals


def run_full(baseline_path=None) -> int:
    apps = []
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as tmp:
        for name, path in generate(tmp):
            row = dict(app=name, schedule=SCHEDULE, **measure(path, REPEATS))
            apps.append(row)
            print(
                "%-16s %s" % (name, "  ".join(
                    "%s %.3f" % (layer, row["cpu_s"][layer]) for layer in LAYERS
                )),
                flush=True,
            )
    doc = {
        "benchmark": "layers",
        "workload": "15 repro.apps.registry paper apps, scale 1.0, schedule %d"
        % SCHEDULE,
        "method": "in-process analyze --json pipeline; process CPU per layer "
        "from the pipeline's spans, min of %d runs per layer" % REPEATS,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "apps": apps,
        "totals": totals_of(apps),
    }
    if baseline_path:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            base = json.load(handle)
        doc["baseline"] = {
            key: base[key] for key in ("method", "apps", "totals") if key in base
        }
        for row, base_row in zip(apps, base["apps"]):
            if row["counters"] != base_row["counters"]:
                print("counters differ from baseline on %s" % row["app"])
                return 1
    RESULTS.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print("totals %s" % json.dumps(doc["totals"]))
    print("wrote %s" % OUT)
    return 0


def run_smoke() -> int:
    committed = {row["app"]: row for row in json.loads(OUT.read_text())["apps"]}
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as tmp:
        for name, path in generate(tmp):
            row = measure(path, repeats=1)
            want = committed.pop(name, {}).get("counters")
            if row["counters"] != want:
                failures.append("%s: counters %s, committed %s"
                                % (name, row["counters"], want))
            if row["chains_answer"] != row["counters"]["answer"]:
                failures.append("%s: chains answer %s != bitmask answer %s"
                                % (name, row["chains_answer"], row["counters"]["answer"]))
            print("%-16s %s" % (name, json.dumps(row["counters"])), flush=True)
    failures += ["%s: committed but not run" % name for name in committed]
    for failure in failures:
        print("FAIL " + failure)
    print("layers smoke: %s" % ("FAIL" if failures else "OK"))
    return 1 if failures else 0


def main(argv) -> int:
    if "--smoke" in argv:
        return run_smoke()
    baseline = None
    if "--baseline" in argv:
        baseline = argv[argv.index("--baseline") + 1]
    return run_full(baseline)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
