"""DroidRacer benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``perfbench/README.md``
for why each exists and what each layer should move):

* ``paper-apps``     -- the 15 Table-2-calibrated traces, each analysed by
  a fresh ``droidracer analyze --json`` process;
* ``closure-ladder`` -- three closure ladders, same path, where the
  happens-before closure dominates;
* ``served-fleet``   -- ``droidracer serve`` under an open loop of small
  uploads, resubmissions and report reads, then a batch drain.

With ``--trace 0`` the end-to-end metrics are measured with no timers in
the program.  With ``--trace 1`` the same workload runs with timers
around each layer's public functions (``probe.py``) and the per-layer
metrics are printed instead.  Every timing is printed with its sample
count; the last line is the JSON result.  Inputs are generated before
anything is timed and checked against ``expected.json``; a wrong answer,
a changed input or a failed or refused request counts in ``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import tempfile
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    ROOT, SRC, Result, child_env, gmean, median, parse_json, run_timed,
)

#: (name, unit) of the metrics a run prints, in order.
END_TO_END = (
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("verdict_gmean_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("trace.load_s", "s"),
    ("trace.ops", "count"),
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("closure.s", "s"),
    ("closure.edges", "count"),
    ("closure.rule_edges", "count"),
    ("closure.rounds", "count"),
    ("detect.enumerate_s", "s"),
    ("detect.racy_pairs", "count"),
    ("detect.races", "count"),
    ("report.json_s", "s"),
    ("traced.analyze_s", "s"),
    ("store.ingest_s", "s"),
    ("http.ingest_p50_ms", "ms"),
    ("http.report_p50_ms", "ms"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("cached_p50_ms", "ms"),
    ("jobs.wait_p50_s", "s"),
    ("jobs.wait_p90_s", "s"),
    ("jobs.run_p50_s", "s"),
    ("jobs.retried", "count"),
    ("http.refused", "count"),
    ("cache.hit_share", "share"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_p90_ms", "ms"),
)
#: Fresh ``analyze`` launches on a few-operation trace per CLI run.
SETUP_LAUNCHES = 9
PROBE = os.path.join(HERE, "probe.py")


def probe_layers(result: Result, traces: List[Tuple[str, str]], work: str,
                 check: Callable[[str, str], bool], in_process: bool = False,
                 passes: int = 1) -> List[float]:
    """Analyse ``traces`` (``(key, path)`` pairs) under ``probe.py`` and
    record the core-layer metrics.  ``in_process`` analyses them all in
    one process (as a server worker does); otherwise each trace gets a
    fresh process (as ``droidracer analyze`` does).  Each report is
    checked with ``check(key, report)``; a wrong answer, a failed process
    or a probe that lost an entry point counts as a failed operation.
    Returns each process's wall time."""
    groups = [traces] if in_process else [[pair] for pair in traces]
    walls, imports, rows = [], [], []
    for index, group in enumerate(groups):
        timings = os.path.join(work, "probe%d.json" % index)
        errors = timings + ".err"
        argv = [sys.executable, PROBE, timings]
        for key, path in group:
            argv += [path, path + ".report.json"]
        wall, code, _ = run_timed(argv, work, child_env(work), os.devnull,
                                  stderr_path=errors)
        walls.append(wall)
        if code != 0:
            with open(errors, "r", encoding="utf-8", errors="replace") as handle:
                lines = handle.read().strip().splitlines()
            result.notes.append("probe exited with %d: %s"
                                % (code, lines[-1] if lines else "no message"))
            for _ in group:
                result.op(False)
            continue
        with open(timings, "r", encoding="utf-8") as handle:
            probed = json.load(handle)
        imports.append(probed["import_s"])
        for (key, path), spans in zip(group, probed["traces"]):
            with open(path + ".report.json", "r", encoding="utf-8") as handle:
                report = handle.read()
            result.op(check(key, report) and nested(spans))
            rows.append((spans, parse_json(report)))
    record_layers(result, rows, passes)
    result.add("cli.import_s", sum(imports) / max(1, len(imports)), "s", len(imports))
    return walls


def nested(spans: Dict[str, float]) -> bool:
    """Whether the layers still nest as the self times assume: graph
    construction inside the closure, the closure inside detection."""
    return spans["graph"] <= spans["hb"] <= spans["detect"]


def record_layers(result: Result, rows: List[Tuple[Dict[str, float], dict]],
                  passes: int) -> None:
    """Per pass over the traces, the total of each layer's time and
    count.  Self times subtract the nested layer: the closure excludes
    graph construction, enumeration excludes the closure."""
    sums: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        sums[name] = sums.get(name, 0.0) + value

    for spans, report in rows:
        closure = report.get("closure") or {}
        add("trace.load_s", spans.get("load", 0.0))
        add("graph.build_s", spans.get("graph", 0.0))
        add("closure.s", spans.get("hb", 0.0) - spans.get("graph", 0.0))
        add("detect.enumerate_s", spans.get("detect", 0.0) - spans.get("hb", 0.0))
        add("report.json_s", spans.get("report", 0.0))
        add("trace.ops", report.get("trace_length", 0))
        add("graph.nodes", report.get("node_count", 0))
        add("closure.edges", closure.get("st_edges", 0) + closure.get("mt_edges", 0))
        add("closure.rule_edges",
            closure.get("fifo_edges", 0) + closure.get("nopre_edges", 0))
        add("closure.rounds", closure.get("outer_iterations", 0))
        add("detect.racy_pairs", report.get("racy_pair_count", 0))
        add("detect.races", len(report.get("races", ())))
    for name, unit in PER_LAYER:
        if name in sums:
            result.add(name, sums[name] / passes, unit, len(rows))


def cli_workload(keys: List[str], work: str, seconds: float, pass_s: float,
                 traced: bool) -> Result:
    """Analyse each trace in a fresh ``droidracer analyze --json`` process.

    The traces are analysed in ``round(seconds / pass_s)`` whole passes
    (at least one), ``pass_s`` being about how long one pass takes.  The
    set-up launches are spread evenly between the analyses, so that they
    sample the same stretch of time as the rest of the run.
    """
    from inputs import MINIMAL_KEY, Inputs

    result = Result()
    inputs = Inputs(work)
    paths = inputs.make(keys)
    [minimal] = inputs.make([MINIMAL_KEY])
    env = child_env(work)
    analyze = [sys.executable, "-m", "repro.cli", "analyze", "--json"]

    def checked(key: str, path: str, code: int) -> bool:
        if code != 0:
            return False
        with open(path + ".report.json", "r", encoding="utf-8") as handle:
            return inputs.checked(key, handle.read())

    passes = max(1, round(seconds / pass_s))
    if traced:
        walls = probe_layers(result, list(zip(keys, paths)) * passes, work,
                             inputs.checked, passes=passes)
        result.add("traced.analyze_s", sum(walls) / passes, "s", len(walls))
        return result

    runs = len(keys) * passes
    setups, walls, rss = [], [], 0.0
    for index in range(runs):
        for _ in range(SETUP_LAUNCHES * (index + 1) // runs - SETUP_LAUNCHES * index // runs):
            wall, code, _ = run_timed(analyze + [minimal], work, env, minimal + ".report.json")
            setups.append(wall)
            result.op(checked(MINIMAL_KEY, minimal, code))
        key, path = keys[index % len(keys)], paths[index % len(paths)]
        wall, code, mb = run_timed(analyze + [path], work, env, path + ".report.json")
        result.op(checked(key, path, code))
        walls.append(wall)
        rss = max(rss, mb)
    result.add("setup_s", median(setups), "s", len(setups))
    result.add("analyze_s", sum(walls) / passes, "s", len(walls))
    result.add("verdict_gmean_s", gmean(walls), "s", len(walls))
    result.add("peak_rss_mb", rss, "MB", len(walls))
    result.notes.append("%d pass(es) over %d traces, %d ops"
                        % (passes, len(keys), sum(inputs.ops[key] for key in keys)))
    return result


def paper_apps(work: str, seed: int, seconds: float, traced: bool) -> Result:
    from inputs import paper_keys

    return cli_workload(paper_keys(seed), work, seconds, 30.0, traced)


def closure_ladder(work: str, seed: int, seconds: float, traced: bool) -> Result:
    from inputs import ladder_keys

    return cli_workload(ladder_keys(seed), work, seconds, 15.0, traced)


def served_fleet(work: str, seed: int, seconds: float, traced: bool) -> Result:
    import fleet

    return fleet.run(work, seed, seconds, traced, probe_layers)


WORKLOADS = {
    "paper-apps": paper_apps,
    "closure-ladder": closure_ladder,
    "served-fleet": served_fleet,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The build: byte-compile the sources once per checkout, so no run
    # pays (or times) first-import compilation.
    if not compileall.compile_dir(SRC, quiet=1):
        print("perfbench: sources do not compile", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=scratch)
    try:
        result = WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    measured = dict(result.metrics)
    for name, unit in END_TO_END + PER_LAYER:
        # A layer the workload does not run did no work and took no time;
        # a run stopped by a failure reads 0 for what it did not reach.
        result.metrics.setdefault(name, (0.0, unit, 0))
    metrics = {}
    for name, unit in wanted:
        value, unit, samples = result.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print("%-22s %14.6f %-6s n=%d" % (name, value, unit, samples))
    for name, (value, unit, samples) in sorted(measured.items()):
        if name not in metrics:
            print("  also %-17s %14.6f %-6s n=%d" % (name, value, unit, samples))
    for note in result.notes:
        print(note)
    print("operations: %d attempted, %d failed" % (result.attempted, result.failed))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
