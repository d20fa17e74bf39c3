"""The served-fleet workload: ``droidracer serve`` driven over HTTP.

A single-process load generator holds two connections (the host has two
cores): one for requests, one tailing ``/v1/stream``.  Verdicts are timed
from the stream's completion event, not by polling.

1. The server is booted on a fresh store, with ``--jobs`` pinned.  A boot
   is timed from spawn to the first 200 from ``/healthz``.
2. Warm-up: a few uploads run to completion, so the worker pool exists
   and there are analysed traces to resubmit and read.
3. ``SEGMENTS`` times in turn: a second server is booted on a fresh store,
   timed and stopped; a batch of traces is uploaded in one request and
   timed until its last verdict (the drain); then an open loop runs for
   ``--seconds / SEGMENTS``: Poisson arrivals at a fixed rate mix new
   uploads (analysed by the worker), resubmissions of analysed traces
   (answered from the result cache) and report reads.  Each segment holds
   a fixed number of each kind of request at uniformly drawn times (a
   Poisson process conditioned on its count), so every seed gives the
   tail percentiles the same number of samples.  Each request is
   timed from when it was due, so a stall also delays the requests queued
   behind it; how late the generator sent is reported.  Taking turns lets
   every metric sample the whole run: this host's speed drifts by tens of
   percent over tens of seconds.
4. Every analysed trace's report is read back and checked against the
   pinned answer (untimed).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import Result, child_env, gmean, median, parse_json, wait_rusage
from inputs import Inputs, digest, fleet_keys

#: Worker processes, pinned so the workload does not follow the host.
JOBS = 1
SEGMENTS = 4
WARMUP = 8
BATCH = 60
#: Median worker time per fleet trace (``jobs.run_p50_s`` of a traced
#: run, seed 7, 2-core x86-64 VM, CPython 3.11), from which the rate
#: is set.
MEASURED_RUN_S = 0.062
#: Share of the single worker's time the open loop keeps busy.  At a
#: quarter, queueing adds about a sixth of a job's run time to a verdict
#: (M/D/1), so a verdict mostly measures the program, not the queue; and
#: a program up to twice as slow still leaves the queue stable on two
#: cores shared with the server's ingest and the generator.
TARGET_UTILISATION = 0.25
UPLOAD_RATE = round(TARGET_UTILISATION / MEASURED_RUN_S)  # new traces per second
#: Shares of the open loop's requests.  An assumption, not a measured
#: traffic mix: uploads are the majority so the write path (ingest,
#: journal, worker) carries the load, and the two read kinds are sized
#: so that 120 uploads per run come with 44 cache resubmits and 56
#: report reads, enough for ``cached_p50_ms`` and ``http.report_p50_ms``
#: to have at least ten samples beyond their median.
MIX = (("upload", 0.55), ("resubmit", 0.20), ("read", 0.25))
#: Longest wait for outstanding verdicts before they count as failed.
VERDICT_TIMEOUT = 60.0


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        head = "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n" % (
            method, path, len(body))
        self.writer.write(head.encode("latin-1") + body)
        status, headers = await read_head(self.reader)
        data = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, data

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


async def read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str]]:
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            return status, headers
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()


class Fleet:
    """One run's generator state: due times, verdicts and samples."""

    def __init__(self, port: int, inputs: Inputs, seed: int, result: Result):
        self.port = port
        self.inputs = inputs
        self.rng = random.Random("served-fleet-targets:%d" % seed)
        self.digests = {key: digest(text) for key, text in inputs.texts.items()}
        self.bodies = {key: text.encode("utf-8") for key, text in inputs.texts.items()}
        self.waiting: Dict[str, Tuple[str, float]] = {}  # digest -> (key, due)
        self.verdicts: Dict[str, Tuple[float, dict]] = {}  # key -> (latency, job)
        self.verdict_order: List[str] = []
        self.unread: List[str] = []
        self.arrived = asyncio.Event()
        self.samples: Dict[str, List[float]] = {
            name: [] for name in ("verdict", "cached", "ingest", "report", "late")}
        self.refused = 0
        self.cache_hits = 0
        self.resubmits = 0
        self.result = result

    # -- stream ---------------------------------------------------------------

    async def tail_stream(self, ready: asyncio.Event) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        writer.write(b"GET /v1/stream HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
        try:
            await read_head(reader)
            ready.set()
            while True:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                job = json.loads(line)["job"]
                entry = self.waiting.pop(job["trace_digest"], None)
                if entry is None:
                    continue
                key, due = entry
                self.verdicts[key] = (now - due, job)
                self.verdict_order.append(key)
                if job["state"] == "done":
                    self.unread.append(key)
                self.arrived.set()
        finally:
            writer.close()

    async def wait_verdicts(self, keys: List[str]) -> float:
        """Wait until every key has a verdict; returns the arrival time of
        the last one (``perf_counter`` clock)."""
        deadline = time.perf_counter() + VERDICT_TIMEOUT
        while any(key not in self.verdicts for key in keys):
            self.arrived.clear()
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(self.arrived.wait(), remaining)
            except asyncio.TimeoutError:
                break
        return time.perf_counter()

    # -- operations -------------------------------------------------------------

    async def upload(self, conn: Connection, key: str, due: float) -> None:
        self.waiting[self.digests[key]] = (key, due)
        sent = time.perf_counter()
        status, body = await conn.request("POST", "/v1/traces", self.bodies[key])
        self.samples["ingest"].append(time.perf_counter() - sent)
        if status == 429:
            self.refused += 1
        if status != 202 or parse_json(body).get("trace_digest") != self.digests[key]:
            self.waiting.pop(self.digests[key], None)
            self.verdicts[key] = (0.0, {"state": "refused", "attempts": 0})

    async def resubmit(self, conn: Connection, due: float) -> bool:
        key = self.rng.choice(self.verdict_order)
        status, body = await conn.request("POST", "/v1/traces", self.bodies[key])
        self.resubmits += 1
        if status == 429:
            self.refused += 1
        job = parse_json(body).get("job") if status in (200, 202) else None
        hit = bool(job) and job.get("state") == "done"
        if hit:
            self.cache_hits += 1
            self.samples["cached"].append(time.perf_counter() - due)
        return hit

    async def read(self, conn: Connection, key: str, due: Optional[float]) -> bool:
        status, body = await conn.request("GET", "/v1/reports/%s" % self.digests[key])
        if due is not None:
            self.samples["report"].append(time.perf_counter() - due)
        return status == 200 and self.inputs.checked(key, body)

    # -- phases -----------------------------------------------------------------

    async def open_loop(self, conn: Connection, schedule, pending: List[str]) -> List[str]:
        """Run ``schedule``; new uploads are taken from the front of
        ``pending``.  Returns the keys uploaded."""
        started = time.perf_counter()
        uploaded = []
        for offset, kind in schedule:
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.samples["late"].append(time.perf_counter() - due)
            if kind == "upload":
                key = pending.pop(0)
                uploaded.append(key)
                await self.upload(conn, key, due)
            elif not self.verdict_order:
                self.result.op(False)  # nothing analysed to resubmit or read
            elif kind == "resubmit":
                self.result.op(await self.resubmit(conn, due))
            else:
                key = self.unread.pop(0) if self.unread else self.rng.choice(self.verdict_order)
                self.result.op(await self.read(conn, key, due))
        return uploaded

    async def batch(self, conn: Connection, keys: List[str]) -> float:
        body = json.dumps(
            {"traces": [{"jsonl": self.inputs.texts[key], "name": key} for key in keys]}
        ).encode("utf-8")
        started = time.perf_counter()
        for key in keys:
            self.waiting[self.digests[key]] = (key, started)
        status, reply = await conn.request("POST", "/v1/traces:batch", body)
        items = parse_json(reply).get("items", []) if status in (200, 202) else []
        for key, item in zip(keys, items):
            if item.get("status") != 202:
                self.refused += item.get("status") == 429
                self.waiting.pop(self.digests[key], None)
        return await self.wait_verdicts(keys) - started

    async def verify(self, conn: Connection, keys: List[str]) -> None:
        """Count each analysed trace once: its verdict must be ``done`` and
        its report must give the pinned answer."""
        for key in keys:
            _, job = self.verdicts.get(key, (0.0, {"state": "missing"}))
            ok = job["state"] == "done" and await self.read(conn, key, None)
            self.result.op(ok)


def schedule_for(seed: int, seconds: float) -> List[Tuple[float, str]]:
    """``(offset, kind)`` requests for one open-loop segment: for each
    kind, its expected count at the fixed rate, at uniformly drawn times."""
    rng = random.Random("served-fleet-schedule:%d" % seed)
    rate = UPLOAD_RATE / MIX[0][1]
    out = [(rng.uniform(0.0, seconds), kind)
           for kind, share in MIX
           for _ in range(round(rate * share * seconds))]
    return sorted(out)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def boot(work: str, name: str) -> Tuple[subprocess.Popen, int, float]:
    """Spawn ``droidracer serve`` on a fresh store; returns the process,
    its port and the seconds until ``/healthz`` first answered 200."""
    port = free_port()
    store = os.path.join(work, "store-" + name)
    argv = [sys.executable, "-m", "repro.cli", "serve", "--store", store,
            "--port", str(port), "--jobs", str(JOBS)]
    log = open(os.path.join(work, "serve-%s.log" % name), "wb")
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=child_env(work), stdout=log,
                            stderr=subprocess.STDOUT)
    log.close()
    while True:
        if proc.poll() is not None:
            raise RuntimeError("droidracer serve exited with %s" % proc.returncode)
        if time.perf_counter() - started > 60:
            stop(proc)
            raise RuntimeError("droidracer serve did not answer /healthz in 60 s")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return proc, port, time.perf_counter() - started
        except OSError:
            time.sleep(0.005)
        finally:
            conn.close()


def stop(proc: subprocess.Popen) -> Tuple[int, float]:
    """Stop the server and reap it; returns ``(exit code, peak RSS MB)``
    where the RSS is the largest of the server and its workers."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code, rss_kb = wait_rusage(proc, 30.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        code, rss_kb = wait_rusage(proc, None)
    return code, rss_kb / 1024.0


async def drive(fleet: Fleet, work: str, schedules, warm: List[str],
                uploads: List[str], batches: List[List[str]]):
    """Steps 2-4 of the module docstring.  Returns the set-up samples, the
    drain times and the keys uploaded in the open loop."""
    loop = asyncio.get_running_loop()
    ready = asyncio.Event()
    tail = asyncio.ensure_future(fleet.tail_stream(ready))
    conn = Connection(fleet.port)
    setups, drains, uploaded = [], [], []
    try:
        await asyncio.wait_for(ready.wait(), 30)
        now = time.perf_counter()
        for key in warm:
            await fleet.upload(conn, key, now)
        await fleet.wait_verdicts(warm)
        pending = list(uploads)
        for segment, (schedule, batch) in enumerate(zip(schedules, batches)):
            setups.append(await loop.run_in_executor(None, probe_boot, work, segment))
            drains.append(await fleet.batch(conn, batch))
            keys = await fleet.open_loop(conn, schedule, pending)
            await fleet.wait_verdicts(keys)
            uploaded += keys
        await fleet.verify(conn, warm + uploaded + [k for batch in batches for k in batch])
        return setups, drains, uploaded
    finally:
        conn.close()
        tail.cancel()
        try:
            await tail
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


def probe_boot(work: str, index: int) -> float:
    """Boot a second server on a fresh store, time it and stop it."""
    proc, _, seconds = boot(work, "probe%d" % index)
    stop(proc)
    return seconds


def run(work: str, seed: int, seconds: float, traced: bool, probe) -> Result:
    schedules = [schedule_for(seed * SEGMENTS + n, seconds / SEGMENTS)
                 for n in range(SEGMENTS)]
    n_uploads = sum(1 for schedule in schedules for _, kind in schedule if kind == "upload")
    keys = fleet_keys(seed, WARMUP + BATCH + n_uploads)
    inputs = Inputs(work)
    inputs.make(keys, keep_text=True)
    warm, batch, uploads = keys[:WARMUP], keys[WARMUP:WARMUP + BATCH], keys[WARMUP + BATCH:]
    share = BATCH // SEGMENTS
    batches = [batch[n * share:(n + 1) * share] for n in range(SEGMENTS)]

    result = Result()
    proc = None
    try:
        proc, port, first_boot = boot(work, "main")
        fleet = Fleet(port, inputs, seed, result)
        setups, drains, uploaded = asyncio.run(
            drive(fleet, work, schedules, warm, uploads, batches))
    except (OSError, EOFError, ValueError, RuntimeError, asyncio.TimeoutError) as error:
        result.op(False)
        result.notes.append("served-fleet stopped: %s" % (str(error) or type(error).__name__))
        return result
    finally:
        if proc is not None:
            code, rss = stop(proc)
    result.op(code == 0)

    analysed = [fleet.verdicts[key] for key in uploaded if key in fleet.verdicts]
    jobs = [job for _, job in analysed if job.get("started_at")]
    waits = [job["started_at"] - job["submitted_at"] for job in jobs]
    samples = fleet.samples
    samples["verdict"] = [latency for latency, job in analysed if job["state"] == "done"]
    setups.append(first_boot)
    result.add("setup_s", median(setups), "s", len(setups))
    result.add("analyze_s", sum(drains), "s", BATCH)
    result.add("verdict_gmean_s", gmean(samples["verdict"]), "s", len(samples["verdict"]))
    result.add("peak_rss_mb", rss, "MB", 1)

    result.timing("verdict_p50_s", samples["verdict"], "s")
    result.timing("verdict_p90_s", samples["verdict"], "s", q=0.9)
    result.timing("cached_p50_ms", samples["cached"], "ms", scale=1000.0)
    result.timing("http.ingest_p50_ms", samples["ingest"], "ms", scale=1000.0)
    result.timing("http.report_p50_ms", samples["report"], "ms", scale=1000.0)
    result.timing("jobs.wait_p50_s", waits, "s")
    result.timing("jobs.wait_p90_s", waits, "s", q=0.9)
    result.timing("jobs.run_p50_s", [j["finished_at"] - j["started_at"] for j in jobs], "s")
    result.add("jobs.retried", sum(1 for _, j in analysed if j.get("attempts", 0) > 1),
               "count", len(analysed))
    result.add("http.refused", fleet.refused, "count", result.attempted)
    result.add("cache.hit_share", fleet.cache_hits / max(1, fleet.resubmits), "share",
               fleet.resubmits)
    result.timing("loadgen.late_p50_ms", samples["late"], "ms", scale=1000.0)
    result.timing("loadgen.late_p90_ms", samples["late"], "ms", q=0.9, scale=1000.0)
    result.notes.append("%d drains of %d traces, %d open-loop uploads, %d resubmits"
                        % (SEGMENTS, share, len(uploaded), fleet.resubmits))
    if traced:
        result.add("traced.analyze_s", sum(drains), "s", BATCH)
        probe(result, [(key, inputs.paths[key]) for key in batch], work, inputs.checked,
              in_process=True)
        result.add("store.ingest_s", ingest_seconds(work, inputs, batch), "s", len(batch))
    return result


def ingest_seconds(work: str, inputs: Inputs, keys: List[str]) -> float:
    """Time ``TraceStore.ingest`` of ``keys`` into a fresh store, called
    from outside the server (the served path runs it once per upload)."""
    from repro.core.trace import ExecutionTrace
    from repro.corpus.store import TraceStore

    store = TraceStore(os.path.join(work, "ingest-store"))
    traces = [ExecutionTrace.from_jsonl(inputs.texts[key], name=key) for key in keys]
    started = time.perf_counter()
    for trace in traces:
        store.ingest(trace)
    return time.perf_counter() - started
