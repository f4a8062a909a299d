"""The ``serve`` workload: open-loop HTTP traffic against ``plimc serve``.

One load-generator process (this one) sends seeded Poisson arrivals at a
fixed offered rate to a ``plimc serve`` subprocess on localhost, with at
most ``nproc`` connections open at once.  A key is a registry circuit x
scale x option set; each key is requested its Zipf-like share of the
run, at least once, in a seeded order.  The first sighting of a key
compiles and writes the cache, repeats read it, and near-simultaneous
repeats join the running compile through dedup.  Every run asks for the
same work; the seed decides only when each request comes.

Before the window, every ``default``-scale key is compiled once, so
inside it those keys are cache hits and only the ``ci``-scale keys start
cold.  A request that arrives while the server compiles takes 10-30x
its idle time (the compile thread holds the GIL), and the default-scale
compiles (up to 1.5 s each, a quarter to a third of the window) put the
median on that cliff; the ci-scale compiles keep cache writes beside
cache reads inside the window at a few milliseconds each.

Latency is timed from when a request was *due*, so a stall also counts
against the requests queued behind it.  After the window, every 200
response is checked: each key's first response has its program parsed
and verified against the source MIG, and every other response for the
key must equal it except for ``cached`` and the timing fields.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import queue
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.cost import measure_program
from repro.mig.io_mig import read_mig, write_mig
from repro.plim.program import Program
from repro.plim.verify import verify_program
from repro.serve.protocol import canonical_json

from common import ROOT, Tracer, child_env, corrupt_program_text, peak_rss_mb, percentile

SCALES = ("ci", "default")
OPTION_SETS = (
    {"effort": 1, "objective": "depth"},
    {"effort": 2, "objective": "depth"},
    {"rewrite": False},
)
ZIPF_EXPONENT = 1.6
CONNECTIONS = os.cpu_count() or 1
WORKERS = 2
# keys of these scales are compiled before the timed window (see above)
WARM_SCALES = ("default",)
# the reference round trip (see EchoReference): its median on the 2-CPU
# box the benchmark was tuned on, and how often it is timed in the window
REFERENCE_RTT_MS = 3.5
REFERENCE_RATE = 10.0
TIMING_FIELDS = (
    "rewrite_seconds", "schedule_seconds", "translate_seconds", "verify_seconds",
)


def build_payloads(scales=SCALES) -> dict:
    """Every key's request body, source text and input gate count."""
    payloads = {}
    for scale in scales:
        for name in BENCHMARK_NAMES:
            mig = build(name, scale)
            buf = io.StringIO()
            write_mig(mig, buf)
            text = buf.getvalue()
            for index, options in enumerate(OPTION_SETS):
                body = canonical_json(
                    {"circuit": text, "format": "mig", "options": options}
                )
                payloads[f"{name}@{scale}#{index}"] = {
                    "scale": scale,
                    "text": text,
                    "body": body,
                    "gates_in": mig.num_gates,
                }
    return payloads


def make_schedule(keys: dict, seed: int, seconds: float, rate: float,
                  warmed=frozenset()) -> list:
    """Seeded Poisson arrivals, each with a key of Zipf-like popularity.

    The run carries ``rate * seconds`` requests: Poisson arrival times
    conditioned on that count are uniform order statistics over the
    window.  Each key is requested its expected Zipf share of that count
    in a seeded order, so every run asks for the same work and the seed
    decides only when each request comes.  A key is requested at least
    once, so that it is compiled and checked, unless it is in ``warmed``:
    the warm-up has already done that.
    """
    rng = random.Random(seed)
    total = round(rate * seconds)
    # popularity is a property of the workload, not of the run: smaller
    # circuits are resubmitted more often, so the hot keys exercise the
    # serving layers and the large ones form the tail
    ranked = sorted(keys, key=lambda k: (len(keys[k]["body"]), k))
    floors = [0 if key in warmed else 1 for key in ranked]
    if total < sum(floors):
        raise ValueError(f"{total} requests cannot cover {sum(floors)} keys")
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    scale = (total - sum(floors)) / sum(weights)
    shares = [floor + w * scale for floor, w in zip(floors, weights)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(ranked)), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    picks = [key for key, count in zip(ranked, counts) for _ in range(count)]
    rng.shuffle(picks)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(total))
    return list(zip(offsets, picks))


class Server:
    """A ``plimc serve`` subprocess on an ephemeral localhost port."""

    def __init__(self):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr: list[str] = []
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(lines,), daemon=True
        )
        self._reader.start()
        try:
            self.port = self._await_port(lines)
            self.ready_s = self._await_health()
        except BaseException:
            self.stop()
            raise

    def _drain(self, lines: queue.Queue) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            lines.put(line)
        lines.put(None)

    def _await_port(self, lines: queue.Queue) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=deadline - time.monotonic())
            except queue.Empty:
                break
            if line is None:
                break
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError("plimc serve did not start: " + "".join(self.stderr))

    def _await_health(self) -> float:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")["status"] == "ok":
                    return time.perf_counter() - self.started
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("plimc serve never answered /healthz")

    def get(self, path: str) -> dict:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode


async def _post(port: int, body: bytes) -> tuple:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /compile HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Connection: close\r\n\r\n"
            + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, payload


async def _request(slots, port: int, key: str, body: bytes, due: float,
                   spawned: float) -> dict:
    """One POST /compile over at most ``CONNECTIONS`` open connections."""
    async with slots:
        sent = time.perf_counter()
        try:
            status, payload = await _post(port, body)
            error = None
        except OSError as exc:
            status, payload, error = 0, b"", f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
    return {
        "key": key, "due": due, "spawned": spawned, "sent": sent,
        "done": done, "status": status, "body": payload, "error": error,
    }


async def _warm(keys, payloads, port: int) -> list:
    """Request each key once, as fast as the connections allow."""
    slots = asyncio.Semaphore(CONNECTIONS)
    now = time.perf_counter()
    results = await asyncio.gather(
        *(_request(slots, port, key, payloads[key]["body"], now, now) for key in keys)
    )
    for r in results:
        r["warm"] = True
    return list(results)


# one byte in, about a millisecond of Python work, the byte back out
ECHO_SOURCE = """
import socket, sys
peer = socket.socket(fileno=int(sys.argv[1]))
while True:
    data = peer.recv(64)
    if not data:
        break
    total = 0
    for i in range(20000):
        total += i
    peer.sendall(data)
"""


class EchoReference:
    """A round trip that involves no program code, timed inside the window.

    The box is a share of a busy host: from one run to the next, the
    process wake-ups and short bursts of Python work that make up a
    cache hit's latency slow down together by 10-30%.  An echo
    subprocess over a socket pair pays the same kind of cost: a wake-up
    on each side and a millisecond of Python work.  Timed at seeded
    Poisson moments through the window, its median tells how slow the
    box was for this run, and ``serve_p50_ms`` is scaled by
    ``REFERENCE_RTT_MS`` over it (the unscaled value is in ``summary``).
    A loop timed around the window, as the compile workloads use, did
    not track the latency at all.
    """

    def __init__(self):
        self.sock, child = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", ECHO_SOURCE, str(child.fileno())],
                pass_fds=(child.fileno(),),
                stdin=subprocess.DEVNULL,
            )
        except BaseException:
            self.sock.close()
            raise
        finally:
            child.close()
        self.sock.setblocking(False)

    async def ping(self) -> float:
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        await loop.sock_sendall(self.sock, b"x")
        if await loop.sock_recv(self.sock, 64) != b"x":
            raise RuntimeError("the echo reference answered wrongly")
        return time.perf_counter() - start

    def stop(self) -> None:
        """Close the socket (the echo loop then ends) and wait for it."""
        self.sock.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


async def _probe(reference: EchoReference, seed: int, seconds: float) -> list:
    rng = random.Random(seed)
    rtts = []
    end = time.perf_counter() + seconds
    while True:
        await asyncio.sleep(rng.expovariate(REFERENCE_RATE))
        rtts.append(await reference.ping())
        if time.perf_counter() >= end:
            return rtts


async def _generate(schedule, payloads, port: int, reference: EchoReference,
                    seed: int, seconds: float) -> tuple:
    """Send each request when due (never blocked by busy connections).

    Returns the results and the reference round trips timed meanwhile.
    """
    slots = asyncio.Semaphore(CONNECTIONS)
    results: list = [None] * len(schedule)
    probe = asyncio.create_task(_probe(reference, seed, seconds))

    async def one(index: int, key: str, due: float, spawned: float) -> None:
        results[index] = await _request(
            slots, port, key, payloads[key]["body"], due, spawned
        )

    tasks = []
    start = time.perf_counter() + 0.05
    for index, (offset, key) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, key, due, time.perf_counter())))
    await asyncio.gather(*tasks)
    return results, await probe


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "cached" and k not in TIMING_FIELDS}


def run(payloads: dict, server: Server, seed: int, seconds: float, rate: float,
        trace: bool, limit_ms: float, corrupt: bool = False) -> dict:
    warm_keys = [k for k in sorted(payloads) if payloads[k]["scale"] in WARM_SCALES]
    schedule = make_schedule(payloads, seed, seconds, rate, frozenset(warm_keys))
    warm_start = time.perf_counter()
    warmed = asyncio.run(_warm(warm_keys, payloads, server.port))
    warm_s = time.perf_counter() - warm_start
    reference = EchoReference()
    try:
        cpu_before = server.cpu_seconds()
        results, rtts = asyncio.run(
            _generate(schedule, payloads, server.port, reference, seed, seconds)
        )
        busy = (server.cpu_seconds() - cpu_before) / seconds
    finally:
        reference.stop()
    reference_ms = statistics.median(rtts) * 1000.0
    stats = server.get("/stats")
    cache_stats = server.get("/cache/stats")
    server_rss = peak_rss_mb(str(server.proc.pid))
    exit_code = server.stop()

    tracer = Tracer(trace)
    record_start = time.perf_counter()
    for index, r in enumerate(results):
        tracer.add("serve", f"request-{index}:{r['key']}", r["due"], r["done"])
    record_s = time.perf_counter() - record_start

    failures = []
    if exit_code != 0:
        failures.append(f"plimc serve exited {exit_code} after SIGTERM")
    by_key: dict[str, list] = {}
    for r in warmed + results:
        if r["status"] != 200:
            failures.append(
                f"{r['key']}: status {r['status']} {r['error'] or r['body'][:200]!r}"
            )
            continue
        r["record"] = json.loads(r["body"])
        by_key.setdefault(r["key"], []).append(r)

    classes = {"hit": [], "miss": [], "dedup": [], "warmup": []}
    refs = {}
    for key, group in by_key.items():
        group.sort(key=lambda r: r["sent"])
        fresh = [r for r in group if not r["record"]["cached"]]
        leader = fresh[0] if fresh else group[0]
        refs[key] = leader
        for r in group:
            if r.get("warm"):
                r["class"] = "warmup"
            elif r["record"]["cached"]:
                r["class"] = "hit"
            else:
                r["class"] = "miss" if r is leader else "dedup"
            classes[r["class"]].append(r)
            if r is not leader and _strip(r["record"]) != _strip(leader["record"]):
                failures.append(f"{key}: a replay differs from the first response")

    checks = _check_programs(payloads, refs, tracer, seed, corrupt)
    failures += checks["failures"]

    latencies = [(r["done"] - r["due"]) * 1000.0 for r in results]
    good = sum(
        1 for r, ms in zip(results, latencies) if r["status"] == 200 and ms <= limit_ms
    )
    answered_gates = sum(payloads[r["key"]]["gates_in"] for r in results if r["status"] == 200)
    # from the first request due to the last answer: a backlog stretches it
    span_s = max(r["done"] for r in results) - results[0]["due"]
    metrics = {
        "compile_gates_per_s": answered_gates / span_s,
        "instructions": checks["instructions"],
        "rrams": checks["rrams"],
        "gates_out": checks["gates_out"],
        "max_writes": checks["max_writes"],
        "serve_p50_ms": percentile(latencies, 50) * REFERENCE_RTT_MS / reference_ms,
        "serve_p99_ms": percentile(latencies, 99),
        "serve_goodput_rps": good / seconds,
        "peak_rss_mb": server_rss,
    }

    def ms(group):
        return [(r["done"] - r["due"]) * 1000.0 for r in group]

    misses = classes["miss"]
    # every compile the server ran, before and inside the window
    producers = misses + classes["warmup"]
    waits = [
        (r["done"] - r["due"]) * 1000.0
        - 1000.0 * sum(r["record"][f] for f in TIMING_FIELDS)
        for r in misses
    ]
    counters = stats["counters"]
    requests_per_text = Counter(
        payloads[r["key"]]["text"] for r in results if r["status"] == 200
    )
    n = len(results)
    answered = sum(requests_per_text.values()) or 1
    layers = {
        "mig.io.read_s": sum(
            checks["read_s"][t] * c for t, c in requests_per_text.items()) / answered,
        "mig.io.gates_per_s": checks["read_gates"] / sum(checks["read_s"].values()),
        "mig.graph.fingerprint_s": sum(
            checks["fingerprint_s"][t] * c for t, c in requests_per_text.items()) / answered,
        "core.rewriting.rewrite_s": sum(
            r["record"]["rewrite_seconds"] for r in producers),
        "core.rewriting.reduction_ratio": checks["reduction_ratio"],
        "core.compiler.compile_s": sum(
            r["record"]["schedule_seconds"] + r["record"]["translate_seconds"]
            for r in producers),
        "core.compiler.schedule_s": sum(
            r["record"]["schedule_seconds"] for r in producers),
        "core.compiler.translate_s": sum(
            r["record"]["translate_seconds"] for r in producers),
        "plim.verify.verify_s": checks["verify_s"],
        "plim.verify.patterns": checks["patterns"],
        "plim.machine.run_s": checks["machine_s"],
        "plim.machine.minstr_per_s": checks["instructions"] / checks["machine_s"] / 1e6,
        "core.cache.hit_ratio": cache_stats["counters"]["hit_rate"],
        "core.cache.entries": cache_stats["memory"]["entries"],
        "core.cache.bytes": cache_stats["memory"]["bytes"],
        "serve.hit_p50_ms": percentile(ms(classes["hit"]), 50) if classes["hit"] else 0.0,
        "serve.miss_p50_ms": percentile(ms(misses), 50) if misses else 0.0,
        "serve.miss_p99_ms": percentile(ms(misses), 99) if misses else 0.0,
        "serve.wait_ms": statistics.median(waits) if waits else 0.0,
        "serve.compiles": counters["compiles"],
        "serve.dedup_collapsed": counters["collapsed"],
        "serve.shed": counters["shed"],
        "serve.generator_lag_ms": percentile(
            [(r["spawned"] - r["due"]) * 1000.0 for r in results], 99),
    }
    layers["core.compiler.instructions_per_s"] = (
        checks["instructions"] / layers["core.compiler.compile_s"]
    )
    share = {c: len(g) / n for c, g in classes.items() if c != "warmup"}
    summary = {
        "requests": n,
        "offered_rps": rate,
        "server_busy": busy,
        "serve_p50_ms_unscaled": percentile(latencies, 50),
        "reference_rtt_ms": reference_ms,
        "reference_pings": len(rtts),
        "keys": len(refs),
        "warmup_keys": len(warmed),
        "warmup_s": warm_s,
        "hit_share": share["hit"],
        "dedup_share": share["dedup"],
        "miss_share": share["miss"],
        "p99_samples_beyond": sum(1 for ms_ in latencies if ms_ > metrics["serve_p99_ms"]),
        # where the median sits: a stall behind a compile shows as a jump
        "latency_deciles_ms": statistics.quantiles(latencies, n=10),
        "trace_overhead_s": record_s if trace else None,
    }
    rows = [
        {
            "class": c,
            "requests": len(g),
            "p50_ms": percentile(ms(g), 50) if g else None,
            "p99_ms": percentile(ms(g), 99) if g else None,
        }
        for c, g in classes.items()
    ]
    return {
        "metrics": metrics,
        "layers": layers if trace else None,
        "summary": summary,
        "rows": rows,
        "attempted": n + len(warmed),
        "failures": failures,
        "spans": tracer.spans,
    }


def _check_programs(payloads, refs, tracer, seed, corrupt) -> dict:
    """Verify each key's program against its source MIG; total the counts."""
    out = {
        "failures": [], "instructions": 0, "rrams": 0, "gates_out": 0,
        "max_writes": 0, "verify_s": 0.0, "patterns": 0, "machine_s": 0.0,
        "read_s": {}, "fingerprint_s": {}, "read_gates": 0,
    }
    sources = {}
    gates_in = 0
    for index, key in enumerate(sorted(refs)):
        record = refs[key]["record"]
        text = payloads[key]["text"]
        if text not in sources:
            start = time.perf_counter()
            with tracer.span("mig.io", key):
                mig = read_mig(io.StringIO(text))
            mid = time.perf_counter()
            with tracer.span("mig.graph", key):
                mig.fingerprint()
            out["read_s"][text] = mid - start
            out["fingerprint_s"][text] = time.perf_counter() - mid
            out["read_gates"] += mig.num_gates
            sources[text] = mig
        mig = sources[text]
        program_text = record["program"]
        if corrupt and index == 0:
            program_text = corrupt_program_text(program_text)
        program = Program.from_text(program_text)
        start = time.perf_counter()
        with tracer.span("plim.verify", key):
            verdict = verify_program(mig, program, seed=seed)
        out["verify_s"] += time.perf_counter() - start
        out["patterns"] += verdict.patterns_checked
        if not verdict.ok:
            out["failures"].append(f"{key}: program disagrees with its MIG")
        if (record["num_instructions"], record["num_rrams"]) != (
            program.num_instructions, program.num_rrams
        ):
            out["failures"].append(f"{key}: record counts disagree with its program")
        start = time.perf_counter()
        with tracer.span("plim.machine", key):
            _, wear = measure_program(program, mig.pi_names(), input_seed=seed)
        out["machine_s"] += time.perf_counter() - start
        out["max_writes"] = max(out["max_writes"], wear.max_writes)
        out["instructions"] += program.num_instructions
        out["rrams"] += program.num_rrams
        out["gates_out"] += record["num_gates"]
        gates_in += mig.num_gates
    out["reduction_ratio"] = (gates_in - out["gates_out"]) / gates_in if gates_in else 0.0
    return out
