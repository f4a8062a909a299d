"""Shared pieces of the benchmark: spans, statistics, set-up timing, environment.

Everything here runs in the benchmark's own process and wraps the
program's public functions from outside; nothing in ``src/`` is traced.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# run outputs (span files, server caches); ``build/`` is already ignored by git
OUT_DIR = os.path.join(ROOT, "plimbench", "build")

# the modules a compile or a server process imports before doing any work
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.cli, repro.serve.app, repro.plim.verify, repro.core.cost; "
    "print(time.perf_counter() - t)"
)

SETUP_REPEATS = 5
# seconds the calibration loop takes when the box runs at its usual speed
CALIBRATION_REFERENCE_S = 0.025


class Tracer:
    """In-memory span recorder: (name, start, end, parent, id) per call.

    ``span()`` on a disabled tracer returns a shared null context, so the
    untraced passes run the same code with no recording.
    """

    _NULL = nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, ident: str):
        if not self.enabled:
            return self._NULL
        return _Span(self, name, ident)

    def add(self, name: str, ident: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. one HTTP request)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "id": ident, "start": start, "end": end, "parent": parent}
        )

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class _Span:
    __slots__ = ("tracer", "name", "ident", "index")

    def __init__(self, tracer: Tracer, name: str, ident: str):
        self.tracer, self.name, self.ident = tracer, name, ident

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(
            {
                "name": self.name,
                "id": self.ident,
                "start": time.perf_counter(),
                "end": None,
                "parent": tracer._stack[-1] if tracer._stack else None,
            }
        )
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _calibration_loop() -> int:
    """A fixed pure-Python workload (dict and tuple traffic), no program code."""
    acc = 0
    table: dict = {}
    for i in range(60000):
        key = ((i * 7919) % 10007, i & 255)
        table[key] = table.get(key, 0) + 1
        acc ^= hash(key)
    return acc


def box_speed() -> float:
    """Seconds the calibration loop takes now (best of three).

    The box's speed drifts by up to 40% over tens of seconds, the same
    for every pass of a run but not between runs; timings scaled by
    ``CALIBRATION_REFERENCE_S / box_speed()`` compare across runs.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (exclusive method) of at least one value."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def time_import() -> float:
    """Seconds a fresh interpreter spends importing the package."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip())


def timed_setups(build, extra=None) -> tuple[object, dict]:
    """Set up ``SETUP_REPEATS`` times; keep the first build's inputs.

    Each repeat times a fresh-interpreter import, ``build()`` (circuit
    generation plus serialization) and, when given, ``extra()`` (e.g.
    spawning a server until it answers).  Returns the first build's
    value, the median of the parts' sum scaled to the reference box
    speed (``setup_s``), and the raw median of each part.
    """
    imports, builds, extras, totals = [], [], [], []
    inputs = None
    speed = box_speed()
    for _ in range(SETUP_REPEATS):
        import_s = time_import()
        start = time.perf_counter()
        value = build()
        build_s = time.perf_counter() - start
        extra_s = extra() if extra is not None else 0.0
        if inputs is None:
            inputs = value
        imports.append(import_s)
        builds.append(build_s)
        extras.append(extra_s)
        # the total is scaled to the reference box speed, measured around it
        after = box_speed()
        scale = CALIBRATION_REFERENCE_S / ((speed + after) / 2)
        speed = after
        totals.append((import_s + build_s + extra_s) * scale)
    return inputs, {
        "setup_s": statistics.median(totals),
        "setup.import_s": statistics.median(imports),
        "setup.build_s": statistics.median(builds),
        "setup.server_ready_s": statistics.median(extras),
    }


def environment() -> dict:
    """The environment stamp printed with every result."""
    try:
        import numpy  # noqa: F401  (only its presence matters)

        has_numpy = True
    except ImportError:
        has_numpy = False
    try:
        # the ceiling stops git from reporting an enclosing repository's
        # commit when the checkout itself is not a git repository
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": has_numpy,
        "git_sha": sha,
        "loadavg_1m": round(load1, 2),
        # a box already running about half its CPUs' worth of work before
        # the benchmark starts inflates every timing in this run
        "loaded": load1 > 0.5 * nproc,
    }


def corrupt_program_text(text: str) -> str:
    """Flip one RM3 operand: the last constant operand of the program.

    The last instructions write the outputs, so the flip turns an AND
    into an OR (or a load of 0 into a load of 1) that a verifier sees.
    Used by the self-test to prove the benchmark catches wrong programs.
    """
    lines = text.splitlines()
    for index in range(len(lines) - 1, -1, -1):
        code, sep, comment = lines[index].partition(";")
        parts = code.split()
        if len(parts) != 3 or not parts[2].startswith("@"):
            continue
        for slot in (1, 0):
            if parts[slot] in ("0", "1"):
                parts[slot] = "1" if parts[slot] == "0" else "0"
                lines[index] = " ".join(parts) + (" " + sep + comment if sep else "")
                return "\n".join(lines) + "\n"
    raise ValueError("program has no constant operand to flip")
