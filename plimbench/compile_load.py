"""The ``table1`` and ``translate`` workloads: the compiler run in-process.

``table1`` is the paper's full pipeline cold (Algorithm 1 rewriting,
worklist engine, effort 4, ``size`` objective, then Algorithm 2) over
the 18 registry circuits at ``default`` scale; rewriting dominates it.
``translate`` is Algorithm 2 alone (``rewrite=False``) plus a machine run
over the same circuits and scale; it never rewrites, so an Algorithm 1
change must not move it.

One pass sends every circuit's ``.mig`` text, in a seeded order, through
``read_mig`` -> compile -> ``verify_program`` (-> ``measure_program`` on
``translate``).  A run repeats passes until ``--seconds`` have elapsed.
"""

from __future__ import annotations

import io
import random
import statistics
import time

from repro import CompilerOptions, PlimCompiler, compile_mig, rewrite_for_plim
from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.cost import measure_program
from repro.mig.io_mig import read_mig, write_mig
from repro.plim.program import Program
from repro.plim.verify import verify_program

from common import (
    CALIBRATION_REFERENCE_S, Tracer, box_speed, corrupt_program_text, percentile,
    quartiles,
)

# translate runs at default scale too: at paper scale (233,869 gates, 190 MiB)
# its ten-run spreads reached 0.2-0.3 on a box whose memory-bound speed
# drifts more than the calibration loop sees
SCALES = {"table1": "default", "translate": "default"}
TABLE1_OPTIONS = {"effort": 4, "engine": "worklist", "objective": "size"}
# the counts a program must repeat exactly in every pass and every run
EXACT = ("gates_out", "instructions", "rrams", "max_writes")


def build_texts(scale: str) -> dict[str, str]:
    """Generate every registry circuit and serialize it to ``.mig`` text."""
    texts = {}
    for name in BENCHMARK_NAMES:
        buf = io.StringIO()
        write_mig(build(name, scale), buf)
        texts[name] = buf.getvalue()
    return texts


def _table1_compile(mig, name, tracer, option_sets):
    if not tracer.enabled:
        result = compile_mig(mig, **TABLE1_OPTIONS)
        return result.compiled_mig, result.program, {
            "schedule_seconds": result.schedule_seconds,
            "translate_seconds": result.translate_seconds,
        }
    ropts, copts = option_sets
    with tracer.span("core.rewriting", name):
        compiled = rewrite_for_plim(mig, ropts)
    compiler = PlimCompiler(copts)
    with tracer.span("core.compiler", name):
        program = compiler.compile(compiled)
    return compiled, program, compiler.last_timings


def _translate_compile(mig, name, tracer, option_sets):
    compiler = PlimCompiler(CompilerOptions())
    with tracer.span("core.compiler", name):
        program = compiler.compile(mig)
    return mig, program, compiler.last_timings


def _measure(program, pi_names, name, tracer, seed):
    with tracer.span("plim.machine", name):
        _, wear = measure_program(program, pi_names, input_seed=seed)
    return wear.max_writes


def _one_circuit(workload, name, text, tracer, option_sets, seed, corrupt):
    """Run one circuit through the workload's pipeline; returns its row."""
    start = time.perf_counter()
    with tracer.span("circuit", name):
        with tracer.span("mig.io", name):
            mig = read_mig(io.StringIO(text))
        if tracer.enabled:
            with tracer.span("mig.graph", name):
                mig.fingerprint()
        compile_step = _table1_compile if workload == "table1" else _translate_compile
        compiled, program, timings = compile_step(mig, name, tracer, option_sets)
        if corrupt:
            program = Program.from_text(corrupt_program_text(program.to_text()))
        with tracer.span("plim.verify", name):
            verdict = verify_program(mig, program, seed=seed)
        max_writes = None
        if workload == "translate":
            max_writes = _measure(program, mig.pi_names(), name, tracer, seed)
    return {
        "circuit": name,
        "seconds": time.perf_counter() - start,
        "gates_in": mig.num_gates,
        "gates_out": compiled.num_gates,
        "instructions": program.num_instructions,
        "rrams": program.num_rrams,
        "max_writes": max_writes,
        "verified": verdict.ok,
        "patterns": verdict.patterns_checked,
        "schedule_s": timings["schedule_seconds"],
        "translate_s": timings["translate_seconds"],
        "program": program,
        "pi_names": mig.pi_names(),
    }


def _run_pass(workload, texts, order, tracer, option_sets, seed, corrupt):
    rows, failures = [], []
    start = time.perf_counter()
    for index, name in enumerate(order):
        try:
            rows.append(
                _one_circuit(
                    workload, name, texts[name], tracer, option_sets, seed,
                    corrupt and index == 0,
                )
            )
        except Exception as error:  # a failed compile is counted, not fatal
            failures.append(f"{name}: {type(error).__name__}: {error}")
    return {"wall": time.perf_counter() - start, "rows": rows, "failures": failures}


def run(workload: str, texts: dict, seed: int, seconds: float, trace: bool,
        limit_ms: float, corrupt: bool = False) -> dict:
    """Measure passes for ``seconds``; return metrics, rows and failures.

    With ``trace`` the run alternates untraced and traced passes (at
    least one of each), so the per-layer numbers and the tracing
    overhead come from the same process and the same inputs.
    """
    rng = random.Random(seed)
    names = sorted(texts)
    option_sets = None
    if workload == "table1":
        # the option sets compile_mig itself derives, not a copy of its logic
        probe = compile_mig(read_mig(io.StringIO(texts["ctrl"])), **TABLE1_OPTIONS)
        option_sets = (probe.rewrite_options, probe.compiler_options)
    plain, traced = [], []
    tracers = []
    start = time.perf_counter()

    def more() -> bool:
        if not plain or (trace and not traced):
            return True
        # start another pass only if at least half of it fits the window
        elapsed = time.perf_counter() - start
        return elapsed + 0.5 * elapsed / (len(plain) + len(traced)) < seconds

    speed = box_speed()
    while more():
        order = names[:]
        rng.shuffle(order)
        use_trace = trace and len(traced) < len(plain)
        tracer = Tracer(use_trace)
        result = _run_pass(workload, texts, order, tracer, option_sets, seed,
                           corrupt and not plain and not traced)
        # scale the pass to the reference box speed, measured around it
        after = box_speed()
        result["scale"] = CALIBRATION_REFERENCE_S / ((speed + after) / 2)
        result["speed"] = speed = after
        if plain or traced:
            for row in result["rows"]:  # only the first pass's programs are kept
                del row["program"], row["pi_names"]
        if use_trace:
            result["tracer"] = tracer
            traced.append(result)
            tracers.append(tracer)
        else:
            plain.append(result)
    passes = plain + traced

    failures = [f for p in passes for f in p["failures"]]
    failures += [
        f"{row['circuit']}: program disagrees with its MIG"
        for p in passes for row in p["rows"] if not row["verified"]
    ]
    first = {row["circuit"]: row for row in passes[0]["rows"]}
    machine_tracer = Tracer(trace)
    if workload == "table1":
        # the machine is not part of the table1 pipeline; its wear is a
        # property of the program, taken once outside the timed passes
        for name, row in sorted(first.items()):
            row["max_writes"] = _measure(
                row["program"], row["pi_names"], name, machine_tracer, seed
            )
        for p in passes[1:]:
            for row in p["rows"]:
                row["max_writes"] = first[row["circuit"]]["max_writes"]
    for p in passes:
        for row in p["rows"]:
            ref = first.get(row["circuit"])
            if ref is not None and any(row[k] != ref[k] for k in EXACT):
                failures.append(f"{row['circuit']}: counts differ between passes")

    complete = [p for p in plain if not p["failures"]] or plain
    walls = [p["wall"] for p in complete]
    gates_in = sum(row["gates_in"] for row in complete[0]["rows"])
    per_pass = [gates_in / (p["wall"] * p["scale"]) for p in complete]
    q1, med, q3 = quartiles(per_pass)
    rows = _circuit_rows(plain, traced)
    # one circuit through the pipeline is one request of a compile user;
    # its latency is its median over the passes, so the percentiles are
    # taken over the 18 circuits
    latencies = [row["scaled_seconds"] * 1000.0 for row in rows]
    good = sum(
        1 for p in plain for row in p["rows"]
        if row["verified"] and row["seconds"] * p["scale"] * 1000.0 <= limit_ms
    )
    summary = {
        "passes": len(plain),
        "pass_wall_s": quartiles(walls),
        "box_speed_s": quartiles(p["speed"] for p in passes),
        "compile_gates_per_s": {"median": med, "q1": q1, "q3": q3},
        "unscaled_compile_gates_per_s": statistics.median(gates_in / w for w in walls),
    }
    rows0 = list(first.values())
    metrics = {
        "compile_gates_per_s": statistics.median(per_pass),
        "instructions": sum(r["instructions"] for r in rows0),
        "rrams": sum(r["rrams"] for r in rows0),
        "gates_out": sum(r["gates_out"] for r in rows0),
        "max_writes": max(r["max_writes"] for r in rows0),
        "serve_p50_ms": percentile(latencies, 50),
        "serve_p99_ms": percentile(latencies, 99),
        "serve_goodput_rps": good / sum(p["wall"] * p["scale"] for p in plain),
    }
    attempted = sum(len(p["rows"]) + len(p["failures"]) for p in passes)
    layers = None
    if trace:
        layers = _layer_metrics(workload, traced, plain, machine_tracer)
        summary["trace_overhead_s"] = layers.pop("trace_overhead_s")
        tracers.append(machine_tracer)
    return {
        "metrics": metrics,
        "layers": layers,
        "summary": summary,
        "rows": rows,
        "attempted": attempted,
        "failures": failures,
        "spans": [s for t in tracers for s in t.spans],
    }


def _layer_metrics(workload, traced, plain, machine_tracer) -> dict:
    """Per-layer seconds per traced pass (median over traced passes)."""

    def per_pass(fn):
        return statistics.median(fn(p) for p in traced)

    def total(p, name):
        return p["tracer"].total(name)

    read_s = per_pass(lambda p: total(p, "mig.io"))
    compile_s = per_pass(lambda p: total(p, "core.compiler"))
    gates_in = sum(r["gates_in"] for r in traced[0]["rows"])
    gates_out = sum(r["gates_out"] for r in traced[0]["rows"])
    instructions = sum(r["instructions"] for r in traced[0]["rows"])
    if workload == "table1":
        machine_s = machine_tracer.total("plim.machine")
    else:
        machine_s = per_pass(lambda p: total(p, "plim.machine"))
    # the traced pass also pays one fingerprint per circuit that the
    # untraced pass does not make; leave it out of the overhead
    traced_wall = per_pass(lambda p: p["wall"] - total(p, "mig.graph"))
    plain_wall = statistics.median(p["wall"] for p in plain)
    return {
        "mig.io.read_s": read_s,
        "mig.io.gates_per_s": gates_in / read_s,
        "mig.graph.fingerprint_s": per_pass(lambda p: total(p, "mig.graph")),
        "core.rewriting.rewrite_s": per_pass(lambda p: total(p, "core.rewriting")),
        "core.rewriting.reduction_ratio": (gates_in - gates_out) / gates_in,
        "core.compiler.compile_s": compile_s,
        "core.compiler.instructions_per_s": instructions / compile_s,
        "core.compiler.schedule_s": per_pass(
            lambda p: sum(r["schedule_s"] for r in p["rows"])),
        "core.compiler.translate_s": per_pass(
            lambda p: sum(r["translate_s"] for r in p["rows"])),
        "plim.verify.verify_s": per_pass(lambda p: total(p, "plim.verify")),
        "plim.verify.patterns": sum(r["patterns"] for r in traced[0]["rows"]),
        "plim.machine.run_s": machine_s,
        "plim.machine.minstr_per_s": instructions / machine_s / 1e6,
        "trace_overhead_s": traced_wall - plain_wall,
    }


def _circuit_rows(plain, traced) -> list[dict]:
    """One row per circuit: median seconds, counts, and traced layer seconds."""
    by_name: dict[str, dict] = {}
    for p in plain:
        for row in p["rows"]:
            entry = by_name.setdefault(
                row["circuit"], {"seconds": [], "scaled_seconds": []}
            )
            entry["seconds"].append(row["seconds"])
            entry["scaled_seconds"].append(row["seconds"] * p["scale"])
            for key in ("gates_in", *EXACT):
                entry[key] = row[key]
    for p in traced:
        for span in p["tracer"].spans:
            entry = by_name.get(span["id"])
            if entry is not None and span["name"] != "circuit":
                layer = entry.setdefault("layers", {}).setdefault(span["name"], [])
                layer.append(span["end"] - span["start"])
    rows = []
    for name in sorted(by_name):
        entry = by_name[name]
        entry["seconds"] = statistics.median(entry["seconds"])
        entry["scaled_seconds"] = statistics.median(entry["scaled_seconds"])
        if "layers" in entry:
            entry["layers"] = {
                layer: statistics.median(v) for layer, v in entry["layers"].items()
            }
        rows.append({"circuit": name, **entry})
    return rows
