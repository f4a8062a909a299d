"""Run one benchmark workload of the MIG->PLiM compiler and print its metrics.

    python3 plimbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads: ``table1`` (Algorithm 1 + 2), ``translate`` (Algorithm 2 +
machine, no rewriting) and ``serve`` (open-loop HTTP traffic against
``plimc serve``); see README.md in this directory.  With
``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer ones from a separate traced run, whose spans
are written to ``plimbench/build/``.  The last line of standard output
is one JSON object; the exit code is nonzero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "compile_gates_per_s": "gates/s",
    "instructions": "count",
    "rrams": "count",
    "gates_out": "count",
    "max_writes": "count",
    "serve_p50_ms": "ms",
    "serve_goodput_rps": "req/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# serve_p99_ms is a latency a user sees, but on the serve workload it is
# the length of the run's worst stall behind a cold compile, which moves
# by 30-60% between seeds; it is reported here, unbounded
PER_LAYER = {
    "serve_p99_ms": "ms",
    "mig.io.read_s": "s",
    "mig.io.gates_per_s": "gates/s",
    "mig.graph.fingerprint_s": "s",
    "core.rewriting.rewrite_s": "s",
    "core.rewriting.reduction_ratio": "ratio",
    "core.compiler.compile_s": "s",
    "core.compiler.instructions_per_s": "instr/s",
    "core.compiler.schedule_s": "s",
    "core.compiler.translate_s": "s",
    "plim.verify.verify_s": "s",
    "plim.verify.patterns": "count",
    "plim.machine.run_s": "s",
    "plim.machine.minstr_per_s": "Minstr/s",
    "core.cache.hit_ratio": "ratio",
    "core.cache.entries": "count",
    "core.cache.bytes": "bytes",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p99_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.compiles": "count",
    "serve.dedup_collapsed": "count",
    "serve.shed": "count",
    "serve.generator_lag_ms": "ms",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.server_ready_s": "s",
}
WORKLOADS = ("table1", "translate", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=34.0,
                        help="serve: offered requests per second (Poisson)")
    parser.add_argument("--latency-limit-ms", type=float, default=1000.0,
                        help="a request answered later than this is not goodput")
    parser.add_argument("--scale", choices=("ci", "default", "paper"), default=None,
                        help="override every workload's circuit scale (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one operand of one program before it is "
                        "checked (self-test of the failure path)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"plimbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import common

    env = common.environment()
    print("env " + json.dumps(env, sort_keys=True))
    if env["loaded"]:
        print(f"note: the box was already loaded at start "
              f"(1-minute load {env['loadavg_1m']} on {env['nproc']} CPUs)")

    if args.workload == "serve":
        outcome, setup = _run_serve(args, common)
    else:
        outcome, setup = _run_compile(args, common)

    failures = outcome["failures"]
    attempted = outcome["attempted"]
    summary = {**outcome["summary"], "fail_ratio": len(failures) / attempted,
               "setup": setup}
    print("summary " + json.dumps(summary, sort_keys=True))
    for row in outcome["rows"]:
        print("row " + json.dumps(row, sort_keys=True))
    for failure in failures[:50]:
        print("FAIL " + failure)
    if args.scale is None:
        _compare_counts(args.workload, outcome["metrics"])

    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(outcome["layers"])
        for measured in (outcome["metrics"], setup):
            values.update({k: v for k, v in measured.items() if k in PER_LAYER})
        units = PER_LAYER
        os.makedirs(common.OUT_DIR, exist_ok=True)
        path = os.path.join(
            common.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "summary": summary, "rows": outcome["rows"],
                       "layers": values, "spans": outcome["spans"]}, handle)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        values = {**outcome["metrics"], "setup_s": setup["setup_s"]}
        units = END_TO_END
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(f"metric fail_ratio = {summary['fail_ratio']:.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failures else 0


def _compare_counts(workload, metrics) -> None:
    """Say whether the exact counts match the committed baseline snapshot."""
    path = os.path.join(HERE, "baseline", f"{workload}.json")
    if not os.path.exists(path):
        print(f"baseline: none at {os.path.relpath(path, ROOT)}")
        return
    with open(path, encoding="utf-8") as handle:
        expected = json.load(handle)["counts"]
    actual = {name: metrics[name] for name in expected}
    if actual == expected:
        print(f"baseline: counts match {os.path.relpath(path, ROOT)}")
    else:
        print(f"note: counts differ from {os.path.relpath(path, ROOT)}: "
              f"expected {expected}, got {actual}")


def _run_compile(args, common):
    import compile_load

    scale = args.scale or compile_load.SCALES[args.workload]
    texts, setup = common.timed_setups(lambda: compile_load.build_texts(scale))
    outcome = compile_load.run(
        args.workload, texts, args.seed, args.seconds, bool(args.trace),
        args.latency_limit_ms, corrupt=args.corrupt,
    )
    outcome["metrics"]["peak_rss_mb"] = common.peak_rss_mb()
    return outcome, setup


def _run_serve(args, common):
    import serve_load

    scales = (args.scale,) if args.scale else serve_load.SCALES
    servers = []

    def spawn():
        # the last server spawned serves the run; earlier ones only time set-up
        while servers:
            servers.pop().stop()
        servers.append(serve_load.Server())
        return servers[-1].ready_s

    try:
        payloads, setup = common.timed_setups(
            lambda: serve_load.build_payloads(scales), spawn
        )
        outcome = serve_load.run(
            payloads, servers[-1], args.seed, args.seconds, args.rate,
            bool(args.trace), args.latency_limit_ms, corrupt=args.corrupt,
        )
    finally:
        for server in servers:
            server.stop()
    return outcome, setup


if __name__ == "__main__":
    sys.exit(main())
