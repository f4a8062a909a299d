#!/usr/bin/env python3
"""Golden digests of Algorithm 1 rewriting over the circuit registry.

For every registry circuit at the ``ci`` and ``default`` scales and every
rewrite configuration in :data:`CONFIGS`, one entry records:

* ``input``     — ``Mig.fingerprint()`` of the un-rewritten circuit (the
  cache key of the rewrite);
* ``rewritten`` — ``Mig.fingerprint()`` of the rewritten MIG;
* ``program``   — SHA-256 of ``compile_mig(...).program.to_text()``.

The committed file ``tests/data/rewrite_golden.json`` is the byte-identity
contract of the rewriting engine: a refactor of Algorithm 1 that keeps the
output unchanged keeps every digest, and ``tests/test_rewrite_golden.py``
asserts them all.

Usage::

    python tools/rewrite_golden.py            # compare against the file
    python tools/rewrite_golden.py --write    # regenerate the file
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import CompilerOptions, compile_mig  # noqa: E402
from repro.circuits.registry import BENCHMARK_NAMES, build  # noqa: E402
from repro.core.pipeline import rewrite_options_for  # noqa: E402
from repro.mig.analysis import depth  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "rewrite_golden.json"
SCALES = ("ci", "default")
#: rewrite configuration name -> (objective, extra RewriteOptions fields);
#: ``depth_budget=True`` stands for "the input MIG's depth"
CONFIGS = {
    "size": ("size", {}),
    "depth": ("depth", {}),
    "balanced": ("balanced", {}),
    "size+psi": ("size", {"use_psi": True}),
    "size+budget": ("size", {"depth_budget": True}),
}


def entry_key(name: str, scale: str, config: str) -> str:
    return f"{name}@{scale}/{config}"


def digest_entry(mig, config: str) -> dict:
    """The three digests of one circuit under one rewrite configuration."""
    objective, extra = CONFIGS[config]
    copts = CompilerOptions()
    ropts = rewrite_options_for(copts, objective=objective)
    if extra.get("depth_budget"):
        extra = dict(extra, depth_budget=depth(mig))
    ropts = replace(ropts, **extra)
    result = compile_mig(mig, compiler_options=copts, rewrite_options=ropts)
    program = hashlib.sha256(result.program.to_text().encode("utf-8")).hexdigest()
    return {
        "input": mig.fingerprint(),
        "rewritten": result.compiled_mig.fingerprint(),
        "program": program,
    }


def generate(names=BENCHMARK_NAMES, scales=SCALES, configs=tuple(CONFIGS)) -> dict:
    """All digests, keyed by :func:`entry_key`."""
    entries = {}
    for name in names:
        for scale in scales:
            mig = build(name, scale)
            for config in configs:
                entries[entry_key(name, scale, config)] = digest_entry(mig, config)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {GOLDEN.relative_to(ROOT)}"
    )
    args = parser.parse_args(argv)
    entries = generate()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entries)} entries to {GOLDEN.relative_to(ROOT)}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    mismatched = sorted(k for k in golden if entries.get(k) != golden[k])
    missing = sorted(set(entries) - set(golden))
    for key in mismatched:
        print(f"MISMATCH {key}")
    for key in missing:
        print(f"NOT IN GOLDEN {key}")
    print(f"{len(entries) - len(mismatched) - len(missing)}/{len(entries)} entries match")
    return 1 if mismatched or missing else 0


if __name__ == "__main__":
    sys.exit(main())
