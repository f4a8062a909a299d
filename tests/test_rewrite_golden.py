"""Byte-identity contract of Algorithm 1 rewriting.

``tests/data/rewrite_golden.json`` (written by ``tools/rewrite_golden.py
--write``) records, for every registry circuit at the ``ci`` and
``default`` scales under the size, depth, balanced, size+Ψ.A and
depth-budgeted size configurations, the input fingerprint (the rewrite's
cache key), the rewritten fingerprint and the SHA-256 of the compiled
program text.  A change to the rewriting engine that is meant to keep its
output — a refactor or an optimisation — must keep every digest.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    """Import tools/rewrite_golden.py by path (tools/ is not a package)."""
    path = REPO_ROOT / "tools" / "rewrite_golden.py"
    spec = importlib.util.spec_from_file_location("rewrite_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
GOLDEN = json.loads(TOOL.GOLDEN.read_text())


def test_golden_covers_registry_scales_and_configs():
    expected = {
        TOOL.entry_key(name, scale, config)
        for name in BENCHMARK_NAMES
        for scale in TOOL.SCALES
        for config in TOOL.CONFIGS
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("scale", TOOL.SCALES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_rewrite_digests_match_golden(name, scale):
    mig = build(name, scale)
    for config in TOOL.CONFIGS:
        key = TOOL.entry_key(name, scale, config)
        assert TOOL.digest_entry(mig, config) == GOLDEN[key], key
