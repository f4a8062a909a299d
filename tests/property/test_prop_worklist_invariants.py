"""Invariants the worklist engine's phase loop relies on.

* **Ω.M-clean between rules.**  After every worklist phase and every
  effort cycle, no live gate is trivially reducible (``Mig._simplify_enc``)
  and every live gate owns its structural-hash key.  This is why the size
  phases run no Ω.M rule: the private copy starts clean, rules build
  through the simplifying constructor, and ``replace_node`` cascades every
  collapse and merge it causes.
* **Incremental Ω.C is a full Ω.C.**  Every in-place Ω.C sweep — which
  re-evaluates only the gates whose decision can have changed — stores
  the child order a full sweep of the same graph stores; after it a full
  sweep reorders nothing, and the structural keys kept on the graph are
  ``structural_keys``.  With a coarse key hash most gates tie on
  (key, polarity), which exercises the tie rule: tied gates are
  re-evaluated every sweep.
* **The topological order** of an in-place graph is Kahn's algorithm with
  a min-heap over order-key ranks.
* **The fixed-point signature.**  The encoding-level ``_signature`` is the
  (gate count, complement histogram, instruction estimate) triple of the
  analysis functions, including on gates with constant and
  complemented-constant children and on graphs with tombstones.
"""

import builtins
import contextlib
import heapq
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rewriting
from repro.mig import algebra
from repro.core.cost import estimate_instructions
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.algebra import (
    _structural_sweep,
    structural_keys,
    try_associativity,
    try_distributivity_rl,
)
from repro.mig.analysis import complement_stats, depth
from repro.mig.graph import Mig
from repro.mig.signal import Signal

from .strategies import migs, motif_migs

FAST = settings(max_examples=40, deadline=None)
THOROUGH = settings(max_examples=150, deadline=None)


def assert_omega_m_clean(work: Mig) -> None:
    """No live gate reduces under Ω.M, and each owns its strash key."""
    ca, cb, cc = work._ca, work._cb, work._cc
    for v in work.gates():
        ea, eb, ec = ca[v], cb[v], cc[v]
        assert Mig._simplify_enc(ea, eb, ec) < 0, f"gate {v} is Ω.M-reducible"
        assert work._strash.get(Mig._pack_key(ea, eb, ec)) == v, (
            f"gate {v} does not own its strash key"
        )


def _checked(function):
    """Wrap a worklist step so the invariant is asserted after each call."""

    def wrapper(work, *args, **kwargs):
        function(work, *args, **kwargs)
        assert_omega_m_clean(work)

    return wrapper


OPTION_SETS = (
    RewriteOptions(),
    RewriteOptions(use_psi=True),
    RewriteOptions(objective="balanced"),
    RewriteOptions(po_negation_cost=2),
)


@THOROUGH
@given(
    mig=st.one_of(migs(max_gates=40), motif_migs()),
    which=st.integers(0, len(OPTION_SETS)),
)
def test_no_live_gate_is_omega_m_reducible(mig, which):
    if which == len(OPTION_SETS):
        options = RewriteOptions(depth_budget=depth(mig))
    else:
        options = OPTION_SETS[which]
    steps = ("_worklist_phase", "_distributivity_phase", "_reshaping_phase", "_size_cycle_worklist")
    with contextlib.ExitStack() as stack:
        for name in steps:
            checked = _checked(getattr(rewriting, name))
            stack.enter_context(mock.patch.object(rewriting, name, checked))
        rewrite_for_plim(mig, options)


def assert_commutativity_settled(work: Mig) -> None:
    """A full Ω.C sweep changes nothing; the kept keys are current."""
    encodings = (list(work._ca), list(work._cb), list(work._cc))
    _structural_sweep(work, reorder=True)
    assert (list(work._ca), list(work._cb), list(work._cc)) == encodings
    keys = structural_keys(work)
    kept = work._omega_c.keys
    for v in range(len(work)):
        if work._kind[v] != 3:  # every live node: constant, PIs, gates
            assert kept[v] == keys[v], f"node {v} has a stale structural key"


def _checked_sweep(work: Mig) -> None:
    """``_sweep_commutativity``, checked against a full sweep of a copy."""
    reference = work.clone()
    reference.enable_inplace()
    _structural_sweep(reference, reorder=True)
    rewriting.canonicalize_inplace(work)
    assert_omega_m_clean(work)
    assert (list(work._ca), list(work._cb), list(work._cc)) == (
        list(reference._ca), list(reference._cb), list(reference._cc)
    )
    assert_commutativity_settled(work)


def test_reader_count_change_re_evaluates_the_other_readers():
    """A rewrite retires ``n6``, so ``n5`` goes from two readers to one.
    That changes ``n5``'s slot class in ``n7``, which the rewrite did not
    touch; ``n7`` must be re-evaluated (found by the property test below,
    with that rule removed, at 1500 examples)."""
    mig = Mig()
    x0, x1, x2, _ = (mig.add_pi(f"x{i}") for i in range(4))
    n5 = mig.add_maj(x0, x1, x2)
    n6 = mig.add_maj(x0, n5, x2)
    n7 = mig.add_maj(x0, n5, x1)
    n8 = mig.add_maj(x0, n6, x1)
    mig.add_po(n7, "f0")
    mig.add_po(mig.add_maj(n8, n6, x0), "f1")
    with mock.patch.object(rewriting, "_sweep_commutativity", _checked_sweep):
        rewrite_for_plim(mig)


@THOROUGH
@given(
    mig=st.one_of(migs(max_gates=40), motif_migs()),
    which=st.integers(0, len(OPTION_SETS)),
    coarse=st.booleans(),
)
def test_incremental_commutativity_equals_full_sweep(mig, which, coarse):
    if which == len(OPTION_SETS):
        options = RewriteOptions(depth_budget=depth(mig))
    else:
        options = OPTION_SETS[which]
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(rewriting, "_sweep_commutativity", _checked_sweep)
        )
        if coarse:
            stack.enter_context(
                mock.patch.object(
                    algebra, "hash", lambda t: builtins.hash(t) % 3, create=True
                )
            )
        rewrite_for_plim(mig, options)


def reference_topo_order(work: Mig) -> list[int]:
    """Kahn's algorithm with a min-heap over order-key ranks."""
    by_rank = sorted(work.gates(), key=lambda v: (work._order[v], v))
    rank = {v: r for r, v in enumerate(by_rank)}
    children = {v: [c.node for c in work.children(v) if work.is_gate(c.node)] for v in by_rank}
    remaining = {v: len(children[v]) for v in by_rank}
    dependents: dict = {}
    for v in by_rank:
        for c in children[v]:
            dependents.setdefault(c, []).append(v)
    heap = [rank[v] for v in by_rank if remaining[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = by_rank[heapq.heappop(heap)]
        order.append(v)
        for p in dependents.get(v, ()):
            remaining[p] -= 1
            if remaining[p] == 0:
                heapq.heappush(heap, rank[p])
    return order


@FAST
@given(mig=st.one_of(migs(max_gates=40), motif_migs()), which=st.integers(0, len(OPTION_SETS) - 1))
def test_topological_order_is_kahns_min_rank_order(mig, which):
    original = Mig._topo_order

    def checked(work):
        order = original(work)
        assert order == reference_topo_order(work)
        return order

    with mock.patch.object(Mig, "_topo_order", checked):
        rewrite_for_plim(mig, OPTION_SETS[which])


@st.composite
def raw_migs(draw, max_pis: int = 4, max_gates: int = 20):
    """MIGs with unsimplified gates: repeated, constant and
    complemented-constant children all survive construction."""
    mig = Mig(name="raw")
    signals = [mig.add_pi(f"x{i}") for i in range(draw(st.integers(1, max_pis)))]
    signals.append(Signal.CONST0)
    for _ in range(draw(st.integers(1, max_gates))):
        picks = draw(st.lists(st.sampled_from(signals), min_size=3, max_size=3))
        flips = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        children = [~s if flip else s for s, flip in zip(picks, flips)]
        signals.append(mig.add_maj(*children, simplify=draw(st.booleans())))
    for k in range(draw(st.integers(1, 3))):
        signal = draw(st.sampled_from(signals))
        mig.add_po(~signal if draw(st.booleans()) else signal, f"f{k}")
    return mig


def reference_signature(mig: Mig) -> tuple:
    """The analysis-function definition of the fixed-point signature."""
    return (
        mig.num_gates,
        complement_stats(mig).by_count,
        estimate_instructions(mig),
    )


@FAST
@given(mig=raw_migs())
def test_signature_matches_analysis_functions(mig):
    assert rewriting._signature(mig) == reference_signature(mig)


@FAST
@given(mig=st.one_of(migs(), motif_migs()))
def test_signature_matches_on_inplace_graphs_with_tombstones(mig):
    work, _ = mig.rebuild()
    work.enable_inplace()
    rewriting._worklist_phase(work, (try_distributivity_rl,))
    rewriting._worklist_phase(work, (try_associativity,))
    assert rewriting._signature(work) == reference_signature(work)
    assert rewriting._signature(work) == rewriting._inplace_signature(work)
