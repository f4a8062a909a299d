"""The Ω Boolean algebra of MIGs as executable graph transformations.

The paper's axiomatic system Ω (§2.1):

* Ω.C  commutativity       ``⟨x y z⟩ = ⟨y x z⟩ = ⟨z y x⟩``
* Ω.M  majority            ``⟨x x z⟩ = x``,  ``⟨x x̄ z⟩ = z``
* Ω.A  associativity       ``⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩``
* Ω.D  distributivity      ``⟨x y ⟨u v z⟩⟩ = ⟨⟨x y u⟩ ⟨x y v⟩ z⟩``
* Ω.I  inverter propagation ``¬⟨x y z⟩ = ⟨x̄ ȳ z̄⟩``

Each axiom is provided in two executable forms:

* a whole-graph *pass* built on :meth:`~repro.mig.graph.Mig.rebuild`:
  passes return a fresh, dead-node-free MIG and never change the computed
  functions (property-tested) — the original engine, kept as the
  differential-testing oracle;
* a *local rule* ``try_<axiom>(mig, v)`` that rewrites the single gate
  ``v`` of an :meth:`~repro.mig.graph.Mig.enable_inplace` graph through
  :meth:`~repro.mig.graph.Mig.replace_node` and returns the set of nodes
  the rewrite touched (empty when the rule does not apply) — the building
  blocks of the worklist engine.

The PLiM-specific composition of either form — Algorithm 1 of the paper —
lives in :mod:`repro.core.rewriting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import MigError
from repro.mig.analysis import fanout_counts
from repro.mig.graph import Mig
from repro.mig.signal import Signal


def complement_profile(signals) -> tuple[int, int, bool]:
    """``(num_nonconst, num_complemented_nonconst, has_const)`` of a child triple.

    The polarity profile every inverter-cost decision is made on: RM3's
    operand-B slot absorbs one complemented (non-constant) child for free,
    constants ride along as built-in operands.  Shared by the Ω.I passes
    here, the cost-aware sweeps in :mod:`repro.core.rewriting`, and the
    §4.2.2 estimators in :mod:`repro.core.cost`.
    """
    nonconst = 0
    complemented = 0
    has_const = False
    for s in signals:
        if s.is_const:
            has_const = True
        else:
            nonconst += 1
            if s.inverted:
                complemented += 1
    return nonconst, complemented, has_const


def effective_children(mig: Mig, edge: Signal) -> Optional[tuple[Signal, Signal, Signal]]:
    """Children of the gate behind ``edge`` with Ω.I applied.

    A complemented edge to ``⟨x y z⟩`` is the same as a plain edge to
    ``⟨x̄ ȳ z̄⟩``; returning the polarity-adjusted triple lets pattern
    matchers ignore edge polarity.  Returns ``None`` if ``edge`` does not
    point at a gate.
    """
    if not mig.is_gate(edge.node):
        return None
    a, b, c = mig.children(edge.node)
    if edge.inverted:
        return (~a, ~b, ~c)
    return (a, b, c)


def pass_majority(mig: Mig) -> Mig:
    """Ω.M pass: resimplify and re-hash every gate, drop dead nodes.

    A plain rebuild already applies ``⟨x x z⟩ = x`` and ``⟨x x̄ z⟩ = z``
    (they are built into ``add_maj``) and merges structurally identical
    gates, which is exactly the node elimination the paper attributes to
    Ω.M in Algorithm 1.
    """
    new, _ = mig.rebuild()
    return new


_CHILD_PERMUTATIONS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)

#: Ω.C (A, B, Z) slot-overhead estimates by child class — the single
#: source both the pass and the worklist engine's in-place sweep score
#: with (see :func:`pass_commutativity` for the rationale per slot).
SLOT_SCORES_CONST = (0, 0, 1)
SLOT_SCORES_INVERTED = (2, 0, 2)
SLOT_SCORES_PLAIN_SINGLE_GATE = (0, 2, 0)
SLOT_SCORES_PLAIN = (0, 2, 2)

#: the scores above by child class: 0 constant, 1 complemented, 2 plain
#: edge to a single-fanout gate, 3 any other plain edge
_SLOT_SCORES = (
    SLOT_SCORES_CONST,
    SLOT_SCORES_INVERTED,
    SLOT_SCORES_PLAIN_SINGLE_GATE,
    SLOT_SCORES_PLAIN,
)


def _min_cost_permutations(classes: tuple[int, int, int]) -> tuple:
    """The minimum-score slot permutations of one child-class triple, in
    :data:`_CHILD_PERMUTATIONS` order."""
    scores = [_SLOT_SCORES[c] for c in classes]
    costs = [
        scores[a][0] + scores[b][1] + scores[z][2] for a, b, z in _CHILD_PERMUTATIONS
    ]
    best = min(costs)
    return tuple(p for p, cost in zip(_CHILD_PERMUTATIONS, costs) if cost == best)


#: ``16 * class_a + 4 * class_b + class_c`` -> minimum-score permutations
_PERMUTATIONS_BY_CLASS = tuple(
    _min_cost_permutations((ia, ib, ic))
    for ia in range(4)
    for ib in range(4)
    for ic in range(4)
)


def _slot_permutation(classes: int, encodings, child_keys) -> tuple[int, int, int]:
    """Slot permutation with minimal score, ties broken canonically.

    ``classes`` is the :data:`_PERMUTATIONS_BY_CLASS` index of the
    children's classes, ``encodings`` and ``child_keys`` their per-slot
    encodings and structural keys.  Among the tied permutations the one
    whose A and B children rank lowest by ``(key, polarity)`` wins (the
    first in :data:`_CHILD_PERMUTATIONS` order on equal rank), so the
    chosen order does not depend on the incoming stored order.
    """
    candidates = _PERMUTATIONS_BY_CLASS[classes]
    best = candidates[0]
    if len(candidates) > 1:
        a, b, _ = best
        best_rank = (child_keys[a], encodings[a] & 1, child_keys[b], encodings[b] & 1)
        for perm in candidates[1:]:
            a, b, _ = perm
            rank = (child_keys[a], encodings[a] & 1, child_keys[b], encodings[b] & 1)
            if rank < best_rank:
                best, best_rank = perm, rank
    return best


def _leaf_keys(mig: Mig) -> list[int]:
    """Structural keys of the constant and the PIs; 0 for every gate."""
    keys = [0] * len(mig)
    keys[0] = hash((1, 0))
    for i, pi in enumerate(mig.pis()):
        keys[pi.node] = hash((2, i))
    return keys


def _structural_sweep(mig: Mig, reorder: bool) -> list[int]:
    """One topological pass computing :func:`structural_keys`, and with
    ``reorder`` also the in-place Ω.C of an ``enable_inplace()`` graph.

    The fused form is exact: a gate's children are keyed before the gate
    itself, and reordering a gate's stored children never changes its key
    (the key hashes the *sorted* child pairs).  A child's class for the
    slot scores (:data:`_SLOT_SCORES`) is read from the graph as it
    stands, with the live reference count as its fanout.
    """
    keys = _leaf_keys(mig)
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    refs = mig._refs
    store = mig.reorder_children_enc
    for v in mig.topo_gates():
        ea, eb, ec = ca[v], cb[v], cc[v]
        na, nb, nc = ea >> 1, eb >> 1, ec >> 1
        ka, kb, kc = keys[na], keys[nb], keys[nc]
        x, y, z = (ka, ea & 1), (kb, eb & 1), (kc, ec & 1)
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        keys[v] = hash((3, x[0], x[1], y[0], y[1], z[0], z[1]))
        if not reorder:
            continue
        # each child's _SLOT_SCORES class, inlined: this loop is hot
        ia = 0 if ea < 2 else 1 if ea & 1 else 2 if ca[na] >= 0 and refs[na] == 1 else 3
        ib = 0 if eb < 2 else 1 if eb & 1 else 2 if ca[nb] >= 0 and refs[nb] == 1 else 3
        ic = 0 if ec < 2 else 1 if ec & 1 else 2 if ca[nc] >= 0 and refs[nc] == 1 else 3
        encodings = (ea, eb, ec)
        a, b, z = _slot_permutation(16 * ia + 4 * ib + ic, encodings, (ka, kb, kc))
        if (a, b, z) != (0, 1, 2):
            store(v, encodings[a], encodings[b], encodings[z])
    return keys


@dataclass(slots=True)
class _OmegaCMemo:
    """What the last :func:`canonicalize_inplace` sweep of a graph saw."""

    #: structural key per node
    keys: list
    #: per gate, the child nodes it had when last evaluated
    seen: list
    #: reference counts at the end of the sweep
    refs: list
    #: gates with two children tied on (key, polarity)
    tied: set


def canonicalize_inplace(mig: Mig) -> None:
    """In-place Ω.C of an ``enable_inplace()`` graph, incremental.

    The same per-gate decision as ``_structural_sweep(mig, reorder=True)``.
    The first call evaluates every gate and leaves its memory on the graph
    (:class:`_OmegaCMemo`).  A later call re-evaluates, in topological
    order, only the gates whose decision can differ:

    * the child triple changed — the gate is in the graph's change record
      (``Mig._touched``: gates created, rewired, reordered or retired, and
      nodes whose primary-output readers moved);
    * a child's single-reader class changed — its reader count crossed 1.
      Only nodes in the change record and their children, before or now,
      can have a new reader count;
    * a child's structural key changed — found as the sweep goes, since
      children are evaluated before their parents;
    * two children tie on (key, polarity), so the choice among equally
      ranked permutations falls to the stored order — these gates are
      re-evaluated every sweep.

    Any other gate would compute the same key and keep its stored order,
    so skipping it is exact.
    """
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    refs, parents = mig._refs, mig._parents
    size = len(mig)
    memo = mig._omega_c
    if memo is None:
        keys = _leaf_keys(mig)
        seen: list = [None] * size
        tied: set[int] = set()
        pending = bytearray(b"\x01") * size
    else:
        keys, seen = memo.keys, memo.seen
        grown = size - len(keys)
        keys.extend([0] * grown)
        seen.extend([None] * grown)
        tied = {t for t in memo.tied if ca[t] >= 0}
        pending = bytearray(size)
        for t in tied:
            pending[t] = 1
        moved: set[int] = set()  # nodes whose reader count may have changed
        for p in mig._touched:
            moved.add(p)
            before = seen[p]
            if before is not None:
                moved.update(before)
            if ca[p] >= 0:
                pending[p] = 1
                moved.update((ca[p] >> 1, cb[p] >> 1, cc[p] >> 1))
            else:
                seen[p] = None
        old_refs = memo.refs
        known = len(old_refs)
        for u in moved:
            if u < known and ca[u] >= 0 and (refs[u] == 1) != (old_refs[u] == 1):
                for q in parents[u]:
                    pending[q] = 1
    store = mig.reorder_children_enc
    for v in mig.topo_gates():
        if not pending[v]:
            continue
        ea, eb, ec = ca[v], cb[v], cc[v]
        na, nb, nc = ea >> 1, eb >> 1, ec >> 1
        ka, kb, kc = keys[na], keys[nb], keys[nc]
        x, y, z = (ka, ea & 1), (kb, eb & 1), (kc, ec & 1)
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        key = hash((3, x[0], x[1], y[0], y[1], z[0], z[1]))
        if key != keys[v]:
            keys[v] = key
            if memo is not None:
                for q in parents[v]:
                    pending[q] = 1
        if x == y or y == z:
            tied.add(v)
        else:
            tied.discard(v)
        seen[v] = (na, nb, nc)
        # each child's _SLOT_SCORES class, inlined: this loop is hot
        ia = 0 if ea < 2 else 1 if ea & 1 else 2 if ca[na] >= 0 and refs[na] == 1 else 3
        ib = 0 if eb < 2 else 1 if eb & 1 else 2 if ca[nb] >= 0 and refs[nb] == 1 else 3
        ic = 0 if ec < 2 else 1 if ec & 1 else 2 if ca[nc] >= 0 and refs[nc] == 1 else 3
        encodings = (ea, eb, ec)
        a, b, z = _slot_permutation(16 * ia + 4 * ib + ic, encodings, (ka, kb, kc))
        if (a, b, z) != (0, 1, 2):
            store(v, encodings[a], encodings[b], encodings[z])
    mig._touched.clear()
    mig._omega_c = _OmegaCMemo(keys, seen, refs[:], tied)


def structural_keys(mig: Mig) -> list[int]:
    """A stored-order-independent structural fingerprint per node.

    Two isomorphic graphs (same PIs, same gate structure) assign the same
    key to corresponding nodes regardless of node indices or stored child
    order: a gate's key hashes the *sorted* ``(child key, polarity)``
    pairs.  :func:`pass_commutativity` uses the keys to break slot-score
    ties canonically, so both rewriting engines settle on the same stored
    child order even when their internal merge order differed.  Keys are
    ordinary ``hash`` values of int tuples — deterministic across
    processes (no strings involved).
    """
    return _structural_sweep(mig, reorder=False)


def pass_commutativity(mig: Mig) -> Mig:
    """Ω.C pass: store every gate's children in translation-friendly order.

    Functionally a no-op, but the stored order is what a child-order
    translator consumes (operand A ← child 1, B ← child 2, destination Z ←
    child 3, per the paper's §3 naïve scheme).  The pass permutes each
    gate's children to minimize the expected RM3 overhead of that scheme:

    * slot B wants a complemented child or a constant (the built-in
      inversion is free there), never a plain child (2 instructions);
    * slot Z wants a single-fanout plain gate child (overwritable in
      place), then a constant (1 instruction);
    * slot A wants a constant or a plain child (free).

    This is the piece of Algorithm 1 that lets plain *rewriting* (Table 1,
    third column) already shrink programs without smart per-node selection.

    Score ties are broken by :func:`structural_keys`, so the stored order
    chosen is a canonical function of the graph's structure — both
    rewriting engines converge to the same order regardless of how their
    intermediate merges happened to order the children.
    """
    fanouts = fanout_counts(mig)
    keys = structural_keys(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        classes = 0  # base-4 digits of the _SLOT_SCORES classes
        for child, old_child in zip(mapped, old_children):
            if child.is_const:
                classes = 4 * classes
            elif child.inverted:
                classes = 4 * classes + 1
            elif mig.is_gate(old_child.node) and fanouts[old_child.node] == 1:
                classes = 4 * classes + 2
            else:
                classes = 4 * classes + 3
        old_keys = [keys[s.node] for s in old_children]
        a, b, z = _slot_permutation(classes, mapped, old_keys)
        return new.add_maj(mapped[a], mapped[b], mapped[z])

    new, _ = mig.rebuild(gate_fn)
    return new


def pass_distributivity_rl(mig: Mig) -> Mig:
    """Ω.D right-to-left pass: ``⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩``.

    Applied only when both inner gates have a single fanout in the original
    graph, so the rewrite removes one node (the paper: "Distributivity from
    right to left also reduces the number of nodes by one").  Edge polarity
    is handled through Ω.I (:func:`effective_children`).
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        # Try each unordered pair of children as the two inner gates.
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gi, gj = mapped[i], mapped[j]
            oi, oj = old_children[i], old_children[j]
            if gi.node == gj.node:
                continue
            if not (mig.is_gate(oi.node) and mig.is_gate(oj.node)):
                continue
            if fanouts[oi.node] != 1 or fanouts[oj.node] != 1:
                continue
            inner_i = effective_children(new, gi)
            inner_j = effective_children(new, gj)
            if inner_i is None or inner_j is None:
                continue
            common = _common_pair(inner_i, inner_j)
            if common is None:
                continue
            (x, y), p, q = common
            k = 3 - i - j  # index of the third child
            z = mapped[k]
            inner = new.add_maj(p, q, z)
            return new.add_maj(x, y, inner)
        return new.add_maj(*mapped)

    new, _ = mig.rebuild(gate_fn)
    # Pattern replacements can orphan freshly built inner gates; sweep them.
    new, _ = new.rebuild()
    return new


def _common_pair(
    a: tuple[int, int, int], b: tuple[int, int, int]
) -> Optional[tuple[tuple[int, int], int, int]]:
    """Find two edges shared by triples ``a`` and ``b`` (as multisets).

    The edges are child encodings — raw ints in the local rule, signals
    (an ``int`` subclass) in the pass.  Returns ``((x, y), p, q)`` where
    ``x, y`` are the shared edges and ``p`` / ``q`` the leftovers of ``a``
    / ``b``, or ``None`` if fewer than two edges are shared.
    """
    rest_b = list(b)
    shared: list[int] = []
    rest_a: list[int] = []
    for s in a:
        if s in rest_b:
            rest_b.remove(s)
            shared.append(s)
        else:
            rest_a.append(s)
    if len(shared) < 2:
        return None
    if len(shared) == 3:
        # Identical gates would have been merged by strashing; treat the
        # third shared signal as the leftover on both sides (the *same*
        # signal on both — handing side b a different leftover changes
        # the computed function).
        third = shared.pop()
        rest_a.append(third)
        rest_b.append(third)
    return (shared[0], shared[1]), rest_a[0], rest_b[0]


def pass_distributivity_lr(mig: Mig) -> Mig:
    """Ω.D left-to-right pass: ``⟨x y ⟨u v z⟩⟩ → ⟨⟨x y u⟩ ⟨x y v⟩ z⟩``.

    The expanding direction; only applied when at least one of the two new
    inner gates already exists (strash hit), so the pass never grows the
    graph.  Provided for completeness of Ω and for the test suite.
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        for k in range(3):
            g = mapped[k]
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, g)
            if inner is None:
                continue
            u, v, z = inner
            others = [mapped[i] for i in range(3) if i != k]
            x, y = others
            before = len(new)
            left = new.add_maj(x, y, u)
            right = new.add_maj(x, y, v)
            if len(new) <= before + 1:  # at most one fresh gate: net size kept
                return new.add_maj(left, right, z)
        return new.add_maj(*mapped)

    new, _ = mig.rebuild(gate_fn)
    # Pattern replacements can orphan freshly built inner gates; sweep them.
    new, _ = new.rebuild()
    return new


def pass_associativity(mig: Mig) -> Mig:
    """Ω.A pass: ``⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`` where it helps.

    The swap is accepted only when the replacement inner gate simplifies or
    structurally hashes to an existing node, i.e. when it opens a sharing or
    Ω.M opportunity (the paper's "reshaping ... which may provide further
    size reduction opportunities").
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        for k in range(3):  # position of the inner gate child
            g = mapped[k]
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, g)
            if inner is None:
                continue
            others = [mapped[i] for i in range(3) if i != k]
            for u_pos in range(2):  # which outer child is the shared u
                u = others[u_pos]
                x = others[1 - u_pos]
                if u not in inner:
                    continue
                rest = list(inner)
                rest.remove(u)
                y, z = rest
                # ⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩ — accept if ⟨y u x⟩ is free.
                before = len(new)
                swapped = new.add_maj(y, u, x)
                if len(new) == before:
                    return new.add_maj(z, u, swapped)
        return new.add_maj(*mapped)

    new, _ = mig.rebuild(gate_fn)
    # Pattern replacements can orphan freshly built inner gates; sweep them.
    new, _ = new.rebuild()
    return new


def pass_complementary_associativity(mig: Mig) -> Mig:
    """Ψ.A (complementary associativity): ``⟨x u ⟨y ū z⟩⟩ = ⟨x u ⟨y x z⟩⟩``.

    Part of the derived rule set Ψ that the MIG papers add on top of Ω: an
    inner occurrence of ``ū`` is irrelevant when ``u`` is decided at the
    outer gate, so it may be replaced by the *other* outer child — which
    frequently lets Ω.M fire (e.g. the inner gate collapses when ``y`` or
    ``z`` equals ``x``) or re-shares an existing gate.  Applied only when
    the replacement gate is free (simplifies or strash-hits), so the pass
    never grows the graph.
    """
    fanouts = fanout_counts(mig)

    def gate_fn(new: Mig, old: int, mapped):
        old_children = mig.children(old)
        for k in range(3):  # position of the inner gate child
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, mapped[k])
            if inner is None:
                continue
            others = [mapped[i] for i in range(3) if i != k]
            for u_pos in range(2):
                u = others[u_pos]
                x = others[1 - u_pos]
                if ~u not in inner:
                    continue
                replaced = tuple(x if s == ~u else s for s in inner)
                before = len(new)
                new_inner = new.add_maj(*replaced)
                if len(new) == before:  # free: simplified or shared
                    return new.add_maj(x, u, new_inner)
        return new.add_maj(*mapped)

    new, _ = mig.rebuild(gate_fn)
    # Pattern replacements can orphan freshly built inner gates; sweep them.
    new, _ = new.rebuild()
    return new


def pass_associativity_depth(mig: Mig) -> Mig:
    """Ω.A pass targeting *depth*: move late signals out of deep gates.

    In ``⟨x u ⟨y u z⟩⟩`` the inner gate adds a level on top of ``z``; when
    ``z`` arrives later than ``x`` (higher topological level), the swap
    ``⟨z u ⟨y u x⟩⟩`` takes ``z`` off the inner critical path.  This is the
    depth-rewriting move of the MIG papers (Amarù et al.) restricted to
    strictly improving applications, used by
    :func:`repro.core.rewriting.rewrite_depth`.
    """
    fanouts = fanout_counts(mig)
    new_levels: dict[int, int] = {}

    def gate_fn(new: Mig, old: int, mapped):
        def level_of(signal: Signal) -> int:
            v = signal.node
            if v not in new_levels:
                if not new.is_gate(v):
                    new_levels[v] = 0
                else:
                    new_levels[v] = 1 + max(
                        level_of(c) for c in new.children(v)
                    )
            return new_levels[v]

        old_children = mig.children(old)
        for k in range(3):  # position of the inner gate child
            og = old_children[k]
            if not mig.is_gate(og.node) or fanouts[og.node] != 1:
                continue
            inner = effective_children(new, mapped[k])
            if inner is None:
                continue
            others = [mapped[i] for i in range(3) if i != k]
            for u_pos in range(2):
                u = others[u_pos]
                x = others[1 - u_pos]
                if u not in inner:
                    continue
                rest = list(inner)
                rest.remove(u)
                # shallower inner child is y, deeper is z
                y, z = sorted(rest, key=level_of)
                before = 1 + max(level_of(x), level_of(u), 1 + max(
                    level_of(y), level_of(u), level_of(z)))
                after = 1 + max(level_of(z), level_of(u), 1 + max(
                    level_of(y), level_of(u), level_of(x)))
                if after >= before:
                    continue  # no strict depth win
                swapped = new.add_maj(y, u, x)
                return new.add_maj(z, u, swapped)
        return new.add_maj(*mapped)

    new, _ = mig.rebuild(gate_fn)
    new, _ = new.rebuild()  # sweep any orphaned inner gates
    return new


def pass_push_inverters(mig: Mig, threshold: int = 2) -> Mig:
    """Unconditional Ω.I right-to-left pass.

    Every gate with at least ``threshold`` complemented non-constant
    children is replaced by its complement with all child polarities
    flipped (``⟨x̄ ȳ z̄⟩ → ¬⟨x y z⟩`` and ``⟨x̄ ȳ z⟩ → ¬⟨x y z̄⟩``), pushing
    the inversion onto the fanout edges.  This is the mechanical core of
    the paper's Ω.I(R→L); the cost-aware variant that decides *whether* a
    push pays off lives in :mod:`repro.core.rewriting`.  Algorithm 1's
    final sweep uses ``threshold=3`` — it only removes the most costly
    case, leaving cost-rejected two-complement gates alone.
    """

    def gate_fn(new: Mig, _old: int, mapped):
        _, inverted_nonconst, _ = complement_profile(mapped)
        if inverted_nonconst >= threshold:
            flipped = tuple(~s for s in mapped)
            return ~new.add_maj(*flipped)
        return new.add_maj(*mapped)

    new, _ = mig.rebuild(gate_fn)
    return new


# ----------------------------------------------------------------------
# local rules (the worklist engine's building blocks)
#
# Each takes an enable_inplace() graph and one live gate ``v``, applies the
# axiom at ``v`` through Mig.replace_node, and returns the set of nodes the
# rewrite touched — empty when the rule does not apply.  Single-fanout
# heuristics read the optional ``fanouts`` snapshot
# (:meth:`~repro.mig.graph.Mig.fanout_snapshot`, falling back to the live
# counts for nodes created after it) so one phase's decisions match a
# rebuild pass's snapshot semantics; pass ``None`` to use live counts.
# The conditions are heuristics for node-count reduction, not correctness
# requirements, so a stale snapshot is always safe.
#
# Rules that can raise a node's level (Ω.D restructuring, Ω.A/Ψ.A
# reshaping) additionally accept ``depth_budget``: on a graph with level
# maintenance (:meth:`~repro.mig.graph.Mig.enable_levels`) a candidate is
# rejected when committing it could push any primary-output level past the
# budget.  The test is conservative but sound: replacing ``v`` by a
# replacement whose level exceeds ``level(v)`` by ``delta`` raises every
# ancestor level — and therefore every PO level — by at most ``delta``
# (cascaded Ω.M collapses and strash merges only lower levels), so a
# candidate is safe whenever ``delta <= budget - current_depth()``.
# Collapse-only rules (Ω.M) and polarity flips (Ω.I) never raise a level
# and ignore the budget.
# ----------------------------------------------------------------------


def _fanout(mig: Mig, fanouts: Optional[list[int]], node: int) -> int:
    if fanouts is not None and node < len(fanouts):
        return fanouts[node]
    return mig.fanout_of(node)


def _require_levels_for_budget(mig: Mig, depth_budget: Optional[int]) -> None:
    """Entry check of every budget-gated rule: a budget needs levels."""
    if depth_budget is not None and mig._levels is None:
        raise MigError(
            "depth-budget gating needs level maintenance; "
            "call enable_levels() first"
        )


def _predicted_level(levels: list[int], signals, floor: int = 0) -> int:
    """Upper bound on the level of a gate over ``signals``.

    ``floor`` folds in an already-predicted level of a not-yet-created
    inner gate.  An upper bound because ``add_maj`` can only simplify or
    share to something equal or shallower.
    """
    level = floor
    for s in signals:
        child_level = levels[int(s) >> 1]
        if child_level > level:
            level = child_level
    return 1 + level


def _exceeds_depth_budget(
    mig: Mig, v: int, replacement_level: int, depth_budget: int
) -> bool:
    """True when replacing ``v`` by a node at ``replacement_level`` could
    push a primary-output level past ``depth_budget``.

    ``replacement_level`` must be an upper bound on the committed
    replacement's level, computed from live child levels *before* any node
    is created (:func:`_predicted_level`).  Callers guarantee level
    maintenance via :func:`_require_levels_for_budget`.
    """
    delta = replacement_level - mig._levels[v]
    if delta <= 0:
        return False
    return delta > depth_budget - mig.current_depth()


def try_majority(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> set[int]:
    """Ω.M at ``v``: collapse a trivially decided gate, merge duplicates.

    ``replace_node`` already cascades Ω.M and strash merges through
    parents, so on a graph built with simplification enabled this fires
    only for gates created with ``simplify=False``.  ``depth_budget`` is
    accepted for worklist-phase uniformity and ignored: a collapse replaces
    ``v`` by one of its own children (or a constant), which can only lower
    levels.
    """
    replacement = Mig._simplify_enc(mig._ca[v], mig._cb[v], mig._cc[v])
    if replacement < 0:
        return set()
    return mig.replace_node(v, Signal(replacement))


def try_distributivity_rl(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> set[int]:
    """Ω.D(R→L) at ``v``: ``⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩``.

    Applied when both inner gates have a single fanout, so the rewrite
    removes one node.  Edge polarity is handled through Ω.I: a
    complemented edge to an inner gate matches against its complemented
    children.  The restructured cone can be *deeper* than the original
    (``z`` gains a level); under ``depth_budget`` a candidate whose
    predicted level increase could push a PO past the budget is rejected
    before any node is created.
    """
    _require_levels_for_budget(mig, depth_budget)
    # matched on raw encodings: this loop is the hot path and mostly
    # rejects, so a Signal is only built for a committed replacement
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = (ca[v], cb[v], cc[v])
    # the children that can be an inner gate: gates (child slot a is not
    # empty) with a single reader; a pair needs two of them
    inner_ok = [ca[e >> 1] >= 0 and _fanout(mig, fanouts, e >> 1) == 1 for e in enc]
    if inner_ok.count(True) < 2:
        return set()
    levels = mig._levels
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if not (inner_ok[i] and inner_ok[j]):
            continue
        ei, ej = enc[i], enc[j]
        ni, nj = ei >> 1, ej >> 1
        if ni == nj:
            continue
        pi, pj = ei & 1, ej & 1
        common = _common_pair(
            (ca[ni] ^ pi, cb[ni] ^ pi, cc[ni] ^ pi),
            (ca[nj] ^ pj, cb[nj] ^ pj, cc[nj] ^ pj),
        )
        if common is None:
            continue
        (x, y), p, q = common
        z = enc[3 - i - j]
        if depth_budget is not None:
            inner_level = _predicted_level(levels, (p, q, z))
            outer_level = _predicted_level(levels, (x, y), floor=inner_level)
            if _exceeds_depth_budget(mig, v, outer_level, depth_budget):
                continue
        first_new = len(mig)
        inner = mig.add_maj_enc(p, q, z)
        outer = mig.add_maj_enc(x, y, inner)
        for node in range(first_new, len(mig)):
            mig.inherit_order(node, v)
        if outer >> 1 == v:  # degenerate: the pattern reproduced v itself
            mig.release_if_dead(inner >> 1)
            continue
        affected = mig.replace_node(v, Signal(outer))
        # ``outer`` may have simplified or hashed past a freshly created
        # ``inner``; sweep the speculative gate if nothing reads it.
        mig.release_if_dead(inner >> 1)
        affected.update(
            u for u in (inner >> 1, outer >> 1) if mig.is_gate(u)
        )
        return affected
    return set()


def associativity_candidates(
    mig: Mig, v: int, fanouts: Optional[list[int]] = None
) -> Iterator[tuple[tuple[int, int, int], tuple[int, int]]]:
    """Ω.A candidates at ``v`` on raw encodings, in the order they are tried.

    For ``⟨x u ⟨y u z⟩⟩`` (single-reader inner gate) each candidate is the
    inner triple ``(y, u, x)`` of the swapped form ``⟨z u ⟨y u x⟩⟩`` and
    its outer pair ``(z, u)``.  The generator only reads the graph: the
    committing rule (:func:`try_associativity`) and the worklist engine's
    lookup-only freeness check share it.
    """
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = (ca[v], cb[v], cc[v])
    for k in range(3):
        ek = enc[k]
        n = ek >> 1
        if ca[n] < 0 or _fanout(mig, fanouts, n) != 1:
            continue
        p = ek & 1
        inner = (ca[n] ^ p, cb[n] ^ p, cc[n] ^ p)
        others = enc[:k] + enc[k + 1:]
        for u_pos in range(2):
            u = others[u_pos]
            x = others[1 - u_pos]
            if u not in inner:
                continue
            rest = list(inner)
            rest.remove(u)
            y, z = rest
            yield (y, u, x), (z, u)


def complementary_associativity_candidates(
    mig: Mig, v: int, fanouts: Optional[list[int]] = None
) -> Iterator[tuple[tuple[int, int, int], tuple[int, int]]]:
    """Ψ.A candidates at ``v``, shaped like :func:`associativity_candidates`.

    For ``⟨x u ⟨y ū z⟩⟩`` each candidate is the inner triple with ``x``
    substituted for ``ū`` and the outer pair ``(x, u)``.
    """
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = (ca[v], cb[v], cc[v])
    for k in range(3):
        ek = enc[k]
        n = ek >> 1
        if ca[n] < 0 or _fanout(mig, fanouts, n) != 1:
            continue
        p = ek & 1
        inner = (ca[n] ^ p, cb[n] ^ p, cc[n] ^ p)
        others = enc[:k] + enc[k + 1:]
        for u_pos in range(2):
            u = others[u_pos]
            x = others[1 - u_pos]
            not_u = u ^ 1
            if not_u not in inner:
                continue
            yield tuple(x if e == not_u else e for e in inner), (x, u)


def _commit_reshaping(
    mig: Mig, v: int, candidates, depth_budget: Optional[int]
) -> set[int]:
    """Commit the first free reshaping candidate at ``v``.

    A candidate is free when its inner gate simplifies or structurally
    hashes to an existing node.  A rejected candidate's inner gate is
    *kept* as a speculative zero-fanout gate (it seeds sharing for later
    checks, exactly like the abandoned gates of the rebuild pass); callers
    sweep those with :meth:`~repro.mig.graph.Mig.collect_unused` at phase
    boundaries.  Under ``depth_budget`` a free candidate whose predicted
    level increase could push a PO past the budget is skipped.
    """
    for inner_triple, (p, q) in candidates:
        before = len(mig)
        inner = mig.add_maj_enc(*inner_triple)
        if len(mig) > before:  # not free: keep the speculative gate
            mig.inherit_order(inner >> 1, v)
            continue
        if depth_budget is not None:
            replacement_level = _predicted_level(mig._levels, (p, q, inner))
            if _exceeds_depth_budget(mig, v, replacement_level, depth_budget):
                continue
        first_new = len(mig)
        replacement = mig.add_maj_enc(p, q, inner)
        for node in range(first_new, len(mig)):
            mig.inherit_order(node, v)
        if replacement >> 1 == v:  # the rewrite reproduced v itself
            continue
        affected = mig.replace_node(v, Signal(replacement))
        if mig.is_gate(replacement >> 1):
            affected.add(replacement >> 1)
        return affected
    return set()


def try_associativity(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> set[int]:
    """Ω.A at ``v``: ``⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`` where it is free.

    Accepted only when the replacement inner gate ``⟨y u x⟩`` is free —
    it simplifies or structurally hashes to an existing node — i.e. when
    the swap opens a sharing or Ω.M opportunity without growing the graph.
    A rejected candidate is *kept* as a speculative zero-fanout gate
    (:func:`_commit_reshaping`).

    The swap can *deepen* the graph (``x`` moves under the inner gate);
    under ``depth_budget`` a candidate whose predicted level increase
    could push a PO past the budget is rejected after the freeness check
    (the speculative sharing semantics are unchanged — only the commit is
    gated).
    """
    _require_levels_for_budget(mig, depth_budget)
    return _commit_reshaping(
        mig, v, associativity_candidates(mig, v, fanouts), depth_budget
    )


def try_associativity_depth(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> set[int]:
    """Ω.A at ``v`` targeting *depth* — the local form of
    :func:`pass_associativity_depth`.  ``depth_budget`` is accepted for
    worklist-phase uniformity and ignored: every committed move strictly
    lowers ``v``'s level and can raise no other node's.

    In ``⟨x u ⟨y u z⟩⟩`` the inner gate adds a level on top of ``z``; when
    the swap ``⟨z u ⟨y u x⟩⟩`` strictly lowers ``v``'s level, it takes the
    late-arriving ``z`` off the inner critical path.  Requires incremental
    level maintenance (:meth:`~repro.mig.graph.Mig.enable_levels`): the
    accept test reads exact current levels, and because the swap strictly
    lowers ``v``'s level while no other node's level can rise, global
    depth is monotonically non-increasing under this rule.  Size-neutral
    beyond Ω.A itself: the single-fanout inner gate is freed whenever the
    replacement commits.
    """
    if mig._levels is None:
        raise MigError(
            "try_associativity_depth needs level maintenance; "
            "call enable_levels() first"
        )
    # matched on raw encodings; a Signal is only built for the commit
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    enc = (ca[v], cb[v], cc[v])
    levels = mig._levels
    lv = levels[v]
    for k in range(3):
        ek = enc[k]
        n = ek >> 1
        # A swap can only lower v's level when the inner gate is the
        # critical child — cheap reject before any pattern matching.
        if levels[n] + 1 != lv:
            continue
        if ca[n] < 0 or _fanout(mig, fanouts, n) != 1:
            continue
        p = ek & 1
        inner = (ca[n] ^ p, cb[n] ^ p, cc[n] ^ p)
        others = enc[:k] + enc[k + 1:]
        for u_pos in range(2):
            u = others[u_pos]
            x = others[1 - u_pos]
            if u not in inner:
                continue
            rest = list(inner)
            rest.remove(u)
            # shallower inner child is y, deeper is z
            y, z = sorted(rest, key=lambda e: levels[e >> 1])
            lu, lx = levels[u >> 1], levels[x >> 1]
            ly, lz = levels[y >> 1], levels[z >> 1]
            before = 1 + max(lx, lu, 1 + max(ly, lu, lz))
            after = 1 + max(lz, lu, 1 + max(ly, lu, lx))
            if after >= before:
                continue  # no strict depth win
            first_new = len(mig)
            swapped = mig.add_maj_enc(y, u, x)
            replacement = mig.add_maj_enc(z, u, swapped)
            for node in range(first_new, len(mig)):
                mig.inherit_order(node, v)
            if replacement >> 1 == v:  # the swap reproduced v itself
                mig.release_if_dead(swapped >> 1)
                continue
            affected = mig.replace_node(v, Signal(replacement))
            # ``replacement`` may have simplified or hashed past the
            # freshly created ``swapped``; sweep it if nothing reads it.
            mig.release_if_dead(swapped >> 1)
            affected.update(
                g for g in (swapped >> 1, replacement >> 1) if mig.is_gate(g)
            )
            return affected
    return set()


def try_complementary_associativity(
    mig: Mig,
    v: int,
    fanouts: Optional[list[int]] = None,
    depth_budget: Optional[int] = None,
) -> set[int]:
    """Ψ.A at ``v``: ``⟨x u ⟨y ū z⟩⟩ = ⟨x u ⟨y x z⟩⟩`` where it is free.

    The derived-rule counterpart of :func:`pass_complementary_associativity`;
    applied only when the replacement inner gate is free.  Like
    :func:`try_associativity`, a rejected candidate stays as a speculative
    zero-fanout gate until :meth:`~repro.mig.graph.Mig.collect_unused`, and
    like it the commit is gated under ``depth_budget`` (substituting ``x``
    for ``ū`` inside the inner gate can deepen the cone when ``x`` is the
    deeper signal).
    """
    _require_levels_for_budget(mig, depth_budget)
    return _commit_reshaping(
        mig, v, complementary_associativity_candidates(mig, v, fanouts), depth_budget
    )


def flip_complement(mig: Mig, v: int) -> set[int]:
    """Ω.I(R→L) at ``v``: replace the gate by its complement.

    ``⟨a b c⟩`` becomes ``¬⟨ā b̄ c̄⟩``, pushing one inversion onto every
    fanout edge.  The flipped gate may hash to an existing node, in which
    case the flip also merges.  Unconditional — cost policies live in the
    callers (:func:`try_push_inverters`, the worklist engine's cost-aware
    sweep).
    """
    a, b, c = mig.children(v)
    first_new = len(mig)
    flipped = mig.add_maj(~a, ~b, ~c)
    for node in range(first_new, len(mig)):
        mig.inherit_order(node, v)
    affected = mig.replace_node(v, ~flipped)
    if mig.is_gate(flipped.node):
        affected.add(flipped.node)
    return affected


def try_push_inverters(mig: Mig, v: int, threshold: int = 2) -> set[int]:
    """Unconditional Ω.I(R→L) at ``v`` — the local form of
    :func:`pass_push_inverters`.

    Flips the gate when at least ``threshold`` non-constant children are
    complemented.  Algorithm 1's final sweep uses ``threshold=3``.
    """
    inverted_nonconst = sum(
        1 for s in mig.children(v) if s.inverted and not s.is_const
    )
    if inverted_nonconst < threshold:
        return set()
    return flip_complement(mig, v)
