"""The deferred Ω.A[; Ψ.A] phase against the eager loop it replaces.

``rewriting._reshaping_phase`` reserves a tombstone slot for each
speculative candidate gate and builds it only before a visit that may
commit.  The reference here is the phase as it ran before: every rule
tried at every gate, every rejected candidate built on the spot.  After
the phase and its ``collect_unused`` the two graphs must be the same graph
index for index — kinds, child encodings, reference counts, strash,
histogram, live order keys, levels, and the iteration order of every
parent set (``replace_node`` walks those sets, so their order can decide
merge survivors later on).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rewriting
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.algebra import (
    associativity_candidates,
    complementary_associativity_candidates,
    try_associativity,
    try_complementary_associativity,
)
from repro.mig.graph import Mig

from .strategies import motif_migs

THOROUGH = settings(max_examples=150, deadline=None)

_GATE = 2


def eager_reshaping_phase(work: Mig, rules: tuple, depth_budget) -> None:
    """Reference: the reshaping phase with every candidate built on the spot."""
    fanouts = work.fanout_snapshot()
    ca = work._ca
    for v in list(work.topo_gates()):
        if ca[v] < 0:
            continue
        for rule in rules:
            if rule(work, v, fanouts, depth_budget) or ca[v] < 0:
                break


def state(work: Mig) -> dict:
    """Everything a later phase can observe of an in-place graph."""
    kinds = bytes(work._kind)
    live = [v for v in range(len(work)) if kinds[v] == _GATE]
    return {
        "len": len(work),
        "kinds": kinds,
        "encodings": (list(work._ca), list(work._cb), list(work._cc)),
        "refs": list(work._refs),
        "strash": dict(work._strash),
        "signature": work.inplace_signature(),
        "order": {v: work._order[v] for v in live},
        "levels": None if work._levels is None else {v: work._levels[v] for v in live},
        "parents": [list(parents) for parents in work._parents],
        "pos": work.pos(),
    }


def prepared(mig: Mig, cycles: int, budgeted: bool, use_psi: bool):
    """An in-place graph after ``cycles`` effort cycles, and the budget."""
    work = mig.cleaned().clone()
    work.enable_inplace()
    budget = None
    if budgeted:
        work.enable_levels()
        budget = work.current_depth()
    options = RewriteOptions(use_psi=use_psi, depth_budget=budget)
    for _ in range(cycles):
        rewriting._size_cycle_worklist(work, options)
    return work, budget


def twin(work: Mig) -> Mig:
    """A copy with freshly built in-place state (same for every copy)."""
    copy = work.clone()
    copy.enable_inplace()
    if work.has_levels:
        copy.enable_levels()
    return copy


@THOROUGH
@given(
    mig=motif_migs(),
    use_psi=st.booleans(),
    budgeted=st.booleans(),
    cycles=st.integers(0, 2),
)
def test_deferred_phase_matches_eager_phase(mig, use_psi, budgeted, cycles):
    base, budget = prepared(mig, cycles, budgeted, use_psi)
    pairs = [(associativity_candidates, try_associativity)]
    if use_psi:
        pairs.append((complementary_associativity_candidates, try_complementary_associativity))
    deferred, eager = twin(base), twin(base)

    rewriting._reshaping_phase(deferred, tuple(pairs), budget)
    eager_reshaping_phase(eager, tuple(rule for _, rule in pairs), budget)

    # After the phase: same slots; where the deferred graph has a live
    # gate the eager one has the same gate, and the eager graph's extra
    # gates are unread speculative gates in the deferred graph's
    # reserved (dead) slots.
    assert len(deferred) == len(eager)
    for v in range(len(eager)):
        if deferred._kind[v] == _GATE:
            assert eager._kind[v] == _GATE
            assert (deferred._ca[v], deferred._cb[v], deferred._cc[v]) == (
                eager._ca[v], eager._cb[v], eager._cc[v]
            )
        elif eager._kind[v] == _GATE:
            assert eager._refs[v] == 0
            assert deferred._ca[v] == -1

    deferred.collect_unused()
    eager.collect_unused()
    assert state(deferred) == state(eager)


def test_phase_created_child_is_built_on_the_spot():
    """Commits at ``n5`` and ``n6`` leave ``n7`` reading ``n8``, a gate
    created in the phase.  At ``n7`` the rules read ``n8``'s live reader
    count, which counts the candidate gates built earlier in the same
    visit — so that visit must run the committing rules, not the
    lookup-only check (found by the property test above, with that rule
    removed, at 3000 examples)."""
    mig = Mig()
    x0, x1, x2 = (mig.add_pi(f"x{i}") for i in range(3))
    n4 = mig.add_maj(~x0, ~x1, x2)
    n5 = mig.add_maj(~x0, n4, ~x1)
    n6 = mig.add_maj(~n5, ~x0, ~x1)
    mig.add_po(mig.add_maj(n5, ~x0, n6), "f")
    base, _ = prepared(mig, 0, False, True)
    pairs = (
        (associativity_candidates, try_associativity),
        (complementary_associativity_candidates, try_complementary_associativity),
    )
    deferred, eager = twin(base), twin(base)
    rewriting._reshaping_phase(deferred, pairs, None)
    eager_reshaping_phase(eager, tuple(rule for _, rule in pairs), None)
    deferred.collect_unused()
    eager.collect_unused()
    assert state(deferred) == state(eager)


def _reshaping_example() -> Mig:
    """``⟨x u ⟨y u z⟩⟩``: one Ω.A candidate ``⟨y u x⟩``, which is not free."""
    mig = Mig()
    x, u, y, z = (mig.add_pi(name) for name in "xuyz")
    mig.add_po(mig.add_maj(x, u, mig.add_maj(y, u, z)), "f")
    return mig


def test_commit_free_phase_fills_nothing_and_changes_no_gate(monkeypatch):
    work = _reshaping_example().clone()
    work.enable_inplace()
    before = state(work)
    edits = work.edit_count
    fills = []
    monkeypatch.setattr(Mig, "fill_gate", lambda self, *args: fills.append(args))

    rewriting._reshaping_phase(work, ((associativity_candidates, try_associativity),), None)

    assert fills == []
    assert len(work) == before["len"] + 1  # one slot reserved for ⟨y u x⟩
    assert work._kind[len(work) - 1] == 3  # and still a tombstone
    assert work.num_gates == 2
    assert work.edit_count > edits  # a reservation counts as an edit
    after = state(work)
    assert after["strash"] == before["strash"]
    assert after["refs"][: before["len"]] == before["refs"]
    assert after["signature"] == before["signature"]


def test_reserved_slots_never_reach_the_result():
    """The balanced objective's no-edit shortcut hands back its in-place
    copy; a phase that only reserved slots must not qualify for it."""
    mig = _reshaping_example()
    for objective in ("size", "balanced"):
        result = rewrite_for_plim(mig, RewriteOptions(objective=objective))
        assert result._num_dead == 0
        assert len(result) == 1 + result.num_pis + result.num_gates
