"""Invariants the worklist engine's phase loop relies on.

* **Ω.M-clean between rules.**  After every worklist phase and every
  effort cycle, no live gate is trivially reducible (``Mig._simplify_enc``)
  and every live gate owns its structural-hash key.  This is why the size
  phases run no Ω.M rule: the private copy starts clean, rules build
  through the simplifying constructor, and ``replace_node`` cascades every
  collapse and merge it causes.
* **The fixed-point signature.**  The encoding-level ``_signature`` is the
  (gate count, complement histogram, instruction estimate) triple of the
  analysis functions, including on gates with constant and
  complemented-constant children and on graphs with tombstones.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rewriting
from repro.core.cost import estimate_instructions
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.algebra import try_associativity, try_distributivity_rl
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
    phase = _checked(rewriting._worklist_phase)
    cycle = _checked(rewriting._size_cycle_worklist)
    with mock.patch.object(rewriting, "_worklist_phase", phase), mock.patch.object(
        rewriting, "_size_cycle_worklist", cycle
    ):
        rewrite_for_plim(mig, options)


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
