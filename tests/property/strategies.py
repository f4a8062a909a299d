"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.mig.graph import Mig
from repro.mig.signal import Signal


@st.composite
def migs(draw, max_pis: int = 5, max_gates: int = 25, min_pis: int = 2):
    """Arbitrary well-formed MIGs with named PIs/POs."""
    num_pis = draw(st.integers(min_pis, max_pis))
    num_gates = draw(st.integers(1, max_gates))
    mig = Mig(name="prop")
    signals = [mig.add_pi(f"x{i}") for i in range(num_pis)]
    signals.append(Signal.CONST0)
    for _ in range(num_gates):
        picks = draw(
            st.lists(st.integers(0, len(signals) - 1), min_size=3, max_size=3)
        )
        flips = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        children = [
            ~signals[i] if flip else signals[i] for i, flip in zip(picks, flips)
        ]
        signals.append(mig.add_maj(*children))
    num_pos = draw(st.integers(1, 3))
    for k in range(num_pos):
        index = draw(st.integers(0, len(signals) - 1))
        flip = draw(st.booleans())
        mig.add_po(~signals[index] if flip else signals[index], f"f{k}")
    return mig



@st.composite
def motif_migs(draw, max_pis: int = 5, max_motifs: int = 30):
    """MIGs built from the size rules' patterns, so rewriting fires often.

    Each motif is an Ω.D(R→L), Ω.A or Ψ.A pattern (or a plain gate) over
    random existing signals; the Ω.D and Ω.A motifs sometimes also build
    their rewritten form, so a committed rewrite strash-merges or
    collapses readers — the cascades ``replace_node`` must complete.
    """
    num_pis = draw(st.integers(3, max_pis))
    mig = Mig(name="motifs")
    pool = [mig.add_pi(f"x{i}") for i in range(num_pis)] + [Signal.CONST0]
    outputs = []
    for _ in range(draw(st.integers(1, max_motifs))):
        x, y, u, v, z = (
            ~s if flip else s
            for s, flip in zip(
                draw(st.lists(st.sampled_from(pool), min_size=5, max_size=5)),
                draw(st.lists(st.booleans(), min_size=5, max_size=5)),
            )
        )
        kind = draw(st.sampled_from(("distributivity", "associativity", "psi", "plain")))
        rewritten_too = draw(st.booleans())
        if kind == "distributivity":
            out = mig.add_maj(mig.add_maj(x, y, u), mig.add_maj(x, y, v), z)
            if rewritten_too:
                pool.append(mig.add_maj(x, y, mig.add_maj(u, v, z)))
        elif kind == "associativity":
            out = mig.add_maj(x, u, mig.add_maj(y, u, z))
            if rewritten_too:
                pool.append(mig.add_maj(y, u, x))
        elif kind == "psi":
            out = mig.add_maj(x, u, mig.add_maj(y, ~u, z))
        else:
            out = mig.add_maj(x, y, z)
        pool.append(out)
        if draw(st.booleans()):
            outputs.append(out)
    for k, out in enumerate(outputs or [pool[-1]]):
        mig.add_po(out, f"f{k}")
    return mig

def packed_bits(width: int = 64):
    """Packed evaluation words for bit-parallel identities."""
    return st.integers(0, (1 << width) - 1)
