"""Sequential functional decomposition (TurboSYN's label-update extension).

When TurboMap's label update finds no K-feasible cut of height ``L(v)``,
TurboSYN does not give up on the label: following the paper's
``LabelUpdateSYN`` (Figure 3), it computes a *sequence of min-cuts*
``(X_h, X-bar_h)`` of heights ``L(v) - h`` for ``h = 0, 1, ...`` — wider
than ``K`` but bounded by ``Cmax = 15`` — composes the exact sequential
cone function ``f(u1^w1, ..., um^wm)`` of each cut, and tries to realize
it as a tree of K-LUTs whose root is still ready by ``L(v)``.  Cut inputs
are sorted by increasing ``l(u) - phi*w`` (the paper's Section 3.3), which
:func:`repro.boolfn.decompose.synthesize_lut_tree` does internally: the
earliest-arriving inputs are folded through Roth-Karp encoder LUTs.

Every min-cut of the descent is a height-cut query on the compiled
kernel (:func:`repro.core.kcut.find_height_cut`); the first one may
reuse the packed expansion the label solver just built.  A success means
``l(v) = L(v)`` is achievable with resynthesis; the recorded cut + LUT
tree is replayed by :mod:`repro.core.mapping`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.boolfn.decompose import LutTree, synthesize_lut_tree
from repro.core.expanded import DEFAULT_MAX_COPIES, Copy, sequential_cone_function
from repro.core.kcut import cut_on_expansion, find_height_cut
from repro.kernel.expand import PackedExpansion
from repro.netlist.graph import SeqCircuit

#: The paper's cut-size bound for resynthesis ("set to be 15 in TurboSYN").
DEFAULT_CMAX = 15

#: Safety bound on how far below ``L(v)`` the min-cut sequence descends.
MAX_DESCENT = 64


@dataclass(frozen=True)
class SeqResyn:
    """A recorded sequential resynthesis for one node."""

    cut: Tuple[Copy, ...]
    tree: LutTree


def find_seq_resynthesis(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    labels: List[int],
    deadline: int,
    k: int,
    cmax: int = DEFAULT_CMAX,
    extra_depth: int = 0,
    first_expansion: Optional[PackedExpansion] = None,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> Optional[SeqResyn]:
    """Try to realize label ``deadline`` for ``v`` through decomposition.

    Returns the cut and LUT tree on success, ``None`` when no cut of at
    most ``cmax`` inputs decomposes in time.

    ``first_expansion`` is an optional pre-built partial expansion of
    ``E_v`` at height ``deadline`` (under the *current* labels): the
    label solver hands over the expansion its just-failed K-cut check
    built, so the ``h = 0`` min-cut query skips the identical
    re-expansion (the expansion depends only on ``v``, the threshold and
    the label heights — not on the cut-size bound).

    ``max_copies`` bounds both the deeper re-expansions and the cone
    evaluations.
    """
    previous_cut: Optional[Tuple[Copy, ...]] = None
    for h in range(MAX_DESCENT):
        threshold = deadline - h
        if h == 0 and first_expansion is not None:
            cut = cut_on_expansion(first_expansion, cmax)
        else:
            cut = find_height_cut(
                circuit, v, phi, labels, threshold, max_cut=cmax,
                extra_depth=extra_depth, max_copies=max_copies,
            )
        if cut is None:
            return None  # blocked or wider than Cmax: deeper only grows
        cut_t = tuple(cut)
        if cut_t == previous_cut:
            continue  # same cut as the previous height: already failed
        previous_cut = cut_t
        if not cut:
            # Constant cone: a zero-input LUT always meets any deadline >= 1.
            func = sequential_cone_function(circuit, v, [], max_copies=max_copies)
            tree = synthesize_lut_tree(func, [], k, deadline)
            return SeqResyn((), tree) if tree is not None else None
        func = sequential_cone_function(circuit, v, cut, max_copies=max_copies)
        arrival = [labels[u] - phi * w for (u, w) in cut]
        tree = synthesize_lut_tree(func, arrival, k, deadline)
        if tree is not None:
            return SeqResyn(cut_t, tree)
    return None
