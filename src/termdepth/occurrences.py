"""Occurrence paths and the occurrence-sum depth predictor.

For the i-th variable occurrence of a term (in yield order) the occurrence
path is the chain of subterms from that leaf up to the root.  Summing, for
each step, the per-position depth of the image of the symbol entered gives
an occurrence score; ``b_of`` takes the maximum score over occurrences
whose root-level contribution is nonzero, and is the paper's prediction of
``depth(apply_hyp(h, t))``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypersub import Hypersubstitution, _Views
from .terms import App, Term, Var, _length_map, _order, _variable_depths

__all__ = [
    "BTrace",
    "OccurrencePath",
    "b_of",
    "b_trace",
    "beta",
    "occurrence_path",
]


@dataclass(frozen=True)
class OccurrencePath:
    """Chain of subterms from the i-th leaf (yield order) up to the root.

    ``chain[0]`` is the leaf and ``chain[-1]`` the whole term;
    ``positions[k-1]`` is the 1-based argument place of ``chain[k-1]``
    inside ``chain[k]``.
    """

    occurrence_index: int
    chain: tuple[Term, ...]
    positions: tuple[int, ...]

    @property
    def beta(self) -> int:
        """Number of applications on the path: ``len(chain) - 1``."""
        return len(self.chain) - 1


@dataclass(frozen=True)
class BTrace:
    """Per-level depth contributions along one occurrence path.

    ``b_values[0]`` is always 0; for k >= 1, ``b_values[k]`` is the
    per-position depth of the image of the symbol at ``chain[k]``.
    ``top_nonzero`` records whether the contribution at the root level
    (the last entry) is nonzero.
    """

    occurrence_index: int
    b_values: tuple[int, ...]
    b_sum: int
    top_nonzero: bool


def occurrence_path(t: Term, i: int) -> OccurrencePath:
    """Locate the i-th variable occurrence of ``t`` (1-based, yield order)."""
    lengths = _length_map(t)
    total = lengths[id(t)]
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= total:
        raise ValueError(f"occurrence index {i!r} out of range 1..{total}")
    chain = [t]
    positions: list[int] = []
    node = t
    k = i
    while type(node) is App:
        for place, child in enumerate(node.args, start=1):
            span = lengths[id(child)]
            if k <= span:
                positions.append(place)
                chain.append(child)
                node = child
                break
            k -= span
    chain.reverse()
    positions.reverse()
    return OccurrencePath(occurrence_index=i, chain=tuple(chain), positions=tuple(positions))


def beta(t: Term, i: int) -> int:
    """Node depth of the i-th leaf: applications on its root-to-leaf path."""
    return occurrence_path(t, i).beta


def b_trace(h: Hypersubstitution, t: Term, i: int) -> BTrace:
    """The per-level contributions of ``h`` along the i-th occurrence path of ``t``.

    Each b-value is read from the depth map of ``h``'s image of the symbol
    entered, 0 for a place the image drops; the depth map of each image the
    path uses is built once per call.
    """
    h.signature.validate_term(t)
    path = occurrence_path(t, i)
    maps = _Views(h, _variable_depths)
    values = [0]
    for place, parent in zip(path.positions, path.chain[1:]):
        values.append(maps[parent.symbol].get(place, 0))  # type: ignore[attr-defined]
    return BTrace(
        occurrence_index=i,
        b_values=tuple(values),
        b_sum=sum(values),
        top_nonzero=values[-1] != 0,
    )


def b_of(h: Hypersubstitution, t: Term) -> int:
    """Maximum ``b_sum`` over occurrences whose root-level step is nonzero, else 0.

    The occurrence-sum prediction of ``depth(apply_hyp(h, t))``.  Exact
    whenever every image keeps all the variables of its symbol and no image
    is a bare variable; images that drop variables or project can make the
    prediction diverge from the measured depth (the verification suite
    reports such cases as counterexamples).

    A longest path over the distinct nodes of ``t``, children first, with
    ``best(x) = 0`` and ``best(f(t1..tn)) = max_p(b_f(p) + best(tp))``, where
    the b-value ``b_f(p) = depth_wrt(img_f, p)`` is read from the depth map of
    ``img_f``, 0 for a place the image drops; the depth map of each image
    the term uses is built once per call.  The nonzero-top filter applies
    only to the root's edges.  The same pass checks ``t`` against the
    signature.
    """
    if type(t) is Var:
        return 0
    arities = h.signature.symbols
    maps = _Views(h, _variable_depths)
    best: dict[int, int] = {}
    for node in _order(t):
        if type(node) is Var:
            best[id(node)] = 0
            continue
        symbol, args = node.symbol, node.args  # type: ignore[attr-defined]
        if arities.get(symbol) != len(args):
            h.signature.validate_term(node)  # raises: the children already passed
        depths = maps[symbol]
        longest = 0
        for p, a in enumerate(args, 1):
            v = depths.get(p, 0) + best[id(a)]
            if v > longest:
                longest = v
        best[id(node)] = longest
    root, args = maps[t.symbol], t.args  # type: ignore[attr-defined]
    return max([b + best[id(args[p - 1])] for p, b in root.items() if b] or [0])

