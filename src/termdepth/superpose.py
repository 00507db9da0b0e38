"""Composition of terms and closed-form depth predictors for the composite."""

from __future__ import annotations

from typing import Sequence

from .terms import Signature, Term, Var, _check_n_ary, _order, _run, _table, _variable_depths, depth

__all__ = ["is_full", "predict_depth_full", "predict_depth_general", "superpose"]


def _argument_terms(ts: Sequence[Term]) -> tuple[Term, ...]:
    """``ts`` as a tuple, once each item is known to be a Term."""
    ts = tuple(ts)
    for t in ts:
        if not isinstance(t, Term):
            raise ValueError(f"argument term {t!r} is not a Term")
    return ts


def superpose(s: Term, ts: Sequence[Term]) -> Term:
    """Substitute ``ts[i-1]`` for every occurrence of ``x_i`` in ``s``.

    ``s`` must be n-ary for n = ``len(ts)``.  The result is ``s``'s node
    table run on ``ts``, so it shares structure with the inputs: each
    ``ts[j]`` object is plugged in wherever ``x_j`` occurs, and the
    composite can be measured in time linear in the number of distinct
    nodes even when its unfolded tree is huge.
    """
    ts = _argument_terms(ts)
    table = _table(s)
    _check_n_ary(max([entry for entry in table if type(entry) is not tuple]), len(ts), "outer term")
    return _run(table, ts)


def is_full(t: Term) -> bool:
    """Whether ``t`` is a full term.

    An application is full when its children are exactly the variables
    ``x_1..x_r`` in some order (a permutation frontier), or when all of its
    children are themselves full.  Variables are never full.
    """
    if type(t) is Var:
        return False
    memo: dict[int, bool] = {}
    for node in _order(t):
        if type(node) is Var:
            memo[id(node)] = False
            continue
        args = node.args
        frontier = all(type(a) is Var for a in args) and sorted(
            a.index for a in args  # type: ignore[union-attr]
        ) == list(range(1, len(args) + 1))
        memo[id(node)] = frontier or all(memo[id(a)] for a in args)
    return memo[id(t)]


def predict_depth_full(s: Term, ts: Sequence[Term], sig: Signature) -> int:
    """Depth of ``superpose(s, ts)`` for full ``s`` over a single-arity signature.

    Computed without building the composite as
    ``max(depth(t) for t in ts) + depth(s)``.  The single-arity requirement
    is essential; mixed-arity signatures break the additive rule.  A full
    ``s`` over arity n uses exactly x1..xn, so ``ts`` must hold n terms.
    """
    n = sig.common_arity()
    if n is None:
        raise ValueError("the additive depth rule needs a single-arity signature")
    sig.validate_term(s)
    if not is_full(s):
        raise ValueError("outer term must be full")
    ts = _argument_terms(ts)
    if len(ts) != n:
        raise ValueError(f"expected {n} argument terms, got {len(ts)}")
    return max(depth(t) for t in ts) + depth(s)


def predict_depth_general(s: Term, ts: Sequence[Term]) -> int:
    """Depth of ``superpose(s, ts)`` for arbitrary terms.

    Equals ``max(depth_wrt(s, j) + depth(ts[j-1]))`` over the variables
    ``x_j`` occurring in ``s``.
    """
    ts = _argument_terms(ts)
    found = _variable_depths(s)
    _check_n_ary(max(found), len(ts), "outer term")
    return max(d + depth(ts[j - 1]) for j, d in found.items())
