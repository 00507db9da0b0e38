"""Reference answers for the benchmark, independent of termdepth's traversals.

Nodes are read by duck typing: a node with an ``args`` tuple is an
application, any other node is a variable with an ``index``.  Nothing here
calls a termdepth measure, so a wrong answer from the package cannot be
hidden by the same wrong answer here.  The memoized folds are linear in
distinct nodes and safe on the benchmark's shared DAGs; the naive recursive
oracles are only used on the small terms of the verification workloads.
"""

from __future__ import annotations


def fold(t, leaf, node):
    """Bottom-up fold over the distinct nodes of ``t``, memoized by identity.

    ``leaf(var)`` gives a variable's value and ``node(app, child_values)``
    an application's.  Returns ``(value of t, number of distinct nodes)``.
    """
    memo: dict[int, object] = {}
    stack = [t]
    while stack:
        n = stack[-1]
        if id(n) in memo:
            stack.pop()
            continue
        args = getattr(n, "args", None)
        if args is None:
            memo[id(n)] = leaf(n)
            stack.pop()
            continue
        pending = [a for a in args if id(a) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(n)] = node(n, [memo[id(a)] for a in args])
    return memo[id(t)], len(memo)


def depth(t) -> int:
    return fold(t, lambda v: 0, lambda n, cs: 1 + max(cs))[0]


def leaves(t) -> int:
    """Leaf positions of the unfolded tree (termdepth's ``length``)."""
    return fold(t, lambda v: 1, lambda n, cs: sum(cs))[0]


def distinct_nodes(t) -> int:
    return fold(t, lambda v: None, lambda n, cs: None)[1]


def variables(t) -> frozenset:
    return fold(t, lambda v: frozenset((v.index,)), lambda n, cs: frozenset().union(*cs))[0]


def depth_wrt(t, l: int) -> int:
    def node(n, cs):
        reached = [c for c in cs if c is not None]
        return 1 + max(reached) if reached else None

    value = fold(t, lambda v: 0 if v.index == l else None, node)[0]
    return 0 if value is None else value


def rebuild_apply(h, t, app, var):
    """A fresh copy of ``apply_hyp(h, t)`` built with the constructors
    ``app(symbol, args)`` and ``var(index)``, sharing no node with the
    package's own result."""

    def substitute(image, children):
        memo: dict[int, object] = {}

        def go(n):
            if id(n) not in memo:
                args = getattr(n, "args", None)
                memo[id(n)] = (
                    children[n.index - 1] if args is None else app(n.symbol, tuple(go(a) for a in args))
                )
            return memo[id(n)]

        return go(image)

    return fold(
        t,
        lambda v: var(v.index),
        lambda n, cs: substitute(h.assignment[n.symbol], cs),
    )[0]


def composed_leaf_counts(h) -> dict[str, tuple[int, ...]]:
    """For each symbol f of arity n: how many leaves of ``h(h(f(x1..xn)))``
    are each of x1..xn.  Lets the benchmark size ``h(h(t))`` without
    building it."""
    sig = h.signature.symbols
    once = {
        name: tuple(_count_leaves_of(h.assignment[name], i) for i in range(1, arity + 1))
        for name, arity in sig.items()
    }

    def vector(image, arity):
        def leaf(v):
            return tuple(int(v.index == i) for i in range(1, arity + 1))

        def node(n, cs):
            weights = once[n.symbol]
            return tuple(sum(w * c[i] for w, c in zip(weights, cs)) for i in range(arity))

        return fold(image, leaf, node)[0]

    return {name: vector(h.assignment[name], arity) for name, arity in sig.items()}


def _count_leaves_of(t, i: int) -> int:
    return fold(t, lambda v: int(v.index == i), lambda n, cs: sum(cs))[0]


def weighted_leaves(t, weights: dict[str, tuple[int, ...]]) -> int:
    """Leaves of the image of ``t`` under a hypersubstitution whose image of
    ``f`` holds ``weights[f][i]`` copies of ``x_{i+1}``."""
    return fold(
        t,
        lambda v: 1,
        lambda n, cs: sum(w * c for w, c in zip(weights[n.symbol], cs)),
    )[0]


# ---------------------------------------------------------------------------
# Naive recursive oracles for thm5.1, after the paper's definitions.


def naive_wrt(t, l: int):
    """Depth of ``t`` along paths to ``x_l``, or None when ``x_l`` is absent."""
    args = getattr(t, "args", None)
    if args is None:
        return 0 if t.index == l else None
    below = [d for d in (naive_wrt(a, l) for a in args) if d is not None]
    return 1 + max(below) if below else None


def _image_depth(image, child_depths) -> int:
    args = getattr(image, "args", None)
    if args is None:
        return child_depths[image.index - 1]
    return 1 + max(_image_depth(a, child_depths) for a in args)


def naive_apply_depth(h, t) -> int:
    """Depth of ``apply_hyp(h, t)``, evaluated on the images without
    building the rewritten term."""
    args = getattr(t, "args", None)
    if args is None:
        return 0
    return _image_depth(h.assignment[t.symbol], [naive_apply_depth(h, a) for a in args])


def _step(h, symbol: str, place: int) -> int:
    return naive_wrt(h.assignment[symbol], place) or 0


def naive_occurrence_sum(h, t) -> int:
    """Maximum over leaf occurrences of the summed per-step image depths,
    over occurrences whose root step is nonzero (the paper's ``b``)."""

    def best_below(n) -> int:
        args = getattr(n, "args", None)
        if args is None:
            return 0
        return max(_step(h, n.symbol, p) + best_below(c) for p, c in enumerate(args, start=1))

    args = getattr(t, "args", None)
    if args is None:
        return 0
    best = 0
    for place, child in enumerate(args, start=1):
        top = _step(h, t.symbol, place)
        if top:
            best = max(best, top + best_below(child))
    return best
