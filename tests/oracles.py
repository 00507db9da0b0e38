"""Naive recursive reference implementations.

Each function is transcribed straight from the inductive definition it
mirrors and stays deliberately independent of the package's iterative
code: different traversal style, no sharing-awareness, no memoization.
Only safe for small terms.  ``postorder_reference`` is the exception: it
keeps the package's first traversal generator as it was, to pin the node
order that every fold relies on.
"""

from termdepth import App, Hypersubstitution, Term, Var


def postorder_reference(t: Term):
    """The traversal contract, kept as the generator that first defined
    it: each distinct subterm object once, children pushed in argument
    order and popped last-first, a node seen when first popped."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is App:
            stack.extend((a, False) for a in node.args if id(a) not in seen)


def depth_rec(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max(depth_rec(a) for a in t.args)


def vars_rec(t: Term) -> set[int]:
    if isinstance(t, Var):
        return {t.index}
    out: set[int] = set()
    for a in t.args:
        out |= vars_rec(a)
    return out


def depth_wrt_rec(t: Term, l: int) -> int:
    if isinstance(t, Var):
        return 0
    if l not in vars_rec(t):
        return 0
    return 1 + max(depth_wrt_rec(a, l) for a in t.args if l in vars_rec(a))


def yield_rec(t: Term) -> list[int]:
    if isinstance(t, Var):
        return [t.index]
    out: list[int] = []
    for a in t.args:
        out.extend(yield_rec(a))
    return out


def superpose_rec(s: Term, ts) -> Term:
    if isinstance(s, Var):
        return ts[s.index - 1]
    return App(s.symbol, tuple(superpose_rec(a, ts) for a in s.args))


def apply_hyp_rec(h: Hypersubstitution, t: Term) -> Term:
    if isinstance(t, Var):
        return t
    children = [apply_hyp_rec(h, a) for a in t.args]
    return superpose_rec(h.assignment[t.symbol], children)


def is_full_rec(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    frontier = all(isinstance(a, Var) for a in t.args) and sorted(
        a.index for a in t.args
    ) == list(range(1, len(t.args) + 1))
    return frontier or all(is_full_rec(a) for a in t.args)


def leaf_paths(t: Term) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Per leaf in yield order: the 1-based argument places and parent
    symbols along its path, ordered from the leaf upward."""
    if isinstance(t, Var):
        return [((), ())]
    out = []
    for place, child in enumerate(t.args, start=1):
        for places, symbols in leaf_paths(child):
            out.append((places + (place,), symbols + (t.symbol,)))
    return out


def b_of_rec(h: Hypersubstitution, t: Term) -> int:
    """The occurrence-sum predictor evaluated literally, one occurrence at
    a time, with the nonzero-top filter."""
    best = 0
    for places, symbols in leaf_paths(t):
        values = [depth_wrt_rec(h.assignment[sym], place) for place, sym in zip(places, symbols)]
        if values and values[-1] != 0:
            best = max(best, sum(values))
    return best


def surviving_depth_rec(h: Hypersubstitution, t: Term) -> int:
    """Occurrence-sum maximum restricted to occurrences every step of which
    keeps its variable (the step's place occurs in the image's variable
    set).  Unlike the nonzero-top filter this matches the measured depth of
    the rewritten term for arbitrary hypersubstitutions."""
    best = 0
    for places, symbols in leaf_paths(t):
        steps = list(zip(places, symbols))
        if all(place in vars_rec(h.assignment[sym]) for place, sym in steps):
            best = max(best, sum(depth_wrt_rec(h.assignment[sym], place) for place, sym in steps))
    return best
