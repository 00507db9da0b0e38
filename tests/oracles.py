"""Naive recursive reference implementations.

Each function is transcribed straight from the inductive definition it
mirrors and stays deliberately independent of the package's iterative
code: different traversal style, no sharing-awareness, no memoization.
Only safe for small terms.  ``postorder_reference`` is the exception: it
keeps the package's first traversal generator as it was, to pin the node
order that every fold relies on.  The ``*_reference`` generators are the
other exceptions: they keep the term generators as they were when they
drew through ``rng.choice``, ``randint``, ``shuffle`` and ``randrange``, to
pin the draw sequence that every seed token replays.
"""

import random
from typing import Mapping, Sequence

from termdepth import App, GenConfig, Hypersubstitution, Signature, Term, Var
from termdepth.terms import _app
from termdepth.verify import LEAF_PROBABILITY


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


def gen_term_reference(
    cfg: GenConfig,
    sig: Signature,
    rng: random.Random,
    var_pool: Sequence[int] | None = None,
) -> Term:
    pool = tuple(var_pool) if var_pool is not None else tuple(range(1, cfg.var_bound + 1))
    if not pool:
        raise ValueError("variable pool is empty")
    # choosing from the interned leaves draws exactly as choosing an index
    leaves = tuple(Var(i) for i in pool)
    names = tuple(sig.symbols)
    arities = sig.symbols
    frames: list[list] = []  # [symbol, arity, args, sibling budget]
    pending = cfg.max_depth
    while True:
        if pending == 0 or rng.random() < LEAF_PROBABILITY:
            term: Term = rng.choice(leaves)
            while True:
                if not frames:
                    return term
                top = frames[-1]
                top[2].append(term)
                if len(top[2]) < top[1]:
                    pending = top[3]
                    break
                frames.pop()
                term = _app(top[0], tuple(top[2]))
        else:
            name = rng.choice(names)
            frames.append([name, arities[name], [], pending - 1])
            pending -= 1


def gen_full_reference(
    rng: random.Random,
    target: int,
    base_names: Sequence[str],
    internal_names: Sequence[str],
    arities: Mapping[str, int],
    first_base_pool: Sequence[str] | None = None,
) -> Term:
    frames: list[list] = []  # [symbol, args, child targets]
    pending = target
    force_first = first_base_pool is not None
    while True:
        if pending == 1:
            if force_first:
                name = rng.choice(tuple(first_base_pool))  # type: ignore[arg-type]
                force_first = False
            else:
                name = rng.choice(tuple(base_names))
            n = arities[name]
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            term = _app(name, tuple([Var(j) for j in perm]))
            while True:
                if not frames:
                    return term
                top = frames[-1]
                top[1].append(term)
                if len(top[1]) < len(top[2]):
                    pending = top[2][len(top[1])]
                    break
                frames.pop()
                term = _app(top[0], tuple(top[1]))
        else:
            name = rng.choice(tuple(internal_names))
            r = arities[name]
            targets = [rng.randint(1, pending - 1) for _ in range(r)]
            targets[rng.randrange(r)] = pending - 1  # one child carries the height
            frames.append([name, [], targets])
            pending = targets[0]


def gen_full_term_reference(
    cfg: GenConfig, sig: Signature, rng: random.Random, depth: int | None = None
) -> Term:
    target = cfg.max_depth if depth is None else depth
    if target < 1:
        raise ValueError("full terms have depth >= 1")
    names = tuple(sig.symbols)
    return gen_full_reference(rng, target, names, names, sig.symbols)


def gen_full_hyp_reference(cfg: GenConfig, sig: Signature, rng: random.Random) -> Hypersubstitution:
    all_names = tuple(sig.symbols)
    images: dict[str, Term] = {}
    for name, n in sig.symbols.items():
        small = tuple(s for s, a in sig.symbols.items() if a <= n)
        exact = tuple(s for s, a in sig.symbols.items() if a == n)
        target = rng.randint(1, max(1, cfg.max_depth))
        images[name] = gen_full_reference(
            rng, target, small, all_names, sig.symbols, first_base_pool=exact
        )
    return Hypersubstitution(sig, images)


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
