"""Randomized self-checks of the depth predictors.

Generators build random signatures, terms and hypersubstitutions; a table
of named laws says how each law draws a trial and compares the closed-form
prediction against direct construction and measurement.  Every failing case
is greedily shrunk and reported as a replayable :class:`Discrepancy`.

Randomness is CPython's Mersenne Twister (``random.Random``).  Every trial
draws from its own stream seeded with the string ``"<seed>:<trial>"``, so
any single trial replays without rerunning the ones before it; that token
is stored on each discrepancy.

The term generators draw through the stream's ``random()`` and
``getrandbits()`` by CPython's ``_randbelow`` rule, written inline (see
the comment above :func:`gen_term`), so they consume the stream exactly as
``choice``, ``randint``, ``shuffle`` and ``randrange`` do.  For a
``random.Random`` subclass that overrides ``random()`` but not
``getrandbits()``, CPython routes ``choice`` through that ``random()``; the
generators do not, and still draw their choices from ``getrandbits()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .hypersub import (
    Hypersubstitution,
    _hyp,
    apply_hyp,
    compose_hyp,
    hyp_depth,
    is_full_hyp,
    predict_depth_full_hyp,
)
from .occurrences import b_of
from .superpose import is_full, predict_depth_full, predict_depth_general, superpose
from .terms import App, Signature, Term, Var, _app, _check_int, _order, depth, variables
from .textio import _render_input

__all__ = [
    "KINDS",
    "Discrepancy",
    "GenConfig",
    "check_theorem",
    "gen_full_hyp",
    "gen_full_term",
    "gen_hyp",
    "gen_signature",
    "gen_term",
    "trial_stream",
]

# Chance to emit a leaf while depth budget remains; biased low so terms stay
# bushy and max-expressions hit ties.
LEAF_PROBABILITY = 0.3

_REGULAR_ATTEMPTS = 64


@dataclass(frozen=True)
class GenConfig:
    """Tuning knobs for the generators; together with a seed and trial index
    they determine every generated value exactly."""

    seed: int = 0
    max_depth: int = 6
    max_arity: int = 3
    num_symbols: int = 2
    var_bound: int = 3
    projection_rate: float = 0.1
    deletion_bias: float = 0.1

    def __post_init__(self) -> None:
        lowest = {"seed": 0, "max_depth": 0, "max_arity": 1, "num_symbols": 1, "var_bound": 1}
        for name, low in lowest.items():
            _check_int(getattr(self, name), name, low)
        if self.seed >= 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        for name in ("projection_rate", "deletion_bias"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {p!r}")


@dataclass(frozen=True)
class Discrepancy:
    """One failed trial: a predicted value vs the measured one.

    ``inputs`` holds canonical text for the signature and every generated
    value, so the case re-parses and re-fails standalone; ``seed_state`` is
    the ``"<seed>:<trial>"`` token of the originating stream.  For closure
    checks the two integers encode booleans (expected 1, got 0).
    """

    kind: str
    inputs: Mapping[str, str]
    predicted: int
    actual: int
    seed_state: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return Discrepancy, (self.kind, dict(self.inputs), self.predicted, self.actual, self.seed_state)

    def __hash__(self) -> int:
        return hash((self.kind, frozenset(self.inputs.items()), self.predicted, self.actual, self.seed_state))

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": dict(self.inputs),
            "predicted": self.predicted,
            "actual": self.actual,
            "seed_state": self.seed_state,
        }


def trial_stream(seed: int, trial: int) -> random.Random:
    """Independent, replayable RNG stream for one trial."""
    return random.Random(f"{seed}:{trial}")


# ---------------------------------------------------------------------------
# Generators


def gen_signature(cfg: GenConfig, rng: random.Random) -> Signature:
    """Random signature with cfg.num_symbols symbols and arities 1..max_arity."""
    return Signature(
        {f"f{k}": rng.randint(1, cfg.max_arity) for k in range(1, cfg.num_symbols + 1)}
    )


# The generators draw by CPython's own rules, inlined: ``choice(seq)`` is
# ``seq[_randbelow(len(seq))]``; ``_randbelow(n)`` draws
# ``getrandbits(n.bit_length())`` again while the result is ``>= n``;
# ``randint(a, b)`` is ``a + _randbelow(b - a + 1)``, ``randrange(r)`` is
# ``_randbelow(r)``; ``shuffle(x)`` swaps ``x[i]`` with
# ``x[_randbelow(i + 1)]`` for ``i = len(x) - 1 .. 1``.  So they consume the
# stream exactly as those calls do, which the seed tokens' replay contract
# needs; a property test pins this against the choice-based generators.


def gen_term(
    cfg: GenConfig,
    sig: Signature,
    rng: random.Random,
    var_pool: Sequence[int] | None = None,
) -> Term:
    """Random term of depth <= cfg.max_depth.

    Leaves are drawn from ``var_pool`` (default x1..x_var_bound).  Above
    budget 0 a leaf is emitted with probability LEAF_PROBABILITY.  Leaves of
    the same index are one shared ``Var`` object.
    """
    pool = tuple(var_pool) if var_pool is not None else tuple(range(1, cfg.var_bound + 1))
    if not pool:
        raise ValueError("variable pool is empty")
    # choosing from the interned leaves draws exactly as choosing an index
    leaves = tuple(Var(i) for i in pool)
    names = tuple(sig.symbols)
    arities = sig.symbols
    getrandbits, draw = rng.getrandbits, rng.random
    n_leaves, n_names = len(leaves), len(names)
    k_leaves, k_names = n_leaves.bit_length(), n_names.bit_length()
    frames: list[list] = []  # [symbol, arity, args, sibling budget]
    pending = cfg.max_depth
    while True:
        if pending == 0 or draw() < LEAF_PROBABILITY:
            r = getrandbits(k_leaves)
            while r >= n_leaves:
                r = getrandbits(k_leaves)
            term: Term = leaves[r]
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
            r = getrandbits(k_names)
            while r >= n_names:
                r = getrandbits(k_names)
            name = names[r]
            frames.append([name, arities[name], [], pending - 1])
            pending -= 1


def _gen_full(
    rng: random.Random,
    target: int,
    base_names: Sequence[str],
    internal_names: Sequence[str],
    arities: Mapping[str, int],
    first_base_pool: Sequence[str] | None = None,
) -> Term:
    """Random full term of exactly depth ``target``.

    Permutation frontiers draw their symbol from ``base_names``; when
    ``first_base_pool`` is given, the first frontier built uses it instead
    (which pins the maximum frontier arity, and with it the variable set).
    """
    getrandbits = rng.getrandbits

    def _randbelow(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    base, internal = tuple(base_names), tuple(internal_names)
    first = tuple(first_base_pool) if first_base_pool is not None else None
    frames: list[list] = []  # [symbol, args, child targets]
    pending = target
    while True:
        if pending == 1:
            pool = base if first is None else first
            first = None
            name = pool[_randbelow(len(pool))]
            n = arities[name]
            perm = list(range(1, n + 1))
            for i in range(n - 1, 0, -1):  # shuffle(perm)
                j = _randbelow(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
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
            name = internal[_randbelow(len(internal))]
            r = arities[name]
            targets = [1 + _randbelow(pending - 1) for _ in range(r)]
            targets[_randbelow(r)] = pending - 1  # one child carries the height
            frames.append([name, [], targets])
            pending = targets[0]


def gen_full_term(
    cfg: GenConfig, sig: Signature, rng: random.Random, depth: int | None = None
) -> Term:
    """Random full term of exactly the requested depth (default cfg.max_depth)."""
    target = cfg.max_depth if depth is None else depth
    if target < 1:
        raise ValueError("full terms have depth >= 1")
    names = tuple(sig.symbols)
    return _gen_full(rng, target, names, names, sig.symbols)


def gen_full_hyp(cfg: GenConfig, sig: Signature, rng: random.Random) -> Hypersubstitution:
    """Random full hypersubstitution: each image is full over exactly x1..xn.

    The image of an n-ary symbol builds its frontiers from symbols of arity
    <= n, with at least one frontier of arity exactly n, so the image stays
    n-ary while covering all n variables.
    """
    all_names = tuple(sig.symbols)
    images: dict[str, Term] = {}
    for name, n in sig.symbols.items():
        small = tuple(s for s, a in sig.symbols.items() if a <= n)
        exact = tuple(s for s, a in sig.symbols.items() if a == n)
        target = rng.randint(1, max(1, cfg.max_depth))
        images[name] = _gen_full(
            rng, target, small, all_names, sig.symbols, first_base_pool=exact
        )
    return _hyp(sig, images)


def _gen_regular_image(cfg: GenConfig, sig: Signature, rng: random.Random, name: str) -> Term:
    n = sig.symbols[name]
    want = set(range(1, n + 1))
    for _ in range(_REGULAR_ATTEMPTS):
        image = gen_term(cfg, sig, rng, var_pool=range(1, n + 1))
        if variables(image) == want:
            return image
    # resampling hit the attempt cap; fall back to the identity-style image
    return App(name, tuple(Var(i) for i in range(1, n + 1)))


def gen_hyp(
    cfg: GenConfig, sig: Signature, rng: random.Random, regular: bool = False
) -> Hypersubstitution:
    """Random hypersubstitution.

    With probability cfg.projection_rate an image is a bare variable; with
    probability cfg.deletion_bias an image draws its leaves from a proper
    subset of x1..xn, so some variables are guaranteed absent.  With
    ``regular=True`` both knobs are ignored and images are resampled until
    each uses exactly its symbol's variables.
    """
    images: dict[str, Term] = {}
    for name, n in sig.symbols.items():
        if regular:
            images[name] = _gen_regular_image(cfg, sig, rng, name)
            continue
        if rng.random() < cfg.projection_rate:
            images[name] = Var(rng.randint(1, n))
            continue
        pool: Sequence[int] = range(1, n + 1)
        if n >= 2 and rng.random() < cfg.deletion_bias:
            pool = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        images[name] = gen_term(cfg, sig, rng, var_pool=pool)
    return _hyp(sig, images)


# ---------------------------------------------------------------------------
# Shrinking

Slots = dict[str, object]


def _app_positions(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        path, node = stack.pop()
        if type(node) is App:
            yield path, node
            for i in range(len(node.args) - 1, -1, -1):
                stack.append((path + (i,), node.args[i]))


def _replace_path(t: Term, path: tuple[int, ...], replacement: Term) -> Term:
    if not path:
        return replacement
    spine: list[App] = [t]  # type: ignore[list-item]
    for i in path[:-1]:
        spine.append(spine[-1].args[i])  # type: ignore[union-attr]
    result = replacement
    for node, i in zip(reversed(spine), reversed(path)):
        args = list(node.args)
        args[i] = result
        result = _app(node.symbol, tuple(args))
    return result


def _term_candidates(t: Term) -> Iterator[Term]:
    """Strictly smaller variants of ``t``: hoisted children first, then each
    application subtree collapsed to its least variable."""
    if type(t) is Var:
        return
    yield from t.args  # type: ignore[union-attr]
    least: dict[int, int] = {}  # each node's least variable index
    for node in _order(t):
        if type(node) is Var:
            least[id(node)] = node.index
        else:
            least[id(node)] = min([least[id(a)] for a in node.args])  # type: ignore[attr-defined]
    for path, node in _app_positions(t):
        yield _replace_path(t, path, Var(least[id(node)]))


def _hyp_candidates(h: Hypersubstitution) -> Iterator[Hypersubstitution]:
    for name in h.signature.symbols:
        for candidate in _term_candidates(h.assignment[name]):
            images = dict(h.assignment)
            images[name] = candidate
            yield _hyp(h.signature, images)


def _candidates(value: object) -> Iterator[object]:
    if isinstance(value, Hypersubstitution):
        yield from _hyp_candidates(value)
    else:
        yield from _term_candidates(value)  # type: ignore[arg-type]


def _greedy_shrink(slots: Slots, fails: Callable[[Slots], bool]) -> Slots:
    # Every accepted candidate strictly reduces total node count, so this
    # terminates.
    improved = True
    while improved:
        improved = False
        for key in slots:
            for candidate in _candidates(slots[key]):
                trial = dict(slots)
                trial[key] = candidate
                if fails(trial):
                    slots = trial
                    improved = True
                    break
            if improved:
                break
    return slots


# ---------------------------------------------------------------------------
# The laws

@dataclass(frozen=True)
class _Law:
    """One checkable law.

    ``generate`` draws a trial's slots from its stream; the slot order and
    the draw order are the replay contract of the law's seed tokens.
    ``predict`` gives the closed-form value and ``actual`` the one measured
    on the built result.  ``valid``, when set, is the domain every trial
    and shrink candidate must stay inside.  ``shape``, when set, is the
    signature predicate the law needs and what it needs, in words.
    """

    generate: Callable[[GenConfig, Signature, random.Random], Slots]
    predict: Callable[[Signature, Slots], int]
    actual: Callable[[Slots], int]
    valid: Callable[[Slots], bool] | None = None
    shape: tuple[Callable[[Signature], bool], str] | None = None

    def fails(self, sig: Signature, slots: Slots) -> bool:
        """Whether a shrink candidate is still a counterexample inside the
        law's domain; one a predictor rejects is not."""
        try:
            if self.valid is not None and not self.valid(slots):
                return False
            return self.predict(sig, slots) != self.actual(slots)
        except ValueError:
            return False


def _full_term(cfg: GenConfig, sig: Signature, rng: random.Random) -> Term:
    return gen_full_term(cfg, sig, rng, depth=rng.randint(1, max(1, cfg.max_depth)))


def _composition(s: Term, ts: Iterable[Term]) -> Slots:
    """The slots ``s, t1..tn``; a lazy ``ts`` is drawn after ``s``."""
    slots: Slots = {"s": s}
    for j, t in enumerate(ts, 1):
        slots[f"t{j}"] = t
    return slots


def _outer_and_args(slots: Slots) -> tuple[Term, list[Term]]:
    return slots["s"], [slots[f"t{j}"] for j in range(1, len(slots))]  # type: ignore[return-value]


def _composite(slots: Slots) -> Term:
    return superpose(*_outer_and_args(slots))


def _full_hyp_pair(cfg: GenConfig, sig: Signature, rng: random.Random) -> Slots:
    return {"sigma1": gen_full_hyp(cfg, sig, rng), "sigma2": gen_full_hyp(cfg, sig, rng)}


def _all_full_hyps(slots: Slots) -> bool:
    return all(is_full_hyp(h) for h in slots.values())  # type: ignore[arg-type]


_ONE_ARITY = (
    lambda sig: sig.common_arity() is not None,
    "a signature whose symbols share one arity",
)
_ONE_SYMBOL = (lambda sig: len(sig.symbols) == 1, "a one-symbol signature")

_LAWS: dict[str, _Law] = {
    "thm2.3": _Law(
        generate=lambda cfg, sig, rng: _composition(
            _full_term(cfg, sig, rng),
            (gen_term(cfg, sig, rng) for _ in range(sig.common_arity())),  # type: ignore[arg-type]
        ),
        predict=lambda sig, sl: predict_depth_full(*_outer_and_args(sl), sig),
        actual=lambda sl: depth(_composite(sl)),
        shape=_ONE_ARITY,
    ),
    "thm3.3": _Law(
        generate=lambda cfg, sig, rng: _composition(
            gen_term(cfg, sig, rng), (gen_term(cfg, sig, rng) for _ in range(cfg.var_bound))
        ),
        predict=lambda sig, sl: predict_depth_general(*_outer_and_args(sl)),
        actual=lambda sl: depth(_composite(sl)),
    ),
    "cor4.5": _Law(
        generate=lambda cfg, sig, rng: {
            "sigma": gen_full_hyp(cfg, sig, rng),
            "t": _full_term(cfg, sig, rng),
        },
        predict=lambda sig, sl: predict_depth_full_hyp(sl["sigma"], sl["t"]),
        actual=lambda sl: depth(apply_hyp(sl["sigma"], sl["t"])),
        shape=_ONE_SYMBOL,
    ),
    "cor4.6": _Law(
        generate=_full_hyp_pair,
        predict=lambda sig, sl: hyp_depth(sl["sigma1"]) * hyp_depth(sl["sigma2"]),
        actual=lambda sl: hyp_depth(compose_hyp(sl["sigma1"], sl["sigma2"])),
        valid=_all_full_hyps,
        shape=_ONE_SYMBOL,
    ),
    "thm5.1": _Law(
        generate=lambda cfg, sig, rng: {"sigma": gen_hyp(cfg, sig, rng), "t": gen_term(cfg, sig, rng)},
        predict=lambda sig, sl: b_of(sl["sigma"], sl["t"]),
        actual=lambda sl: depth(apply_hyp(sl["sigma"], sl["t"])),
    ),
    # Full terms can use up to max-arity-many variables, so the composition
    # arity must cover that regardless of cfg.var_bound.
    "lemma2.2": _Law(
        generate=lambda cfg, sig, rng: _composition(
            _full_term(cfg, sig, rng),
            (_full_term(cfg, sig, rng) for _ in range(max(sig.symbols.values()))),
        ),
        predict=lambda sig, sl: 1,
        actual=lambda sl: int(is_full(_composite(sl))),
        valid=lambda sl: all(is_full(t) for t in sl.values()),  # type: ignore[arg-type]
    ),
    "lemma4.2": _Law(
        generate=_full_hyp_pair,
        predict=lambda sig, sl: 1,
        actual=lambda sl: int(is_full_hyp(compose_hyp(sl["sigma1"], sl["sigma2"]))),
        valid=_all_full_hyps,
    ),
}

KINDS = tuple(_LAWS)


def signature_supports(kind: str, sig: Signature) -> bool:
    """Whether ``sig`` has the shape the law ``kind`` requires."""
    shape = _LAWS[kind].shape
    return shape is None or shape[0](sig)


def check_theorem(
    kind: str, trials: int, cfg: GenConfig, sig: Signature
) -> list[Discrepancy]:
    """Run ``trials`` independent random cases of one named law.

    Every failing case is greedily shrunk before being reported; an empty
    list means the law held on every trial.  Identical arguments give an
    identical result list.
    """
    if kind not in _LAWS:
        raise ValueError(f"unknown check {kind!r}; pick one of: {', '.join(KINDS)}")
    _check_int(trials, "trials", 1)
    law = _LAWS[kind]
    if not signature_supports(kind, sig):
        raise ValueError(f"{kind} needs {law.shape[1]}")  # type: ignore[index]
    found: list[Discrepancy] = []
    for trial in range(trials):
        slots = law.generate(cfg, sig, trial_stream(cfg.seed, trial))
        # The generated trial itself is measured unguarded: if a generator
        # ever produces inputs a predictor rejects, that is a bug worth a
        # loud error, not a silently passing trial.
        if law.valid is not None and not law.valid(slots):
            raise RuntimeError(f"{kind}: generator produced an invalid trial")
        predicted, actual = law.predict(sig, slots), law.actual(slots)
        if predicted == actual:
            continue
        slots = _greedy_shrink(slots, lambda sl: law.fails(sig, sl))
        predicted, actual = law.predict(sig, slots), law.actual(slots)
        inputs = {key: _render_input(value) for key, value in {"signature": sig, **slots}.items()}
        found.append(Discrepancy(kind, inputs, predicted, actual, f"{cfg.seed}:{trial}"))
    return found
