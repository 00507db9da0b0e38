"""Hypersubstitutions: symbol-wise term rewriting lifted to whole terms.

A hypersubstitution assigns to every n-ary symbol an n-ary image term over
its signature; the public constructor checks each image against the
signature.  Its extension rewrites a term bottom-up, superposing the image
of each symbol onto the rewritten children while leaving variables fixed.
Composition of hypersubstitutions and the identity make them a monoid.

A hypersubstitution holds only its signature and its assignment; its
image terms, like any term, keep their own ``_order`` listings.  Each fold
reads its view of an image from a per-call ``_Views`` map, which builds
the view the first time the fold meets that symbol: ``apply_hyp`` reads
the image's node table (``terms._table``) and runs it once per distinct
node of the term through ``terms._run``; ``b_of`` and ``b_trace`` read the
depth of each variable the image keeps (``terms._variable_depths``).  An
image whose symbol the term does not hold gets no view; ``is_regular_hyp``
walks each image once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from .superpose import is_full
from .terms import (
    App, Signature, Term, Var, _order, _run, _table, arity_bound, depth, variables
)

__all__ = [
    "Hypersubstitution",
    "apply_hyp",
    "compose_hyp",
    "hyp_depth",
    "identity_hyp",
    "is_full_hyp",
    "is_regular_hyp",
    "predict_depth_full_hyp",
]


def _image_beyond_arity(name: str, image: Term, arity: int) -> str | None:
    """The complaint when ``image`` uses a variable beyond ``name``'s arity, else None."""
    bound = arity_bound(image)
    return f"image of {name!r} uses x{bound} but {name!r} is {arity}-ary" if bound > arity else None


@dataclass(frozen=True)
class Hypersubstitution:
    """Total, arity-respecting assignment of an image term to every symbol.

    The image of an n-ary symbol is a term over the signature that uses
    only the variables x1..xn; a bare variable is allowed, so projections
    are representable.
    """

    signature: Signature
    assignment: Mapping[str, Term]

    def __post_init__(self) -> None:
        table = dict(self.assignment)
        missing = [name for name in self.signature.symbols if name not in table]
        if missing:
            raise ValueError(f"missing image(s) for: {', '.join(missing)}")
        extra = [name for name in table if name not in self.signature.symbols]
        if extra:
            raise ValueError(f"image(s) for unknown symbol(s): {', '.join(extra)}")
        for name, image in table.items():
            if not isinstance(image, Term):
                raise ValueError(f"image of {name!r} is not a Term")
            problem = _image_beyond_arity(name, image, self.signature.symbols[name])
            if problem:
                raise ValueError(problem)
            try:
                self.signature.validate_term(image)
            except ValueError as exc:
                raise ValueError(f"image of {name!r}: {exc}") from None
        object.__setattr__(self, "assignment", MappingProxyType(table))

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # through the public checks, with a plain dict for the read-only view
        return Hypersubstitution, (self.signature, dict(self.assignment))

    def __hash__(self) -> int:  # a mappingproxy is not hashable
        return hash((self.signature, frozenset(self.assignment.items())))

    def image(self, name: str) -> Term:
        try:
            return self.assignment[name]
        except KeyError:
            raise ValueError(f"unknown operation symbol {name!r}") from None


def _hyp(sig: Signature, images: dict[str, Term]) -> Hypersubstitution:
    """Build a Hypersubstitution without the public checks.

    For ones the package builds itself: ``images`` is a fresh dict that maps
    every symbol of ``sig`` to a term over ``sig`` within its arity.
    """
    h = object.__new__(Hypersubstitution)
    object.__setattr__(h, "signature", sig)
    object.__setattr__(h, "assignment", MappingProxyType(images))
    return h


class _Views(dict):
    """A per-call map from each symbol of ``h`` to ``view(_order(image))``,
    the view of its image that a fold reads, built the first time the fold
    reads that symbol."""

    __slots__ = ("images", "view")

    def __init__(self, h: Hypersubstitution, view: Callable[[list[Term]], object]):
        super().__init__()
        self.images = h.assignment
        self.view = view

    def __missing__(self, symbol: str) -> object:
        value = self[symbol] = self.view(_order(self.images[symbol]))
        return value


def identity_hyp(sig: Signature) -> Hypersubstitution:
    """The unit of composition: each n-ary ``f`` maps to ``f(x1,..,xn)``."""
    images = {
        name: App(name, tuple(Var(i) for i in range(1, arity + 1)))
        for name, arity in sig.symbols.items()
    }
    return _hyp(sig, images)


def apply_hyp(h: Hypersubstitution, t: Term) -> Term:
    """Extend ``h`` to the term ``t``.

    Variables stay fixed; every application ``f(...)`` becomes the image of
    ``f`` superposed onto the rewritten children, by running the node table
    of ``f``'s image on them; each image the term uses is tabled once per
    call.  The result shares subterm objects, so repeated arguments do not
    blow up memory.
    """
    arities = h.signature.symbols
    tables = _Views(h, _table)
    memo: dict[int, Term] = {}
    for node in _order(t):
        if type(node) is Var:
            memo[id(node)] = node
            continue
        if arities.get(node.symbol) != len(node.args):
            h.signature.validate_term(node)  # raises: the children already passed
        memo[id(node)] = _run(tables[node.symbol], [memo[id(a)] for a in node.args])
    return memo[id(t)]


def compose_hyp(first: Hypersubstitution, second: Hypersubstitution) -> Hypersubstitution:
    """Composition: the result maps each ``f`` to ``first`` applied to ``second``'s image."""
    if first.signature != second.signature:
        raise ValueError("cannot compose hypersubstitutions over different signatures")
    images = {name: apply_hyp(first, image) for name, image in second.assignment.items()}
    return _hyp(first.signature, images)


def is_full_hyp(h: Hypersubstitution) -> bool:
    """Whether every image is a full term over exactly the variables x1..xn."""
    return is_regular_hyp(h) and all(is_full(image) for image in h.assignment.values())


def _is_regular_image(image: Term, n: int) -> bool:
    """Whether ``image`` uses exactly x1..xn: n distinct indices, the largest n."""
    vs = variables(image)
    return len(vs) == n == max(vs)


def is_regular_hyp(h: Hypersubstitution) -> bool:
    """Whether every image uses exactly the variables x1..xn of its symbol."""
    symbols = h.signature.symbols
    return all(_is_regular_image(image, symbols[name]) for name, image in h.assignment.items())


def hyp_depth(h: Hypersubstitution) -> int:
    """Maximum depth over all images."""
    return max(depth(image) for image in h.assignment.values())


def predict_depth_full_hyp(h: Hypersubstitution, t: Term) -> int:
    """Depth of ``apply_hyp(h, t)`` for full ``h`` and full ``t`` over a
    one-symbol signature, computed as ``depth(image) * depth(t)``."""
    names = list(h.signature.symbols)
    if len(names) != 1:
        raise ValueError("the multiplicative depth rule needs a one-symbol signature")
    if not is_full_hyp(h):
        raise ValueError("hypersubstitution must be full")
    h.signature.validate_term(t)
    if not is_full(t):
        raise ValueError("term must be full")
    return depth(h.assignment[names[0]]) * depth(t)
