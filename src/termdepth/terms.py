"""Terms over a ranked signature and their elementary depth measures.

A term is either a variable ``x1, x2, ...`` or an operation symbol applied
to exactly arity-many subterms.  Depth is tree height: 0 for a variable,
1 + the maximum child depth for an application.  ``depth_wrt`` restricts
the measure to paths that reach a chosen variable.

Terms are immutable and may share subterm objects freely: no attribute
can be set, and calling ``__init__`` again on a built term raises.  Parsed
and generated terms hold one ``Var`` object per variable index, and ``Var``
checks its index by the package's one integer rule, ``_check_int``.  Each
node caches its depth when it is built, so ``depth`` takes O(1) time.
Every other measure, the structural hash and ``arity_bound`` included, is
a fold over the distinct nodes, in one idiom, ``for node in _order(t):
memo[id(node)] = ...``: ``_order`` lists each distinct node once, children
first, from one explicit stack, and ``variables`` collects its set from
the same list.  A first call on a root is linear in its distinct nodes.

The first ``_order`` walk of an ``App`` keeps the listing on that node: its
``_below`` slot, empty when the node is built, gets the tuple of the
distinct nodes strictly below it, and later calls on the same root copy
that tuple instead of walking (the fold itself still runs on each call).
The root is not in its own slot, so the slot makes no reference cycle and
a measured term is still freed by reference counting alone.  The cost is
one slot per ``App``, plus one pointer per distinct node for each root a
measure was called on: measuring every subterm of a deep term holds
memory quadratic in its depth (``variables`` on every node of a
3000-level spine holds 36 MB afterwards, against 0.1 MB without the
slot).  The public ``postorder`` iterates the same list, so it needs
O(distinct nodes) memory before its first item.
Nothing recurses, so both very deep terms (10^5 levels and beyond) and
heavily shared ones are safe.  ``repr`` renders at most 121 tokens, enough
for the 120 characters it shows, so it is cheap on any term.

Being immutable, a term is its own copy: ``copy.copy`` and
``copy.deepcopy`` return it unchanged.  ``_table`` encodes a term as its
distinct nodes in ``_order``, and ``_run`` rebuilds one with other terms
plugged in for its variables; composition, hypersubstitution and
shrinking all rebuild terms that way.  A term pickles as its table, never
its kept listing, so the pickle is linear in the distinct nodes;
unpickling (``_from_table``) rebuilds it through the ``Var`` and ``App``
checks and keeps the sharing.
``Signature`` and ``DepthReport`` pickle and copy through their
constructors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "App",
    "DepthReport",
    "Signature",
    "Term",
    "Var",
    "arity_bound",
    "depth",
    "depth_report",
    "depth_wrt",
    "length",
    "postorder",
    "variables",
    "yield_word",
]

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_VARIABLE_NAME = re.compile(r"x[0-9]+")


def _symbol_name_problem(name: object) -> str | None:
    """The complaint when ``name`` cannot name an operation symbol, else None."""
    if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
        return f"invalid operation symbol name {name!r}"
    if _VARIABLE_NAME.fullmatch(name):
        return f"symbol name {name!r} is reserved for variables"
    return None


def _check_int(value: object, what: str, low: int | None) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, and (when
    ``low`` is given) at least ``low``; the message starts with ``what``."""
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class Signature:
    """Ordered map from operation-symbol names to arities (all >= 1).

    Names of the shape ``x<digits>`` are rejected: that spelling is
    reserved for variables.
    """

    symbols: Mapping[str, int]

    def __post_init__(self) -> None:
        table = dict(self.symbols)
        if not table:
            raise ValueError("a signature needs at least one operation symbol")
        for name, arity in table.items():
            problem = _symbol_name_problem(name)
            if problem:
                raise ValueError(problem)
            _check_int(arity, f"arity of {name!r}", 1)
        object.__setattr__(self, "symbols", MappingProxyType(table))

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return Signature, (dict(self.symbols),)

    def __hash__(self) -> int:
        return hash(frozenset(self.symbols.items()))

    def __repr__(self) -> str:
        return f"Signature({dict(self.symbols)!r})"

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def arity(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise ValueError(f"unknown operation symbol {name!r}") from None

    def common_arity(self) -> int | None:
        """The shared arity if every symbol has the same one, else None."""
        arities = set(self.symbols.values())
        return arities.pop() if len(arities) == 1 else None

    def validate_term(self, t: Term) -> None:
        """Raise ValueError unless every application in ``t`` matches this signature."""
        for node in _order(t):
            if type(node) is App:
                arity = self.arity(node.symbol)
                if len(node.args) != arity:
                    raise ValueError(
                        f"{node.symbol!r} is {arity}-ary but is applied to {len(node.args)} arguments"
                    )


class Term:
    """Base class for Var and App; instances are immutable and hashable."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("terms are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return _structurally_equal(self, other)

    def __hash__(self) -> int:
        """Structural hash, an uncached fold over the distinct nodes, so each call
        takes O(distinct nodes): ``hash(("x", i))``, ``hash((symbol, child hashes))``."""
        memo: dict[int, int] = {}
        for node in _order(self):
            if type(node) is Var:
                memo[id(node)] = hash(("x", node.index))
            else:
                hashes = tuple([memo[id(a)] for a in node.args])  # type: ignore[attr-defined]
                memo[id(node)] = hash((node.symbol, hashes))  # type: ignore[attr-defined]
        return memo[id(self)]

    def __copy__(self) -> Term:
        return self

    def __deepcopy__(self, memo: dict[int, object]) -> Term:
        return self

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return _from_table, (_table(_order(self)),)


class Var(Term):
    """A variable leaf ``x<index>`` with index >= 1."""

    __slots__ = ("index",)
    _depth = 0
    _below = ()

    def __init__(self, index: int):
        if hasattr(self, "index"):
            raise AttributeError("terms are immutable")
        _check_int(index, "variable index", 1)
        object.__setattr__(self, "index", index)

    def __repr__(self) -> str:
        return f"Var({self.index})"


class App(Term):
    """An operation symbol applied to a fixed tuple of subterms."""

    __slots__ = ("symbol", "args", "_depth", "_below")

    def __init__(self, symbol: str, args: Iterable[Term]):
        if hasattr(self, "symbol"):
            raise AttributeError("terms are immutable")
        args = tuple(args)
        if not isinstance(symbol, str) or not symbol:
            raise ValueError("application symbol must be a nonempty string")
        if not args:
            raise ValueError("applications take at least one argument")
        for a in args:
            if not isinstance(a, Term):
                raise ValueError(f"application argument {a!r} is not a Term")
        _fill(self, symbol, args)

    def __repr__(self) -> str:
        text = _render(self, 120)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<term {text}>"


_new_object = object.__new__
_set_symbol = App.symbol.__set__  # type: ignore[attr-defined]
_set_args = App.args.__set__  # type: ignore[attr-defined]
_set_depth = App._depth.__set__  # type: ignore[attr-defined]
_set_below = App._below.__set__  # type: ignore[attr-defined]


def _fill(node: App, symbol: str, args: tuple[Term, ...]) -> None:
    # Sets the slots through their descriptors (Term.__setattr__ refuses)
    # and caches the one per-node fact, the depth, which every law reads.
    height = 0
    for a in args:
        if a._depth >= height:  # type: ignore[attr-defined]
            height = a._depth + 1  # type: ignore[attr-defined]
    _set_symbol(node, symbol)
    _set_args(node, args)
    _set_depth(node, height)


def _app(symbol: str, args: tuple[Term, ...]) -> App:
    """Build an App without the public argument checks.

    For nodes the package builds itself: ``symbol`` is a nonempty string
    and ``args`` a nonempty tuple of Terms already held.
    """
    node = _new_object(App)
    _fill(node, symbol, args)
    return node


def _table(nodes: list[Term]) -> tuple[object, ...]:
    """The node table of a term, folding its ``_order`` list ``nodes``: one
    entry per node, a ``Var``'s index or an ``App``'s ``(symbol, places)``,
    the table positions of its arguments; the root comes last."""
    place: dict[int, int] = {}
    table: list[object] = []
    for node in nodes:
        place[id(node)] = len(table)
        if type(node) is Var:
            table.append(node.index)
        else:
            places = tuple([place[id(a)] for a in node.args])  # type: ignore[attr-defined]
            table.append((node.symbol, places))  # type: ignore[attr-defined]
    return tuple(table)


def _run(table: Sequence[object], args: Sequence[Term] | Mapping[int, Term]) -> Term:
    """The table's term, built unchecked, with ``args[i - 1]`` plugged in
    for each ``x_i`` entry: the table's sharing is kept, and each argument
    object is reused wherever its variable occurs."""
    built: list[Term] = []
    for entry in table:
        if type(entry) is tuple:
            built.append(_app(entry[0], tuple([built[k] for k in entry[1]])))
        else:
            built.append(args[entry - 1])  # type: ignore[operator]
    return built[-1]


def _from_table(table: tuple[object, ...]) -> Term:
    """Rebuild a pickled term from its node table through the public
    ``Var`` and ``App`` checks; a malformed table raises ValueError.  The
    checked twin of ``_run``, for tables from outside the program."""
    built: list[Term] = []
    for entry in table:
        if isinstance(entry, int):
            built.append(Var(entry))
            continue
        if type(entry) is not tuple or len(entry) != 2 or type(entry[1]) is not tuple:
            raise ValueError(f"term table entry {len(built)} is not an index or (symbol, places)")
        symbol, places = entry
        for k in places:
            if type(k) is not int or not 0 <= k < len(built):
                raise ValueError(f"term table entry {len(built)} names a place that is not earlier")
        built.append(App(symbol, [built[k] for k in places]))
    if not built:
        raise ValueError("term table is empty")
    return built[-1]


def _structurally_equal(a: Term, b: Term) -> bool:
    # Pairwise walk that rejects a pair whose cached depths differ; no
    # recursion.  Pairs assumed equal are merged in a union-find over node
    # ids (path halving), and a pair already in one class is not walked
    # again, so each merge removes a class and the walk takes near-linear
    # time in the distinct nodes of both terms, however differently they
    # share their subterms.  This is sound because any mismatch aborts the
    # entire walk.
    parent: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._depth != b._depth:  # type: ignore[attr-defined]
            return False
        if type(a) is Var:
            if a.index != b.index:  # type: ignore[union-attr]
                return False
            continue
        if a.symbol != b.symbol or len(a.args) != len(b.args):  # type: ignore[union-attr]
            return False
        ra, rb = id(a), id(b)
        while ra in parent:
            up = parent.get(parent[ra], parent[ra])
            parent[ra] = up
            ra = up
        while rb in parent:
            up = parent.get(parent[rb], parent[rb])
            parent[rb] = up
            rb = up
        if ra == rb:
            continue
        parent[ra] = rb
        stack.extend(zip(a.args, b.args))  # type: ignore[union-attr]
    return True


def render_term(t: Term) -> str:
    """Canonical text for ``t``: no whitespace, comma-separated arguments.

    ``parse_term(render_term(t), sig) == t`` for every term over ``sig``.
    Public as ``textio.render_term``; defined here so ``repr`` works
    without importing the parser module.
    """
    return _render(t, None)


def _render(t: Term, limit: int | None) -> str:
    # A limit stops it after limit + 1 tokens: with at least one character
    # each, they hold more than ``limit`` and begin the whole rendering.
    parts: list[str] = []
    stack: list[object] = [t]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif type(node) is Var:
            parts.append(f"x{node.index}")
        else:
            parts.append(node.symbol + "(")  # type: ignore[union-attr]
            stack.append(")")
            args = node.args  # type: ignore[union-attr]
            for i in range(len(args) - 1, -1, -1):
                stack.append(args[i])
                if i:
                    stack.append(",")
        if limit is not None and len(parts) > limit:
            break
    return "".join(parts)


def _order(t: Term) -> list[Term]:
    """Each distinct subterm object of ``t`` once, children before parents.

    The one traversal kernel under every fold.  Children are pushed in
    argument order and popped last-first; a node counts as seen when it is
    first popped.  A pushed one-element tuple ``(node,)`` marks where an
    application is emitted, after its children; a ``Var`` is emitted as it
    is popped.  Shared subterms are visited once, so the walk is linear in
    the number of distinct nodes even when the unfolded tree is
    exponentially larger.

    The first walk of an ``App`` keeps the nodes strictly below it, in this
    order, in its ``_below`` slot; later calls on the same root copy that
    tuple instead of walking.  The root is left out of its own slot, so the
    slot makes no reference cycle.  A ``Var``'s ``_below`` is always empty.
    """
    try:
        return [*t._below, t]  # type: ignore[attr-defined]
    except AttributeError:
        pass
    out: list[Term] = []
    seen: set[int] = set()
    stack: list[object] = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            out.append(node[0])
        elif id(node) not in seen:
            seen.add(id(node))
            if type(node) is Var:
                out.append(node)
            else:
                stack.append((node,))
                stack.extend(node.args)  # type: ignore[attr-defined]
    out.pop()
    _set_below(t, tuple(out))
    out.append(t)
    return out


def postorder(t: Term) -> Iterator[Term]:
    """Yield each distinct subterm object once, children before parents.

    Shared subterms are visited a single time, so the walk is linear in the
    number of distinct nodes even when the unfolded tree is exponentially
    larger.  The node list is built before the first item is yielded, so it
    takes O(distinct nodes) memory up front.
    """
    return iter(_order(t))


def _variable_depths(nodes: list[Term]) -> dict[int, int]:
    """Map every variable index l of a term to ``depth_wrt(t, l)``, folding
    its ``_order`` list ``nodes`` (the root ``t`` is ``nodes[-1]``).

    ``depth_wrt(t, l)`` is the longest root-to-leaf path that ends at an
    ``x_l`` leaf.  Visiting distinct nodes parents-first (reversed
    ``nodes``) and handing each child its longest distance from the root
    finds all of them at once, in time linear in the distinct nodes.
    """
    dist = {id(nodes[-1]): 0}
    out: dict[int, int] = {}
    for node in reversed(nodes):
        d = dist[id(node)]
        if type(node) is Var:
            if out.get(node.index, -1) < d:
                out[node.index] = d
        else:
            d += 1
            for a in node.args:  # type: ignore[attr-defined]
                if dist.get(id(a), -1) < d:
                    dist[id(a)] = d
    return out


def variables(t: Term) -> set[int]:
    """The set of variable indices occurring in ``t``."""
    return {node.index for node in _order(t) if type(node) is Var}  # type: ignore[attr-defined]


def arity_bound(t: Term) -> int:
    """The least n such that ``t`` is n-ary: its maximum variable index.

    A walk over the distinct nodes, so this takes O(distinct nodes) time.
    """
    return max(variables(t))


def _check_n_ary(bound: int, n: int, what: str) -> None:
    """Raise ValueError unless a term whose largest variable index is
    ``bound`` is n-ary; the message starts with ``what``."""
    if bound > n:
        raise ValueError(f"{what} is not {n}-ary: it uses x{bound}")


def depth(t: Term) -> int:
    """Tree height: 0 for a variable, 1 + max child depth for an application.

    Cached on each node when it is built, so this takes O(1) time.
    """
    return t._depth  # type: ignore[attr-defined]


def depth_wrt(t: Term, l: int) -> int:
    """Depth of ``t`` measured along paths that reach the variable ``x_l``.

    0 when ``t`` is a variable or does not contain ``x_l``; otherwise
    1 + the maximum over the children that contain ``x_l``.
    """
    _check_int(l, "variable index", 1)
    return _variable_depths(_order(t)).get(l, 0)


def yield_word(t: Term) -> list[int]:
    """Variable indices at the leaves of ``t``, left to right.

    This enumerates tree positions, so a shared subterm contributes once
    per occurrence.
    """
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            out.append(node.index)
        else:
            stack.extend(reversed(node.args))
    return out


def _length_map(t: Term) -> dict[int, int]:
    memo: dict[int, int] = {}
    for node in _order(t):
        if type(node) is Var:
            memo[id(node)] = 1
        else:
            total = 0
            for a in node.args:  # type: ignore[attr-defined]
                total += memo[id(a)]
            memo[id(node)] = total
    return memo


def length(t: Term) -> int:
    """Number of leaf (variable) positions of ``t``, counted with multiplicity."""
    return _length_map(t)[id(t)]


@dataclass(frozen=True)
class DepthReport:
    """Depth of a term together with its per-variable depths for x1..xn."""

    depth: int
    per_variable: Mapping[int, int]
    variables: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_variable", MappingProxyType(dict(self.per_variable)))
        object.__setattr__(self, "variables", frozenset(self.variables))

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return DepthReport, (self.depth, dict(self.per_variable), self.variables)

    def __hash__(self) -> int:
        return hash((self.depth, frozenset(self.per_variable.items()), self.variables))


def depth_report(t: Term, n: int | None = None) -> DepthReport:
    """Depth and per-variable depths of ``t`` viewed as an n-ary term.

    ``n`` defaults to the least n for which ``t`` is n-ary, its largest
    variable index, read off the same walk that finds the depths.
    """
    if n is not None:
        _check_int(n, "arity n", None)
    found = _variable_depths(_order(t))
    bound = max(found)
    if n is None:
        n = bound
    _check_n_ary(bound, n, "term")
    per = {l: found.get(l, 0) for l in range(1, n + 1)}
    return DepthReport(depth=depth(t), per_variable=per, variables=frozenset(found))
