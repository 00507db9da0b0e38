"""Text formats for signatures, terms and hypersubstitutions.

Grammar (ASCII is significant; whitespace between tokens is ignored):

    term      :=  variable | symbol "(" term ("," term)* ")"
    variable  :=  "x" nonzero-digit digit*
    symbol    :=  letter (letter | digit | "_")*     -- never "x" + digits

Signature files hold one ``name/arity`` mapping per line; hypersubstitution
files one ``name -> term`` per line.  Blank lines and ``#`` comments are
ignored in both.  Rendering is canonical (no whitespace), so rendered text
round-trips byte-exactly and is suitable for golden files.

A term is parsed in one linear pass: one compiled regex splits the text
into tokens (an identifier, or any other single non-whitespace character),
and the token list is folded on an explicit frame stack.  Each variable
index is read into one shared ``Var`` per call.

All rejections raise :class:`ParseError` carrying a byte-offset
:class:`SourceSpan` into the original input.  Every one is placed through
one helper, ``_error``, from a character range of the input; token
positions are worked out only when an error is raised, by scanning the
text again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .hypersub import Hypersubstitution, _hyp, _image_beyond_arity
from .terms import _IDENTIFIER, _VARIABLE_NAME, Signature, Term, Var, _app, _symbol_name_problem, render_term

__all__ = [
    "ParseError",
    "SourceSpan",
    "parse_hyp",
    "parse_signature",
    "parse_term",
    "render_hyp",
    "render_signature",
    "render_term",
]

_WHITESPACE = " \t\r\n"
# An identifier, or any other single character that is not whitespace.
_TOKEN = re.compile(f"{_IDENTIFIER.pattern}|[^{re.escape(_WHITESPACE)}]")


@dataclass(frozen=True)
class SourceSpan:
    """Byte range [start, end) into the original input text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span {self.start}..{self.end}")


class ParseError(ValueError):
    """Input rejected by one of the text formats; carries a byte span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (bytes {span.start}..{span.end})")
        self.message = message
        self.span = span

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return ParseError, (self.message, self.span)


def _error(message: str, text: str, start: int, end: int) -> ParseError:
    """A ParseError spanning the characters ``text[start:end]``.

    Positions are tracked in characters while parsing; spans report bytes.
    Slices clamp, so ``start, start + 1`` at the end of the text is the
    empty range there.
    """
    return ParseError(message, SourceSpan(len(text[:start].encode()), len(text[:end].encode())))


def _token_span(text: str, k: int) -> tuple[int, int]:
    """Character offsets of the ``k``-th token, or an empty range at the end.

    Scans the text again, so it is for error paths only.
    """
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    return m.span() if m else (len(text), len(text))


def _variable(text: str, k: int, token: str) -> Var:
    """The variable spelt by ``token``, the ``k``-th token of ``text``.

    Reads the index from the token itself; the text is scanned again only
    to place an error.
    """
    if _VARIABLE_NAME.fullmatch(token):
        if token[1] == "0":
            message = f"malformed variable {token!r}: index must not start with 0"
            raise _error(message, text, *_token_span(text, k))
        try:
            return Var(int(token[1:]))
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
            start, end = _token_span(text, k)
            message = f"variable index has too many digits ({len(token) - 1})"
            raise _error(message, text, start + 1, end) from None
    if _IDENTIFIER.match(token):
        raise _error(f"unknown operation symbol {token!r}", text, *_token_span(text, k))
    start = _token_span(text, k)[0]
    raise _error("expected a variable or an operation symbol", text, start, start + 1)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a single term; the whole input must be consumed.

    One regex pass splits the text into tokens, which are folded on an
    explicit frame stack, so arbitrarily deep input cannot overflow the
    interpreter stack.  Each variable index becomes one shared ``Var``.
    """
    symbols = sig.symbols
    tokens = _TOKEN.findall(text)
    tokens.append("")  # past the last token; no rule accepts an empty one
    leaves: dict[str, Var] = {}
    frames: list[tuple[str, int, int, list[Term]]] = []  # symbol, its token, arity, args
    k = 0
    while True:
        token = tokens[k]
        k += 1
        if token in symbols:  # never a variable: Signature refuses their spelling
            if tokens[k] != "(":
                start = _token_span(text, k)[0]
                raise _error(f"expected '(' after symbol {token!r}", text, start, start + 1)
            frames.append((token, k - 1, symbols[token], []))
            k += 1
            continue
        term: Term | None = leaves.get(token)
        if term is None:
            term = leaves[token] = _variable(text, k - 1, token)
        # one term finished: fold it into the enclosing applications
        while True:
            if not frames:
                if tokens[k]:
                    raise _error("trailing input after term", text, _token_span(text, k)[0], len(text))
                return term
            symbol, sym_k, arity, args = frames[-1]
            args.append(term)
            token = tokens[k]
            k += 1
            if token == ",":
                if len(args) >= arity:
                    message = f"too many arguments for {symbol!r} (arity {arity})"
                    raise _error(message, text, _token_span(text, sym_k)[0], _token_span(text, k - 1)[1])
                break
            if token == ")":
                if len(args) != arity:
                    message = f"{symbol!r} is {arity}-ary but got {len(args)} argument(s)"
                    raise _error(message, text, _token_span(text, sym_k)[0], _token_span(text, k - 1)[1])
                frames.pop()
                term = _app(symbol, tuple(args))
                continue
            start = _token_span(text, k - 1)[0]
            raise _error("expected ',' or ')'", text, start, start + 1)


def _logical_lines(text: str):
    """Nonblank lines with comments cut and grammar whitespace trimmed.

    Yields each line with the character offset of its first character in
    ``text``.  Byte spans are worked out only when a line is rejected, so
    parsing stays linear in the size of the input.
    """
    offset = 0
    for raw in text.split("\n"):
        line = raw.partition("#")[0]
        body = line.strip(_WHITESPACE)
        if body:
            yield body, offset + len(line) - len(line.lstrip(_WHITESPACE))
        offset += len(raw) + 1


def parse_signature(text: str) -> Signature:
    """Parse ``name/arity`` lines into a Signature, preserving order."""
    table: dict[str, int] = {}
    for line, start in _logical_lines(text):
        end = start + len(line)
        name, sep, arity_text = line.partition("/")
        if not sep:
            raise _error("expected 'name/arity'", text, start, end)
        name = name.rstrip(_WHITESPACE)
        problem = _symbol_name_problem(name)
        if problem:
            raise _error(problem, text, start, end)
        if name in table:
            raise _error(f"duplicate operation symbol {name!r}", text, start, end)
        arity_text = arity_text.strip(_WHITESPACE)
        arity_start = end - len(arity_text)
        if not (arity_text.isascii() and arity_text.isdigit()):
            raise _error(f"arity of {name!r} must be a positive integer", text, arity_start, end)
        try:
            arity = int(arity_text)
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
            message = f"arity of {name!r} has too many digits ({len(arity_text)})"
            raise _error(message, text, arity_start, end) from None
        if arity < 1:
            raise _error(f"arity of {name!r} must be >= 1", text, arity_start, end)
        table[name] = arity
    if not table:
        raise _error("signature declares no operation symbols", text, len(text), len(text))
    return Signature(table)


def parse_hyp(text: str, sig: Signature) -> Hypersubstitution:
    """Parse ``name -> term`` lines into a total hypersubstitution over ``sig``."""
    images: dict[str, Term] = {}
    for line, start in _logical_lines(text):
        end = start + len(line)
        name_part, sep, term_text = line.partition("->")
        if not sep:
            raise _error("expected 'symbol -> term'", text, start, end)
        name = name_part.rstrip(_WHITESPACE)
        if name not in sig.symbols:
            raise _error(f"unknown operation symbol {name!r}", text, start, end)
        if name in images:
            raise _error(f"duplicate image for {name!r}", text, start, end)
        term_start = start + len(name_part) + 2
        try:
            image = parse_term(term_text, sig)
        except ParseError as exc:
            # the term's byte span, moved to characters of ``text``
            head = term_text.encode()
            at = [term_start + len(head[:b].decode()) for b in (exc.span.start, exc.span.end)]
            raise _error(exc.message, text, *at) from None
        problem = _image_beyond_arity(name, image, sig.symbols[name])
        if problem:
            raise _error(problem, text, term_start, end)
        images[name] = image
    missing = [name for name in sig.symbols if name not in images]
    if missing:
        raise _error(f"missing image(s) for: {', '.join(missing)}", text, len(text), len(text))
    return _hyp(sig, images)


def render_signature(sig: Signature) -> str:
    return "\n".join(f"{name}/{arity}" for name, arity in sig.symbols.items())


def render_hyp(h: Hypersubstitution) -> str:
    return "\n".join(
        f"{name} -> {render_term(h.assignment[name])}" for name in h.signature.symbols
    )


def _render_input(value: object) -> str:
    """The canonical text of a parsed input; a ``json.dumps`` default."""
    if isinstance(value, Term):
        return render_term(value)
    if isinstance(value, Signature):
        return render_signature(value)
    if isinstance(value, Hypersubstitution):
        return render_hyp(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
