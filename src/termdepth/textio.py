"""Text formats for signatures, terms and hypersubstitutions.

Grammar (ASCII is significant; whitespace between tokens is ignored):

    term      :=  variable | symbol "(" term ("," term)* ")"
    variable  :=  "x" nonzero-digit digit*
    symbol    :=  letter (letter | digit | "_")*     -- never "x" + digits

Signature files hold one ``name/arity`` mapping per line; hypersubstitution
files one ``name -> term`` per line.  Blank lines and ``#`` comments are
ignored in both.  Rendering is canonical (no whitespace), so rendered text
round-trips byte-exactly and is suitable for golden files.

All rejections raise :class:`ParseError` carrying a byte-offset
:class:`SourceSpan` into the original input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypersub import Hypersubstitution
from .terms import _IDENTIFIER, _VARIABLE_NAME, Signature, Term, Var, _app, arity_bound, render_term

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


def _byte_span(text: str, start: int, end: int) -> SourceSpan:
    # Positions are tracked in characters while parsing; spans report bytes.
    return SourceSpan(len(text[:start].encode()), len(text[:end].encode()))


def _read_int(text: str, start: int, end: int, what: str) -> int:
    """The ASCII digits ``text[start:end]`` as an integer."""
    try:
        return int(text[start:end])
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise ParseError(
            f"{what} has too many digits ({end - start})", _byte_span(text, start, end)
        ) from None


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in _WHITESPACE:
        pos += 1
    return pos


def _parse_term_from(text: str, pos: int, sig: Signature) -> tuple[Term, int]:
    """Parse one term starting at ``pos``; return it and the next position.

    Runs on an explicit frame stack, so arbitrarily deep input cannot
    overflow the interpreter stack.
    """
    symbols = sig.symbols
    frames: list[tuple[str, int, int, list[Term]]] = []  # symbol, start, arity, args
    while True:
        pos = _skip_ws(text, pos)
        m = _IDENTIFIER.match(text, pos)
        if not m:
            raise ParseError(
                "expected a variable or an operation symbol",
                _byte_span(text, pos, min(pos + 1, len(text))),
            )
        token = m.group()
        start, pos = pos, m.end()
        if token in symbols:  # never a variable: Signature refuses their spelling
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != "(":
                raise ParseError(
                    f"expected '(' after symbol {token!r}",
                    _byte_span(text, pos, min(pos + 1, len(text))),
                )
            frames.append((token, start, symbols[token], []))
            pos += 1
            continue
        if not _VARIABLE_NAME.fullmatch(token):
            raise ParseError(f"unknown operation symbol {token!r}", _byte_span(text, start, pos))
        if token[1] == "0":
            raise ParseError(
                f"malformed variable {token!r}: index must not start with 0",
                _byte_span(text, start, pos),
            )
        term: Term = Var(_read_int(text, start + 1, pos, "variable index"))
        # one term finished: fold it into the enclosing applications
        while True:
            if not frames:
                return term, pos
            symbol, sym_start, arity, args = frames[-1]
            args.append(term)
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                if len(args) >= arity:
                    raise ParseError(
                        f"too many arguments for {symbol!r} (arity {arity})",
                        _byte_span(text, sym_start, pos + 1),
                    )
                pos += 1
                break
            if pos < len(text) and text[pos] == ")":
                pos += 1
                if len(args) != arity:
                    raise ParseError(
                        f"{symbol!r} is {arity}-ary but got {len(args)} argument(s)",
                        _byte_span(text, sym_start, pos),
                    )
                frames.pop()
                term = _app(symbol, tuple(args))
                continue
            raise ParseError("expected ',' or ')'", _byte_span(text, pos, min(pos + 1, len(text))))


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a single term; the whole input must be consumed."""
    term, pos = _parse_term_from(text, 0, sig)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input after term", _byte_span(text, pos, len(text)))
    return term


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


def _line_error(message: str, text: str, line: str, start: int) -> ParseError:
    """A ParseError spanning the logical line ``line`` found at ``start``."""
    return ParseError(message, _byte_span(text, start, start + len(line)))


def parse_signature(text: str) -> Signature:
    """Parse ``name/arity`` lines into a Signature, preserving order."""
    table: dict[str, int] = {}
    for line, start in _logical_lines(text):
        name, sep, arity_text = line.partition("/")
        if not sep:
            raise _line_error("expected 'name/arity'", text, line, start)
        name = name.rstrip(_WHITESPACE)
        if not _IDENTIFIER.fullmatch(name):
            raise _line_error(f"invalid operation symbol name {name!r}", text, line, start)
        if _VARIABLE_NAME.fullmatch(name):
            raise _line_error(f"symbol name {name!r} is reserved for variables", text, line, start)
        if name in table:
            raise _line_error(f"duplicate operation symbol {name!r}", text, line, start)
        arity_start = start + len(line) - len(arity_text.lstrip(_WHITESPACE))
        arity_text = arity_text.strip(_WHITESPACE)
        arity_end = arity_start + len(arity_text)
        if not (arity_text.isascii() and arity_text.isdigit()):
            raise ParseError(
                f"arity of {name!r} must be a positive integer",
                _byte_span(text, arity_start, arity_end),
            )
        arity = _read_int(text, arity_start, arity_end, f"arity of {name!r}")
        if arity < 1:
            raise ParseError(f"arity of {name!r} must be >= 1", _byte_span(text, arity_start, arity_end))
        table[name] = arity
    if not table:
        end = len(text.encode())
        raise ParseError("signature declares no operation symbols", SourceSpan(end, end))
    return Signature(table)


def parse_hyp(text: str, sig: Signature) -> Hypersubstitution:
    """Parse ``name -> term`` lines into a total hypersubstitution over ``sig``."""
    images: dict[str, Term] = {}
    for line, start in _logical_lines(text):
        name_part, sep, term_text = line.partition("->")
        if not sep:
            raise _line_error("expected 'symbol -> term'", text, line, start)
        name = name_part.rstrip(_WHITESPACE)
        if name not in sig.symbols:
            raise _line_error(f"unknown operation symbol {name!r}", text, line, start)
        if name in images:
            raise _line_error(f"duplicate image for {name!r}", text, line, start)
        term_start = start + len(name_part) + 2
        try:
            image = parse_term(term_text, sig)
        except ParseError as exc:
            base = len(text[:term_start].encode())
            raise ParseError(
                exc.message, SourceSpan(base + exc.span.start, base + exc.span.end)
            ) from None
        bound = arity_bound(image)
        arity = sig.symbols[name]
        if bound > arity:
            raise ParseError(
                f"image of {name!r} uses x{bound} but {name!r} is {arity}-ary",
                _byte_span(text, term_start, start + len(line)),
            )
        images[name] = image
    missing = [name for name in sig.symbols if name not in images]
    if missing:
        end = len(text.encode())
        raise ParseError(f"missing image(s) for: {', '.join(missing)}", SourceSpan(end, end))
    return Hypersubstitution(sig, images)


def render_signature(sig: Signature) -> str:
    return "\n".join(f"{name}/{arity}" for name, arity in sig.symbols.items())


def render_hyp(h: Hypersubstitution) -> str:
    return "\n".join(
        f"{name} -> {render_term(h.assignment[name])}" for name in h.signature.symbols
    )
