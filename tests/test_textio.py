import copy
import hashlib
import pickle
import random
import time

import pytest

from termdepth import (
    App,
    GenConfig,
    ParseError,
    Signature,
    Var,
    arity_bound,
    gen_term,
    parse_hyp,
    parse_signature,
    parse_term,
    postorder,
    render_hyp,
    render_signature,
    render_term,
    trial_stream,
)


class TestParseSignature:
    def test_single_symbol(self):
        sig = parse_signature("f/2")
        assert dict(sig.symbols) == {"f": 2}

    def test_multiple_lines_preserve_order(self):
        sig = parse_signature("f1/2\nf2/3")
        assert list(sig.symbols.items()) == [("f1", 2), ("f2", 3)]

    def test_comments_and_blank_lines(self):
        sig = parse_signature("# binary ops\n\nf/2   # the only one\n")
        assert dict(sig.symbols) == {"f": 2}

    def test_whitespace_tolerated(self):
        sig = parse_signature("  f  /  2  ")
        assert dict(sig.symbols) == {"f": 2}

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("x1/2", "reserved"),
            ("f/0", ">= 1"),
            ("f/two", "positive integer"),
            ("f 2", "name/arity"),
            ("f/2\nf/3", "duplicate"),
            ("", "no operation symbols"),
            ("1f/2", "invalid"),
            ("f/²", "positive integer"),
            ("g/١", "positive integer"),
            # only space, tab, CR and LF are whitespace in the grammar
            ("f\u3000/ 2", "invalid"),
            ("f/2\u3000", "positive integer"),
            ("\xa0f/2", "invalid"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ParseError, match=fragment) as info:
            parse_signature(text)
        assert info.value.span.end <= len(text.encode())

    def test_error_span_points_into_input(self):
        with pytest.raises(ParseError) as info:
            parse_signature("f/2\n   x9/1")
        assert "x9/1" == "f/2\n   x9/1"[info.value.span.start : info.value.span.end]
        # non-ASCII digits: the span is the arity token's bytes
        for text in ("f/²", "g / ١"):
            with pytest.raises(ParseError) as info:
                parse_signature(text)
            assert text.encode()[info.value.span.start : info.value.span.end] == text[-1].encode()
        # an arity longer than int() reads: the span is its digits
        with pytest.raises(ParseError, match=r"arity of 'f' has too many digits \(5000\)") as info:
            parse_signature("f/" + "7" * 5000)
        assert (info.value.span.start, info.value.span.end) == (2, 5002)


class TestParseTerm:
    def test_variable(self, sig2):
        assert parse_term("x12", sig2) == Var(12)

    def test_worked_example(self, sig2):
        t = parse_term("f(x1,f(x1,x2))", sig2)
        assert t == App("f", (Var(1), App("f", (Var(1), Var(2)))))

    def test_whitespace_between_tokens(self, sig2):
        assert parse_term(" f ( x1 , f(x1, x2) ) ", sig2) == parse_term("f(x1,f(x1,x2))", sig2)

    def test_arity_mismatch(self, sig2):
        with pytest.raises(ParseError, match="2-ary"):
            parse_term("f(x1)", sig2)
        with pytest.raises(ParseError, match="too many"):
            parse_term("f(x1,x2,x3)", sig2)

    def test_unknown_symbol(self, sig2):
        with pytest.raises(ParseError, match="unknown"):
            parse_term("h(x1,x2)", sig2)

    def test_malformed_variable(self, sig2):
        with pytest.raises(ParseError, match="malformed variable"):
            parse_term("x01", sig2)

    def test_trailing_input(self, sig2):
        with pytest.raises(ParseError, match="trailing"):
            parse_term("x1 x2", sig2)
        with pytest.raises(ParseError, match="trailing"):
            parse_term("f(x1,x2))", sig2)

    def test_symbol_without_arguments(self, sig2):
        with pytest.raises(ParseError, match="expected '\\('"):
            parse_term("f", sig2)

    def test_error_spans(self, sig2):
        text = "f(x1,h(x1,x2))"
        with pytest.raises(ParseError) as info:
            parse_term(text, sig2)
        span = info.value.span
        assert text[span.start : span.end] == "h"
        # an index longer than int() reads
        text = "f(x1,x" + "9" * 5000 + ")"
        with pytest.raises(ParseError, match="too many digits") as info:
            parse_term(text, sig2)
        span = info.value.span
        assert text[span.start : span.end] == "9" * 5000

    def test_error_pickles_and_copies(self, sig2):
        with pytest.raises(ParseError) as info:
            parse_term("f(x1", sig2)
        e = info.value
        assert str(e) == "expected ',' or ')' (bytes 4..4)"
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert type(twin) is ParseError
            assert (str(twin), twin.message, twin.span) == (str(e), e.message, e.span)

    def test_spans_are_byte_offsets(self, sig2):
        # the comment before the term carries a multi-byte character
        text = "f(x1,"
        with pytest.raises(ParseError) as info:
            parse_term(text, sig2)
        assert info.value.span.start <= len(text.encode())

    def test_deep_input_is_stack_safe(self, sig2):
        n = 20_000
        text = "f(" * n + "x1" + ",x2)" * n
        t = parse_term(text, sig2)
        assert render_term(t) == text

    def test_each_variable_index_is_one_object(self, sig2):
        t = parse_term("f(x1,x1)", sig2)
        assert t.args[0] is t.args[1]
        t = parse_term("f(f(x2, x1), f(x1, x2))", sig2)
        assert t.args[0].args[0] is t.args[1].args[1]
        assert t.args[0].args[1] is t.args[1].args[0]

    def test_deep_spine_shares_its_leaves(self, sig2):
        # the 10^4-level spine f(f(...f(x1,x2)...,x2),x2): its 10^4
        # applications, one x1 and one x2
        n = 10_000
        t = parse_term("f(" * n + "x1" + ",x2)" * n, sig2)
        assert sum(1 for _ in postorder(t)) == n + 2

    def test_unicode_rejected_with_byte_span(self, sig2):
        text = "f(é,x2)"
        with pytest.raises(ParseError) as info:
            parse_term(text, sig2)
        assert info.value.span.start == len("f(".encode())


class TestParseHyp:
    def test_valid(self, sig2):
        h = parse_hyp("f -> f(x2,x1)", sig2)
        assert render_term(h.image("f")) == "f(x2,x1)"

    def test_projection_image(self, sig2):
        h = parse_hyp("f -> x1", sig2)
        assert h.image("f") == Var(1)

    def test_image_beyond_arity(self, sig2):
        with pytest.raises(ParseError, match="x3"):
            parse_hyp("f -> f(x3,x1)", sig2)

    def test_missing_symbol(self, sig23):
        with pytest.raises(ParseError, match="missing image"):
            parse_hyp("f1 -> f1(x1,x2)", sig23)

    def test_unknown_symbol(self, sig2):
        with pytest.raises(ParseError, match="unknown"):
            parse_hyp("h -> x1", sig2)

    def test_duplicate_mapping(self, sig2):
        with pytest.raises(ParseError, match="duplicate"):
            parse_hyp("f -> x1\nf -> x2", sig2)

    def test_comments_and_blank_lines(self, sig23):
        text = "# images\nf1 -> f1(x2,x1)\n\nf2 -> x2  # project\n"
        h = parse_hyp(text, sig23)
        assert h.image("f2") == Var(2)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("f\u3000-> f(x2,x1)", "unknown operation symbol"),
            ("\xa0f -> f(x2,x1)", "unknown operation symbol"),
            ("f -> f(x2,\u3000x1)", "expected a variable"),
            ("f -> f(x2,x1)\u3000", "trailing input"),
        ],
    )
    def test_rejects_non_grammar_whitespace(self, sig2, text, fragment):
        with pytest.raises(ParseError, match=fragment) as info:
            parse_hyp(text, sig2)
        assert info.value.span.end <= len(text.encode())

    def test_term_error_span_is_global(self, sig2):
        text = "f -> f(x1,h)"
        with pytest.raises(ParseError) as info:
            parse_hyp(text, sig2)
        span = info.value.span
        assert text[span.start : span.end] == "h"


class TestParseScale:
    def test_long_files_parse_in_linear_time(self):
        # a byte span built eagerly for every line made parsing quadratic:
        # these two files once took about 10 s together
        lines = 40_000
        sig_text = "\n".join(f"g{k}/2" for k in range(lines))
        hyp_text = "\n".join(f"g{k} -> g{k}(x2,x1)" for k in range(lines))
        start = time.perf_counter()
        sig = parse_signature(sig_text)
        h = parse_hyp(hyp_text, sig)
        elapsed = time.perf_counter() - start
        assert len(sig.symbols) == lines
        assert render_term(h.image(f"g{lines - 1}")) == f"g{lines - 1}(x2,x1)"
        assert elapsed < 3.0, f"parsing {lines} signature and hyp lines took {elapsed:.2f} s"

    def test_many_distinct_variables_parse_in_linear_time(self):
        # placing every distinct variable token in the text made parsing
        # quadratic in their number: this comb once took about 37 s
        n = 10_000
        text = "".join(f"f(x{k}," for k in range(1, n)) + f"x{n}" + ")" * (n - 1)
        start = time.perf_counter()
        t = parse_term(text, Signature({"f": 2}))
        elapsed = time.perf_counter() - start
        assert sum(1 for _ in postorder(t)) == 2 * n - 1
        assert arity_bound(t) == n
        assert elapsed < 3.0, f"parsing a {n}-level comb of distinct variables took {elapsed:.2f} s"


class TestRendering:
    def test_variable(self):
        assert render_term(Var(1)) == "x1"

    def test_worked_composition_output(self, binary_terms):
        from termdepth import superpose

        composed = superpose(binary_terms["s1"], [binary_terms["t1"], binary_terms["t2"]])
        assert render_term(composed) == "f(f(f(x2,x1),f(x2,x1)),f(x1,f(x1,x2)))"

    def test_signature_round_trip(self, sig23):
        assert parse_signature(render_signature(sig23)) == sig23

    def test_hyp_round_trip(self, sig23):
        h = parse_hyp("f1 -> f1(x2,x1)\nf2 -> f2(x1,x1,x2)", sig23)
        assert parse_hyp(render_hyp(h), sig23) == h

    def test_term_round_trip_random(self):
        cfg = GenConfig(seed=77, max_depth=6, var_bound=4)
        for trial in range(300):
            rng = trial_stream(77, trial)
            sig = Signature({f"f{k}": rng.randint(1, 3) for k in range(1, 4)})
            t = gen_term(cfg, sig, rng)
            text = render_term(t)
            assert parse_term(text, sig) == t
            assert render_term(parse_term(text, sig)) == text


FUZZ_CHARSET = "fgx123(),_ \t\nabhijk/->#"


def random_strings():
    """Short strings over the grammar's characters and a few strangers."""
    rng = random.Random(424242)
    for _ in range(2000):
        yield "".join(rng.choice(FUZZ_CHARSET) for _ in range(rng.randint(0, 30)))


def mutated_renders(sig):
    """Renders of generated terms with one to three characters changed."""
    rng = random.Random(99)
    cfg = GenConfig(seed=99, max_depth=4, var_bound=3)
    for trial in range(500):
        t = gen_term(cfg, sig, trial_stream(99, trial))
        text = list(render_term(t))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(text)) if text else 0
            if kind == 0 and text:
                del text[pos]
            elif kind == 1:
                text.insert(pos, rng.choice(FUZZ_CHARSET))
            elif text:
                text[pos] = rng.choice(FUZZ_CHARSET)
        yield "".join(text)


# Terms over sig23 with multi-byte characters, which make byte spans differ
# from character positions, and other edge cases the fuzz corpora rarely hit.
TERM_TEXTS = [
    "",
    "  \t\n",
    "\u00e9",
    "f1(x1,\u00e9)",
    "f1(\u00e9\u00e9,x1)",
    "f1(x1,\u3000x2)",
    "f1(x1,x2)\u3000",
    "\u00e9 f1(x1,x2)",
    "f1(x1,x2) \u00e9\u00e9",
    "f1\u00e9(x1,x2)",
    "f1 \u00e9",
    "f1(x1 \u00e9",
    "f2(x1,x2\u00e9",
    "f2(x1,x2,x3,\u00e9",
    "x\u00e9",
    "x1\u00e9",
    "x0",
    "x1_",
    "f1_(x1,x2)",
    "f1 ( x1 , f2 ( x1 , x2 , x3 ) ) ",
    "f1(x1,x2)\n\n",
    "f1(x1,f2(x1,x2,x3),x2)",
    "f2(x1,x2)",
    "f1(,x1)",
    "f1(x1,x2))",
    "f1((x1,x2)",
    "f1(x1,x" + "9" * 5000 + ")",
]

# Hypersubstitution files over sig23, each broken in one place or valid.
HYP_LINES = [
    "f1 -> f1(x2,x1)\nf2 -> f2(x1,x1,x2)",
    "f1 -> f1(x2,x1)\n  f2 -> f2(x1,x1,x2",
    "f1 -> f1(x2,x1)",
    "f1 -> f1(x3,x1)\nf2 -> x1",
    "f1 -> x1\nf1 -> x2",
    "  h -> x1",
    "f1 = x1",
    "f1 -> \nf2 -> x3",
    "# \u00e9\nf1 -> f1(x1,\u00e9)\nf2 -> x1",
    "f1 -> f1(x1,x2)  x3\nf2 -> x1",
    "f1 -> f2(x1,x2)\nf2 -> x1",
    "f1 -> f1(x1,x" + "9" * 5000 + ")\nf2 -> x1",
]


def _outcome(parse, render, text, sig) -> str:
    try:
        return "ok " + render(parse(text, sig))
    except ParseError as exc:
        return f"error {exc.message} {exc.span.start} {exc.span.end}"


class TestFuzz:
    def test_random_strings_never_crash(self, sig23):
        for text in random_strings():
            try:
                term = parse_term(text, sig23)
            except ParseError:
                continue
            sig23.validate_term(term)

    def test_mutated_renders_never_crash(self, sig23):
        for text in mutated_renders(sig23):
            try:
                term = parse_term(text, sig23)
            except ParseError:
                continue
            sig23.validate_term(term)

    def test_outcomes_are_pinned(self, sig23):
        # The rendered term, or the error message with its byte span, of every
        # fuzz input and of a few hypersubstitution files.  A change to the
        # parser must keep each of them, messages and spans alike.
        outcomes = [_outcome(parse_term, render_term, t, sig23) for t in random_strings()]
        outcomes += [_outcome(parse_term, render_term, t, sig23) for t in mutated_renders(sig23)]
        outcomes += [_outcome(parse_term, render_term, t, sig23) for t in TERM_TEXTS]
        outcomes += [_outcome(parse_hyp, render_hyp, t, sig23) for t in HYP_LINES]
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == "6795af68ac3ac0d7d6215fffd802fe4d86656acdf98ab69e54954f528602e602"
