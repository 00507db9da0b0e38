import copy
import pickle
import re
import time

import pytest

from termdepth import (
    App,
    GenConfig,
    Hypersubstitution,
    Signature,
    Var,
    apply_hyp,
    arity_bound,
    b_of,
    b_trace,
    compose_hyp,
    depth,
    depth_report,
    depth_wrt,
    gen_full_term,
    gen_hyp,
    gen_term,
    hyp_depth,
    identity_hyp,
    is_full,
    is_regular_hyp,
    length,
    parse_hyp,
    parse_term,
    postorder,
    predict_depth_general,
    render_term,
    superpose,
    trial_stream,
    variables,
    yield_word,
)

import oracles


class TestSignature:
    def test_valid(self):
        sig = Signature({"f1": 2, "f2": 3})
        assert sig.arity("f1") == 2
        assert "f2" in sig
        assert list(sig) == ["f1", "f2"]

    def test_common_arity(self):
        assert Signature({"f": 2}).common_arity() == 2
        assert Signature({"p": 2, "q": 2}).common_arity() == 2
        assert Signature({"f1": 2, "f2": 3}).common_arity() is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signature({})

    @pytest.mark.parametrize("name", ["x1", "x007", "x12"])
    def test_rejects_reserved_names(self, name):
        with pytest.raises(ValueError, match="reserved"):
            Signature({name: 2})

    @pytest.mark.parametrize("name", ["", "1f", "f-g", "f g"])
    def test_rejects_malformed_names(self, name):
        with pytest.raises(ValueError):
            Signature({name: 2})

    @pytest.mark.parametrize("arity", [0, -1, 1.5, True])
    def test_rejects_bad_arities(self, arity):
        with pytest.raises(ValueError):
            Signature({"f": arity})

    def test_plain_x_is_a_legal_symbol(self):
        # only "x" followed by digits is reserved
        sig = Signature({"x": 1})
        assert sig.arity("x") == 1

    def test_validate_term(self, sig2):
        sig2.validate_term(parse_term("f(x1,x2)", sig2))
        with pytest.raises(ValueError):
            sig2.validate_term(App("f", (Var(1),)))
        with pytest.raises(ValueError):
            sig2.validate_term(App("h", (Var(1), Var(2))))


class TestTermValues:
    def test_rejects_bad_variable_indices(self):
        for index, shown in ((0, "0"), (-3, "-3"), (1.0, "1.0"), (True, "True")):
            message = f"variable index must be an integer >= 1, got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Var(index)

    def test_rejects_empty_applications(self):
        with pytest.raises(ValueError):
            App("f", ())
        with pytest.raises(ValueError):
            App("f", (Var(1), 7))

    def test_rejects_bad_symbols(self):
        for symbol in ("", None, 3):
            with pytest.raises(ValueError, match="symbol"):
                App(symbol, (Var(1),))

    def test_immutability(self):
        t = App("f", (Var(1), Var(2)))
        with pytest.raises(AttributeError):
            t.symbol = "g"
        with pytest.raises(AttributeError):
            t.args[0].index = 5

    def test_structural_equality_and_hash(self, sig2):
        a = parse_term("f(f(x1,x2),x1)", sig2)
        b = parse_term("f(f(x1,x2),x1)", sig2)
        assert a == b and hash(a) == hash(b)
        assert a != parse_term("f(f(x1,x2),x2)", sig2)
        assert Var(3) == Var(3)
        assert Var(3) != Var(4)
        assert Var(1) != App("f", (Var(1), Var(1)))
        assert a != "f(f(x1,x2),x1)"

    def test_equality_is_stack_safe_on_deep_terms(self):
        def chain(n):
            t = Var(1)
            for _ in range(n):
                t = App("f", (t, Var(2)))
            return t

        assert chain(30_000) == chain(30_000)
        assert chain(30_000) != chain(30_001)


class TestMeasures:
    def test_depth_examples(self, sig2):
        assert depth(parse_term("f(x1,f(x1,x2))", sig2)) == 2
        assert depth(parse_term("f(x2,x1)", sig2)) == 1
        assert depth(Var(7)) == 0

    def test_depth_of_application_recursion(self, sig2):
        t = parse_term("f(f(x1,x2),x1)", sig2)
        assert depth(t) == 1 + max(depth(a) for a in t.args)

    def test_vars_examples(self, sig2, sig23):
        assert variables(Var(2)) == {2}
        assert variables(parse_term("f(f(x2,x2),x1)", sig2)) == {1, 2}
        assert variables(parse_term("f1(f2(x1,x3,x3),x1)", sig23)) == {1, 3}

    def test_arity_bound_examples(self, sig2, sig23):
        assert arity_bound(Var(1)) == 1
        assert arity_bound(Var(5)) == 5
        assert arity_bound(parse_term("f(x1,f(x1,x2))", sig2)) == 2
        assert arity_bound(parse_term("f2(f1(x1,x1),f1(x1,x2),x3)", sig23)) == 3

    def test_depth_wrt_examples(self, sig23):
        t1 = parse_term("f2(f1(x1,x1),f1(x1,x2),x3)", sig23)
        assert depth_wrt(t1, 3) == 1
        t2 = parse_term("f1(f2(x1,x1,x2),x1)", sig23)
        assert depth_wrt(t2, 2) == 2
        assert depth_wrt(Var(5), 5) == 0

    def test_depth_wrt_absent_variable(self, sig2):
        assert depth_wrt(parse_term("f(x1,x1)", sig2), 2) == 0

    def test_depth_wrt_rejects_bad_index(self, sig2):
        with pytest.raises(ValueError):
            depth_wrt(parse_term("f(x1,x1)", sig2), 0)

    def test_example_per_variable_table(self, mixed_terms):
        expected = {
            "t1": (2, 2, 1),
            "t2": (2, 2, 0),
            "t3": (2, 0, 2),
            "s": (2, 2, 1),
        }
        for name, values in expected.items():
            t = mixed_terms[name]
            assert tuple(depth_wrt(t, l) for l in (1, 2, 3)) == values

    def test_yield_examples(self, sig2):
        assert yield_word(Var(3)) == [3]
        # frozen from the leaf-enumeration oracle
        assert yield_word(parse_term("f(x1,f(x1,x2))", sig2)) == [1, 1, 2]
        assert yield_word(parse_term("f(f(x2,x2),x1)", sig2)) == [2, 2, 1]

    def test_length_examples(self, sig2, sig23):
        assert length(Var(1)) == 1
        assert length(parse_term("f(x1,f(x1,x2))", sig2)) == 3
        assert length(parse_term("f2(f1(x1,x1),f1(x1,x2),x3)", sig23)) == 5

    def test_measures_match_recursive_oracles(self, sig23, mixed_terms):
        for t in mixed_terms.values():
            assert depth(t) == oracles.depth_rec(t)
            assert arity_bound(t) == max(oracles.vars_rec(t))
            assert variables(t) == oracles.vars_rec(t)
            assert yield_word(t) == oracles.yield_rec(t)
            assert length(t) == len(oracles.yield_rec(t))
            for l in range(1, 5):
                assert depth_wrt(t, l) == oracles.depth_wrt_rec(t, l)

    def test_measures_on_shared_subterms(self):
        shared = App("f", (Var(1), Var(2)))
        t = App("f", (shared, shared))
        assert depth(t) == 2
        assert length(t) == 4
        assert yield_word(t) == [1, 2, 1, 2]


class TestDepthReport:
    def test_report_example(self, mixed_terms):
        report = depth_report(mixed_terms["s"], 3)
        assert report.depth == 2
        assert dict(report.per_variable) == {1: 2, 2: 2, 3: 1}
        assert report.variables == {1, 2, 3}

    def test_report_on_variable(self):
        report = depth_report(Var(1), 1)
        assert report.depth == 0
        assert dict(report.per_variable) == {1: 0}

    def test_report_derived_case(self, sig2):
        t = parse_term("f(f(x1,x1),x2)", sig2)
        report = depth_report(t, 2)
        assert report.depth == 2
        assert dict(report.per_variable) == {1: 2, 2: 1}

    def test_report_covers_absent_variables(self, sig2):
        report = depth_report(parse_term("f(x1,x1)", sig2), 4)
        assert dict(report.per_variable) == {1: 1, 2: 0, 3: 0, 4: 0}

    def test_report_rejects_small_arity(self, sig23):
        t = parse_term("f2(x1,x2,x3)", sig23)
        with pytest.raises(ValueError, match="not 2-ary"):
            depth_report(t, 2)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_report_rejects_non_int_arity(self, n):
        with pytest.raises(ValueError, match="arity n must be an integer"):
            depth_report(Var(1), n)

    def test_depth_is_max_per_variable(self, mixed_terms):
        for t in mixed_terms.values():
            report = depth_report(t, 3)
            assert report.depth == max(report.per_variable[l] for l in report.variables)


def assert_facts_match_oracles(t):
    """Cached depth and arity bound, and depth_report's per-variable
    depths, agree with the naive recursive definitions."""
    assert depth(t) == oracles.depth_rec(t)
    assert arity_bound(t) == max(oracles.vars_rec(t))
    n = arity_bound(t) + 1
    report = depth_report(t, n)
    assert report.depth == oracles.depth_rec(t)
    assert report.variables == oracles.vars_rec(t)
    assert dict(report.per_variable) == {
        l: oracles.depth_wrt_rec(t, l) for l in range(1, n + 1)
    }


class TestInternallyBuiltTerms:
    """Terms the package builds itself skip the public App checks; their
    cached facts must still match the oracles."""

    SIGS = (
        Signature({"f": 2}),
        Signature({"f1": 2, "f2": 3}),
        Signature({"g1": 1, "g2": 2, "g4": 4}),
    )

    def test_generated_terms(self):
        cfg = GenConfig(seed=5, max_depth=5, var_bound=4)
        for sig in self.SIGS:
            for trial in range(150):
                rng = trial_stream(5, trial)
                assert_facts_match_oracles(gen_term(cfg, sig, rng))
                for image in gen_hyp(cfg, sig, rng).assignment.values():
                    assert_facts_match_oracles(image)
                if sig.common_arity() is not None:
                    assert_facts_match_oracles(gen_full_term(cfg, sig, rng, depth=4))

    def test_composed_terms(self, mixed_terms):
        ts = [mixed_terms["t1"], mixed_terms["t2"], mixed_terms["t3"]]
        for s in mixed_terms.values():
            assert_facts_match_oracles(superpose(s, ts))
            assert_facts_match_oracles(superpose(s, [Var(4), Var(9), Var(1)]))

    def test_rewritten_terms(self, sig23, mixed_terms):
        for text in ("f1 -> f2(x2,x1,x2)\nf2 -> f1(x3,f1(x3,x1))", "f1 -> x2\nf2 -> f2(x3,x3,x1)"):
            h = parse_hyp(text, sig23)
            for t in mixed_terms.values():
                assert_facts_match_oracles(apply_hyp(h, t))

    def test_parsed_terms(self, sig23):
        t = parse_term("f2(f1(x7,x1),f2(x1,x1,f1(x2,x5)),x3)", sig23)
        assert_facts_match_oracles(t)
        assert (depth(t), arity_bound(t)) == (3, 7)

    def test_deep_spine_facts(self, sig2):
        s = parse_term("f(x1,x2)", sig2)
        t = Var(3)
        for _ in range(50_000):
            t = superpose(s, [t, Var(2)])
        assert depth(t) == 50_000
        assert arity_bound(t) == 3
        assert depth_wrt(t, 3) == 50_000
        assert dict(depth_report(t, 3).per_variable) == {1: 0, 2: 50_000, 3: 50_000}


SHARED_LEVELS = 64
SIG2 = Signature({"f": 2})


def shared_chain(levels):
    """``f(c, c)`` nested ``levels`` deep over x1: levels + 1 distinct nodes
    but 2**levels leaf positions."""
    t = Var(1)
    for _ in range(levels):
        t = App("f", (t, t))
    return t


@pytest.mark.parametrize(
    "measure,expected",
    [
        pytest.param(lambda t: b_of(identity_hyp(SIG2), t), SHARED_LEVELS, id="b_of-identity"),
        pytest.param(
            lambda t: b_of(parse_hyp("f -> f(x2,x2)", SIG2), t), SHARED_LEVELS, id="b_of-duplicating"
        ),
        pytest.param(lambda t: depth_wrt(t, 1), SHARED_LEVELS, id="depth_wrt"),
        pytest.param(
            lambda t: dict(depth_report(t, 2).per_variable), {1: SHARED_LEVELS, 2: 0}, id="depth_report"
        ),
        pytest.param(variables, {1}, id="variables"),
        pytest.param(length, 2**SHARED_LEVELS, id="length"),
        pytest.param(is_full, False, id="is_full"),
        pytest.param(
            lambda t: predict_depth_general(t, [t, Var(2)]), 2 * SHARED_LEVELS, id="predict_depth_general"
        ),
        pytest.param(SIG2.validate_term, None, id="validate_term"),
        pytest.param(lambda t: t == shared_chain(SHARED_LEVELS), True, id="equality"),
        pytest.param(lambda t: hash(t) == hash(shared_chain(SHARED_LEVELS)), True, id="hash"),
        pytest.param(arity_bound, 1, id="arity_bound"),
        pytest.param(repr, "<term " + ("f(" * SHARED_LEVELS)[:117] + "...>", id="repr"),
    ],
)
def test_scalar_measures_are_linear_in_distinct_nodes(measure, expected):
    # 2**64 tree positions: a measure that walks positions never returns
    assert measure(shared_chain(SHARED_LEVELS)) == expected


def test_hypersubstitution_with_a_shared_image_stays_linear_in_distinct_nodes():
    # Composing with f -> f(c, c), c = f(x1, x1), doubles the image depth
    # and keeps it shared: after six steps the image is the depth-64 chain
    # with 2**64 leaves, and rewriting a depth-64 chain gives depth 64 * 64.
    step = Hypersubstitution(SIG2, {"f": shared_chain(2)})
    h = Hypersubstitution(SIG2, {"f": shared_chain(1)})
    for _ in range(6):
        h = compose_hyp(h, step)
    assert h.image("f") == shared_chain(SHARED_LEVELS)
    h = Hypersubstitution(SIG2, dict(h.assignment))  # the public checks, too
    t = shared_chain(SHARED_LEVELS)
    rewritten = apply_hyp(h, t)
    assert depth(rewritten) == SHARED_LEVELS * SHARED_LEVELS
    assert rewritten == shared_chain(SHARED_LEVELS * SHARED_LEVELS)
    assert b_of(h, t) == SHARED_LEVELS * SHARED_LEVELS
    first, last = b_trace(h, t, 1), b_trace(h, t, 2**SHARED_LEVELS)
    assert first.b_values == (0,) + (SHARED_LEVELS,) * SHARED_LEVELS
    assert (first.b_sum, first.top_nonzero) == (SHARED_LEVELS * SHARED_LEVELS, True)
    assert (last.b_sum, last.top_nonzero) == (0, False)
    assert not is_regular_hyp(h)
    assert hyp_depth(h) == SHARED_LEVELS


def test_repr_is_the_rendering_cut_to_120_characters():
    # the right spine f(x<n>,f(x<n-1>,...,x1)) renders to 120 characters at n = 19
    t = Var(1)
    for i in range(2, 1000):
        t = App("f", (Var(i), t))
        if i < 40:
            text = render_term(t)
            assert repr(t) == (f"<term {text[:117]}...>" if len(text) > 120 else f"<term {text}>")
    assert repr(t) == "<term " + render_term(t)[:117] + "...>"


class TestCopyAndPickle:
    def test_copies_are_the_term_itself(self, mixed_terms):
        t = mixed_terms["s"]
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, Var(1)])[0] is t

    def test_shared_chain_round_trips_in_milliseconds(self):
        # 65 distinct nodes over 2**64 leaf positions: a pickle of the
        # rendered tree would never finish
        t = shared_chain(SHARED_LEVELS)
        start = time.perf_counter()
        loaded = pickle.loads(pickle.dumps(t))
        assert time.perf_counter() - start < 0.5
        assert loaded == t and hash(loaded) == hash(t)
        assert loaded.args[0] is loaded.args[1]
        assert len(list(postorder(loaded))) == len(list(postorder(t))) == SHARED_LEVELS + 1

    def test_node_table_is_pinned(self):
        # the pickle format: each distinct node in _order, a Var's index or
        # (symbol, places), the root last
        t = parse_term("f(f(x1,x2),x1)", SIG2)
        assert t.__reduce__()[1] == ((1, 2, ("f", (0, 1)), ("f", (2, 0))),)
        x1, x2 = Var(1), Var(2)
        shared = App("f", (x1, x2))
        dag = App("f", (App("f", (shared, shared)), shared))
        assert dag.__reduce__()[1] == ((2, 1, ("f", (1, 0)), ("f", (2, 2)), ("f", (3, 2))),)

    @pytest.mark.parametrize(
        "table,message",
        [
            ((), "empty"),
            ((0,), "variable index"),
            ((True,), "variable index"),
            (("f",), "entry 0 is not"),
            ((1, ("f", [0])), "entry 1 is not"),
            ((1, ("f", (1,))), "entry 1 names a place"),
            ((1, ("f", (-1,))), "entry 1 names a place"),
            ((1, ("f", ())), "at least one argument"),
            ((1, ("", (0,))), "nonempty string"),
        ],
    )
    def test_malformed_table_raises_value_error(self, table, message):
        rebuild, _ = Var(1).__reduce__()
        with pytest.raises(ValueError, match=message):
            rebuild(table)


SIG_FG = Signature({"f": 2, "g": 1})
X1, X2 = Var(1), Var(2)


@pytest.mark.parametrize(
    "t,message",
    [
        (App("f", [App("f", [X1]), App("g", [X1, X2])]), "'g' is 1-ary but is applied to 2 arguments"),
        (App("f", [App("g", [X1, X2]), App("f", [X1])]), "'f' is 2-ary but is applied to 1 arguments"),
    ],
)
def test_first_bad_node_in_the_order_names_the_error(t, message):
    # Two mismatched nodes: the validating folds stop at the one that comes
    # first in the traversal order (the right child here), all with the
    # same text.
    checks = [
        SIG_FG.validate_term,
        lambda t: apply_hyp(identity_hyp(SIG_FG), t),
        lambda t: b_of(identity_hyp(SIG_FG), t),
    ]
    for check in checks:
        with pytest.raises(ValueError) as info:
            check(t)
        assert str(info.value) == message
