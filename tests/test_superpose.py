import pytest

from termdepth import (
    Var,
    depth,
    is_full,
    parse_term,
    predict_depth_full,
    predict_depth_general,
    render_term,
    superpose,
    variables,
)

import oracles


class TestSuperpose:
    def test_worked_binary_example(self, binary_terms):
        composed = superpose(binary_terms["s1"], [binary_terms["t1"], binary_terms["t2"]])
        assert render_term(composed) == "f(f(f(x2,x1),f(x2,x1)),f(x1,f(x1,x2)))"
        assert depth(composed) == 3

    def test_structure_sensitive_sibling(self, binary_terms):
        composed = superpose(binary_terms["s2"], [binary_terms["t1"], binary_terms["t2"]])
        assert depth(composed) == 4

    def test_projection_clause(self, binary_terms):
        assert superpose(Var(2), [binary_terms["t1"], binary_terms["t2"]]) is binary_terms["t2"]

    def test_matches_recursive_oracle(self, mixed_terms):
        ts = [mixed_terms["t1"], mixed_terms["t2"], mixed_terms["t3"]]
        assert superpose(mixed_terms["s"], ts) == oracles.superpose_rec(mixed_terms["s"], ts)

    def test_identity_substitution(self, mixed_terms):
        for t in mixed_terms.values():
            assert superpose(t, [Var(1), Var(2), Var(3)]) == t

    def test_vars_of_composition(self, binary_terms, sig2):
        s = parse_term("f(x2,x2)", sig2)
        composed = superpose(s, [binary_terms["t1"], binary_terms["t2"]])
        assert variables(composed) == variables(binary_terms["t2"])

    def test_rejects_wrong_argument_count(self, binary_terms):
        with pytest.raises(ValueError, match="not 1-ary"):
            superpose(binary_terms["s1"], [binary_terms["t1"]])

    def test_rejects_non_term_arguments(self, binary_terms):
        with pytest.raises(ValueError, match="not a Term"):
            superpose(binary_terms["s1"], [binary_terms["t1"], "f(x2,x1)"])

    def test_rejects_outer_term_beyond_arity(self, sig2):
        s = parse_term("f(x1,x3)", sig2)
        with pytest.raises(ValueError, match="not 2-ary"):
            superpose(s, [Var(1), Var(2)])

    def test_beyond_arity_error_names_the_largest_index(self, sig2):
        # the walk reaches x3 before x5: the check must not stop at x3
        s = parse_term("f(x5,f(x3,x1))", sig2)
        for compose in (superpose, predict_depth_general):
            with pytest.raises(ValueError, match="outer term is not 2-ary: it uses x5$"):
                compose(s, [Var(1), Var(2)])


class TestIsFull:
    def test_permutation_frontier(self, sig2):
        assert is_full(parse_term("f(x2,x1)", sig2))
        assert is_full(parse_term("f(x1,x2)", sig2))

    def test_variables_never_full(self):
        assert not is_full(Var(1))

    def test_mixed_children_not_full(self, sig2):
        # child x1 is not full and (x1, f(..)) is not a permutation frontier
        assert not is_full(parse_term("f(x1,f(x1,x2))", sig2))

    def test_frontier_needs_exactly_initial_variables(self, sig2):
        assert not is_full(parse_term("f(x1,x1)", sig2))
        assert not is_full(parse_term("f(x2,x3)", sig2))

    def test_inductive_clause(self, sig2):
        assert is_full(parse_term("f(f(x2,x1),f(x1,x2))", sig2))

    def test_matches_recursive_oracle(self, sig23):
        samples = [
            "f1(x2,x1)",
            "f1(x1,f1(x1,x2))",
            "f2(f1(x1,x2),f1(x2,x1),f2(x1,x2,x3))",
            "f2(x3,x1,x2)",
            "f2(x1,x2,x2)",
        ]
        for text in samples:
            t = parse_term(text, sig23)
            assert is_full(t) == oracles.is_full_rec(t)


class TestPredictDepthFull:
    def test_variable_arguments(self, sig2):
        s = parse_term("f(x2,x1)", sig2)
        assert predict_depth_full(s, [Var(1), Var(1)], sig2) == 1

    def test_derived_cases(self, sig2):
        s = parse_term("f(f(x2,x1),f(x1,x2))", sig2)
        ts = [parse_term("f(x1,x2)", sig2), Var(2)]
        assert predict_depth_full(s, ts, sig2) == 3
        assert depth(superpose(s, ts)) == 3

        s2 = parse_term("f(x1,x2)", sig2)
        ts2 = [parse_term("f(x1,f(x1,x2))", sig2), parse_term("f(x2,x1)", sig2)]
        assert predict_depth_full(s2, ts2, sig2) == 3
        assert depth(superpose(s2, ts2)) == 3

    def test_rejects_non_full_outer(self, binary_terms, sig2):
        with pytest.raises(ValueError, match="full"):
            predict_depth_full(binary_terms["s1"], [binary_terms["t1"], binary_terms["t2"]], sig2)

    def test_rejects_mixed_arity_signature(self, sig23):
        s = parse_term("f1(x2,x1)", sig23)
        with pytest.raises(ValueError, match="single-arity"):
            predict_depth_full(s, [Var(1), Var(2)], sig23)

    def test_rejects_wrong_argument_count(self, sig2):
        s = parse_term("f(x2,x1)", sig2)
        with pytest.raises(ValueError, match="expected 2 argument terms, got 3"):
            predict_depth_full(s, [Var(1), Var(2), Var(1)], sig2)
        with pytest.raises(ValueError, match="expected 2 argument terms, got 1"):
            predict_depth_full(s, [Var(1)], sig2)

    def test_additive_rule_needs_full_outer(self, binary_terms):
        # both outer terms have depth 2 and identical inputs, yet the
        # composites differ: no formula over input depths alone can work
        ts = [binary_terms["t1"], binary_terms["t2"]]
        d1 = depth(superpose(binary_terms["s1"], ts))
        d2 = depth(superpose(binary_terms["s2"], ts))
        assert depth(binary_terms["s1"]) == depth(binary_terms["s2"]) == 2
        assert (d1, d2) == (3, 4)
        naive = max(depth(t) for t in ts) + depth(binary_terms["s1"])
        assert naive == 4 != d1


class TestPredictorAgreement:
    def test_both_predictors_agree_for_full_outer_terms(self, sig2):
        from termdepth import GenConfig, gen_full_term, gen_term, trial_stream

        cfg = GenConfig(seed=21, max_depth=4, var_bound=2)
        for trial in range(200):
            rng = trial_stream(21, trial)
            s = gen_full_term(cfg, sig2, rng, depth=rng.randint(1, 4))
            ts = [gen_term(cfg, sig2, rng) for _ in range(2)]
            measured = depth(superpose(s, ts))
            assert predict_depth_full(s, ts, sig2) == measured
            assert predict_depth_general(s, ts) == measured


class TestPredictDepthGeneral:
    def test_worked_mixed_example(self, mixed_terms):
        ts = [mixed_terms["t1"], mixed_terms["t2"], mixed_terms["t3"]]
        assert predict_depth_general(mixed_terms["s"], ts) == 4
        assert depth(superpose(mixed_terms["s"], ts)) == 4

    def test_variable_outer_degenerates(self, binary_terms):
        ts = [binary_terms["t1"], binary_terms["t2"]]
        assert predict_depth_general(Var(1), ts) == depth(binary_terms["t1"])
        assert predict_depth_general(Var(2), ts) == depth(binary_terms["t2"])

    def test_worked_binary_example(self, binary_terms):
        ts = [binary_terms["t1"], binary_terms["t2"]]
        assert predict_depth_general(binary_terms["s1"], ts) == 3

    def test_rejects_same_errors_as_superpose(self, binary_terms):
        with pytest.raises(ValueError):
            predict_depth_general(binary_terms["s1"], [binary_terms["t1"]])
        with pytest.raises(ValueError):
            predict_depth_general(Var(3), [binary_terms["t1"], binary_terms["t2"]])
