import pytest

from termdepth import (
    App,
    GenConfig,
    Signature,
    Var,
    apply_hyp,
    b_of,
    b_trace,
    beta,
    depth,
    gen_hyp,
    gen_term,
    identity_hyp,
    length,
    occurrence_path,
    parse_hyp,
    parse_term,
    trial_stream,
    yield_word,
)

import oracles

# terms that break the signature f1/2, f2/3 (sig23), keyed by how
FOREIGN_TERMS = {
    "unknown-symbol": App("f1", (Var(1), App("f1", (App("g", (Var(1),)), Var(2))))),
    "too-few-arguments": App("f1", (Var(1), App("f2", (Var(1), Var(2))))),
    "too-many-arguments": App("f1", (App("f1", (Var(1), Var(1))), App("f1", (Var(1), Var(1), Var(1))))),
}


class TestOccurrencePath:
    def test_variable_root(self):
        path = occurrence_path(Var(4), 1)
        assert path.chain == (Var(4),)
        assert path.positions == ()
        assert path.beta == 0

    def test_shallow_leaf(self, sig2):
        t = parse_term("f(f(x1,x1),x2)", sig2)
        path = occurrence_path(t, 3)
        assert path.chain == (Var(2), t)
        assert path.positions == (2,)
        assert path.beta == 1

    def test_deep_leaf(self, sig2):
        t = parse_term("f(f(x1,x1),x2)", sig2)
        path = occurrence_path(t, 1)
        assert path.chain == (Var(1), parse_term("f(x1,x1)", sig2), t)
        assert path.positions == (1, 1)
        assert path.beta == 2

    def test_rejects_out_of_range(self, sig2):
        t = parse_term("f(x1,x2)", sig2)
        for i in (0, 3, -1):
            with pytest.raises(ValueError, match="out of range"):
                occurrence_path(t, i)

    def test_chain_invariants(self, sig23, mixed_terms):
        for t in mixed_terms.values():
            for i in range(1, length(t) + 1):
                path = occurrence_path(t, i)
                assert isinstance(path.chain[0], Var)
                assert path.chain[-1] is t
                assert len(path.positions) == path.beta
                for k in range(1, len(path.chain)):
                    parent = path.chain[k]
                    assert parent.args[path.positions[k - 1] - 1] is path.chain[k - 1]

    def test_leaves_reconstruct_yield(self, mixed_terms):
        for t in mixed_terms.values():
            leaves = [occurrence_path(t, i).chain[0].index for i in range(1, length(t) + 1)]
            assert leaves == yield_word(t)

    def test_distinct_occurrences_have_distinct_addresses(self, mixed_terms):
        for t in mixed_terms.values():
            addresses = {occurrence_path(t, i).positions for i in range(1, length(t) + 1)}
            assert len(addresses) == length(t)


class TestBeta:
    def test_examples(self, sig2, sig23):
        assert beta(Var(1), 1) == 0
        assert beta(parse_term("f(x1,f(x1,x2))", sig2), 3) == 2
        assert beta(parse_term("f2(f1(x1,x1),f1(x1,x2),x3)", sig23), 5) == 1

    def test_bounded_by_depth_with_equality_somewhere(self, mixed_terms):
        for t in mixed_terms.values():
            betas = [beta(t, i) for i in range(1, length(t) + 1)]
            assert all(b <= depth(t) for b in betas)
            assert max(betas) == depth(t)


class TestBTrace:
    def test_identity_trace(self, sig2):
        h = identity_hyp(sig2)
        trace = b_trace(h, parse_term("f(x1,x2)", sig2), 2)
        assert trace.b_values == (0, 1)
        assert trace.b_sum == 1
        assert trace.top_nonzero

    def test_projection_trace(self, sig2):
        h = parse_hyp("f -> x1", sig2)
        trace = b_trace(h, parse_term("f(x1,x2)", sig2), 1)
        assert trace.b_values == (0, 0)
        assert trace.b_sum == 0
        assert not trace.top_nonzero

    def test_duplicating_image_trace(self, sig2):
        h = parse_hyp("f -> f(x2,x2)", sig2)
        trace = b_trace(h, parse_term("f(f(x1,x1),x2)", sig2), 3)
        assert trace.b_values == (0, 1)
        assert trace.b_sum == 1

    def test_first_value_always_zero(self, sig23, mixed_terms):
        h = identity_hyp(sig23)
        for t in mixed_terms.values():
            for i in range(1, length(t) + 1):
                trace = b_trace(h, t, i)
                assert trace.b_values[0] == 0
                assert all(v >= 0 for v in trace.b_values)


class TestBOf:
    def test_variable_term(self, sig2):
        assert b_of(parse_hyp("f -> f(x2,x1)", sig2), Var(1)) == 0

    def test_projection_image(self, sig2):
        h = parse_hyp("f -> x2", sig2)
        assert b_of(h, parse_term("f(f(x1,x1),x2)", sig2)) == 0
        assert depth(apply_hyp(h, parse_term("f(f(x1,x1),x2)", sig2))) == 0

    def test_duplicating_image(self, sig2):
        h = parse_hyp("f -> f(x2,x2)", sig2)
        t = parse_term("f(f(x1,x1),x2)", sig2)
        assert b_of(h, t) == 1
        assert depth(apply_hyp(h, t)) == 1

    def test_identity_gives_depth(self, sig23, mixed_terms):
        h = identity_hyp(sig23)
        for t in mixed_terms.values():
            assert b_of(h, t) == depth(t)
            for i in range(1, length(t) + 1):
                assert b_trace(h, t, i).b_sum == beta(t, i)

    def test_matches_per_occurrence_enumeration(self, sig23):
        cfg = GenConfig(seed=5, max_depth=4, var_bound=3, projection_rate=0.3, deletion_bias=0.3)
        for trial in range(150):
            rng = trial_stream(5, trial)
            h = gen_hyp(cfg, sig23, rng)
            t = gen_term(cfg, sig23, rng)
            by_traces = max(
                (
                    tr.b_sum
                    for i in range(1, length(t) + 1)
                    if (tr := b_trace(h, t, i)).top_nonzero
                ),
                default=0,
            )
            assert b_of(h, t) == by_traces == oracles.b_of_rec(h, t)

    @pytest.mark.parametrize(
        "fold,t",
        [pytest.param(b_of, t, id=name) for name, t in FOREIGN_TERMS.items()]
        + [pytest.param(apply_hyp, t, id=f"apply_hyp-{name}") for name, t in FOREIGN_TERMS.items()],
    )
    def test_rejects_foreign_terms_like_validate_term(self, sig23, fold, t):
        with pytest.raises(ValueError) as expected:
            sig23.validate_term(t)
        with pytest.raises(ValueError) as got:
            fold(identity_hyp(sig23), t)
        assert str(got.value) == str(expected.value)

    def test_b_sum_bounded_by_beta_times_hyp_depth(self, sig23):
        from termdepth import hyp_depth

        cfg = GenConfig(seed=6, max_depth=4, var_bound=3)
        for trial in range(100):
            rng = trial_stream(6, trial)
            h = gen_hyp(cfg, sig23, rng)
            t = gen_term(cfg, sig23, rng)
            for i in range(1, length(t) + 1):
                assert b_trace(h, t, i).b_sum <= beta(t, i) * hyp_depth(h)


class TestPredictDepthHyp:
    def test_duplicating_image_worked_example(self, sig2):
        h = parse_hyp("f -> f(x2,x2)", sig2)
        t = parse_term("f(x3,f(f(x1,x1),x2))", sig2)
        assert b_of(h, t) == 2
        assert depth(apply_hyp(h, t)) == 2

    def test_agrees_with_multiplicative_rule_on_full_inputs(self, sig2, sig3):
        from termdepth import gen_full_hyp, gen_full_term, hyp_depth

        for sig, seed in ((sig2, 15), (sig3, 16)):
            cfg = GenConfig(seed=seed, max_depth=3)
            for trial in range(100):
                rng = trial_stream(seed, trial)
                h = gen_full_hyp(cfg, sig, rng)
                t = gen_full_term(cfg, sig, rng, depth=rng.randint(1, 3))
                assert b_of(h, t) == hyp_depth(h) * depth(t)

    def test_exact_for_variable_keeping_images(self, sig23):
        # no projections, no deletions: the predictor is exact
        cfg = GenConfig(seed=12, max_depth=4, var_bound=3, projection_rate=0.0, deletion_bias=0.0)
        for trial in range(200):
            rng = trial_stream(12, trial)
            h = gen_hyp(cfg, sig23, rng, regular=True)
            t = gen_term(cfg, sig23, rng)
            assert b_of(h, t) == depth(apply_hyp(h, t))

    def test_known_projection_counterexample(self):
        # a projection at the root zeroes the top step of every occurrence,
        # so the nonzero-top filter discards the path that carries the depth
        sig = Signature({"f": 2, "g": 1})
        h = parse_hyp("f -> f(x2,x2)\ng -> x1", sig)
        t = parse_term("g(f(x1,g(x2)))", sig)
        assert b_of(h, t) == 0
        assert depth(apply_hyp(h, t)) == 1

    def test_known_deletion_counterexample(self, sig2):
        # a deleted argument position contributes 0 mid-path but the filter
        # only inspects the top step, so a dropped subtree still gets counted
        h = parse_hyp("f -> f(x1,x1)", sig2)
        t = parse_term("f(f(x1,f(f(x1,x1),x1)),x1)", sig2)
        assert b_of(h, t) == 3
        assert depth(apply_hyp(h, t)) == 2

    def test_survival_filter_is_exact_everywhere(self, sig2, sig23):
        # restricting the maximum to occurrences whose every step keeps its
        # variable matches the measured depth even with projections and
        # deletions; this pins down the nonzero-top filter as the sole
        # source of the counterexamples above
        for sig, seed in ((sig2, 13), (sig23, 14)):
            cfg = GenConfig(seed=seed, max_depth=4, var_bound=3, projection_rate=0.3, deletion_bias=0.4)
            for trial in range(200):
                rng = trial_stream(seed, trial)
                h = gen_hyp(cfg, sig, rng)
                t = gen_term(cfg, sig, rng)
                assert oracles.surviving_depth_rec(h, t) == depth(apply_hyp(h, t))
