from itertools import islice

import pytest

from termdepth import (
    App,
    GenConfig,
    KINDS,
    Signature,
    Var,
    apply_hyp,
    b_of,
    check_theorem,
    compose_hyp,
    depth,
    gen_full_hyp,
    gen_full_term,
    gen_hyp,
    gen_term,
    is_full,
    is_full_hyp,
    is_regular_hyp,
    parse_hyp,
    parse_signature,
    parse_term,
    render_term,
    superpose,
    trial_stream,
    variables,
)
from termdepth.verify import _LAWS, _REGULAR_ATTEMPTS, _Law, _greedy_shrink, _term_candidates


class TestGenConfig:
    def test_defaults_valid(self):
        GenConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 2**64},
            {"max_depth": -1},
            {"max_depth": None},
            {"var_bound": -1},
            {"var_bound": 0},
            {"projection_rate": 1.5},
            {"deletion_bias": -0.1},
            {"max_depth": 2.5},
            {"seed": 1.0},
            {"var_bound": 2.5},
            {"var_bound": "3"},
            {"seed": True},
            {"projection_rate": "0.5"},
            {"projection_rate": None},
            {"projection_rate": True},
            {"deletion_bias": "0.5"},
            {"deletion_bias": None},
            {"deletion_bias": True},
            {"deletion_bias": float("nan")},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)

    @pytest.mark.parametrize("value", [0, 1, 0.25])
    def test_rates_accept_ints_and_floats_in_the_unit_interval(self, sig23, value):
        # an int rate draws exactly as the equal float does
        as_given = GenConfig(seed=12, projection_rate=value, deletion_bias=value)
        as_float = GenConfig(seed=12, projection_rate=float(value), deletion_bias=float(value))
        for trial in range(20):
            assert gen_hyp(as_given, sig23, trial_stream(12, trial)) == gen_hyp(
                as_float, sig23, trial_stream(12, trial)
            )


class TestGenTerm:
    def test_zero_budget_gives_variable(self, sig23):
        cfg = GenConfig(seed=1, max_depth=0)
        for trial in range(20):
            assert isinstance(gen_term(cfg, sig23, trial_stream(1, trial)), Var)

    def test_rejects_empty_variable_pool(self, sig23):
        with pytest.raises(ValueError, match="variable pool is empty"):
            gen_term(GenConfig(seed=1), sig23, trial_stream(1, 0), var_pool=[])

    def test_deterministic_for_fixed_seed(self, sig23):
        cfg = GenConfig(seed=2, max_depth=5)
        a = gen_term(cfg, sig23, trial_stream(2, 9))
        b = gen_term(cfg, sig23, trial_stream(2, 9))
        assert a == b

    def test_invariant_sweep(self, sig124):
        cfg = GenConfig(seed=3, max_depth=6, var_bound=4)
        for trial in range(2000):
            t = gen_term(cfg, sig124, trial_stream(3, trial))
            sig124.validate_term(t)
            assert depth(t) <= 6
            assert max(variables(t)) <= 4


class TestGenFullTerm:
    def test_depth_one_is_permutation_frontier(self, sig2):
        cfg = GenConfig(seed=4, max_depth=1)
        t = gen_full_term(cfg, sig2, trial_stream(4, 0))
        assert isinstance(t, App)
        assert sorted(a.index for a in t.args) == [1, 2]

    def test_outputs_are_full(self, sig23):
        cfg = GenConfig(seed=5, max_depth=4)
        for trial in range(500):
            assert is_full(gen_full_term(cfg, sig23, trial_stream(5, trial)))

    def test_exact_depth(self, sig2, sig3):
        for sig, seed in ((sig2, 6), (sig3, 7)):
            cfg = GenConfig(seed=seed, max_depth=5)
            for trial in range(100):
                rng = trial_stream(seed, trial)
                target = rng.randint(1, 5)
                assert depth(gen_full_term(cfg, sig, rng, depth=target)) == target

    def test_rejects_zero_depth(self, sig2):
        with pytest.raises(ValueError):
            gen_full_term(GenConfig(seed=1, max_depth=3), sig2, trial_stream(1, 0), depth=0)


class TestGenHyp:
    def test_projection_rate_one(self, sig23):
        cfg = GenConfig(seed=8, projection_rate=1.0)
        for trial in range(50):
            h = gen_hyp(cfg, sig23, trial_stream(8, trial))
            assert all(isinstance(img, Var) for img in h.assignment.values())

    def test_regular_resampling(self, sig23):
        cfg = GenConfig(seed=9, max_depth=4, projection_rate=0.0, deletion_bias=0.0)
        for trial in range(200):
            h = gen_hyp(cfg, sig23, trial_stream(9, trial), regular=True)
            assert is_regular_hyp(h)

    def test_regular_image_falls_back_after_the_attempt_cap(self, sig2):
        # at depth 0 every draw is a single variable, never both of f's
        rng = trial_stream(0, 0)
        h = gen_hyp(GenConfig(max_depth=0), sig2, rng, regular=True)
        assert render_term(h.image("f")) == "f(x1,x2)"
        twin = trial_stream(0, 0)
        for _ in range(_REGULAR_ATTEMPTS):
            twin.choice((Var(1), Var(2)))
        assert rng.getstate() == twin.getstate()

    def test_deterministic(self, sig23):
        cfg = GenConfig(seed=10, projection_rate=0.3, deletion_bias=0.3)
        assert gen_hyp(cfg, sig23, trial_stream(10, 4)) == gen_hyp(cfg, sig23, trial_stream(10, 4))

    def test_deletion_bias_produces_non_regular_images(self, sig23):
        cfg = GenConfig(seed=11, max_depth=4, projection_rate=0.0, deletion_bias=1.0)
        seen_non_regular = 0
        for trial in range(100):
            h = gen_hyp(cfg, sig23, trial_stream(11, trial))
            if not is_regular_hyp(h):
                seen_non_regular += 1
        assert seen_non_regular == 100


class TestGenFullHyp:
    def test_images_full_with_exact_variables(self, sig23, sig124):
        for sig, seed in ((sig23, 12), (sig124, 13)):
            cfg = GenConfig(seed=seed, max_depth=3)
            for trial in range(300):
                h = gen_full_hyp(cfg, sig, trial_stream(seed, trial))
                assert is_full_hyp(h)


class TestCheckTheorem:
    def test_rejects_unknown_kind(self, sig2):
        with pytest.raises(ValueError, match="unknown check"):
            check_theorem("thm9.9", 10, GenConfig(), sig2)

    def test_rejects_bad_trials(self, sig2):
        with pytest.raises(ValueError, match="trials"):
            check_theorem("thm3.3", 0, GenConfig(), sig2)

    @pytest.mark.parametrize("trials", [True, 2.0])
    def test_rejects_non_int_trials(self, sig2, trials):
        with pytest.raises(ValueError, match="trials"):
            check_theorem("thm3.3", trials, GenConfig(), sig2)

    def test_signature_shape_preconditions(self, sig23):
        for kind in ("thm2.3", "cor4.5", "cor4.6"):
            with pytest.raises(ValueError):
                check_theorem(kind, 10, GenConfig(), sig23)
        # single-symbol signatures satisfy all shapes
        for kind in KINDS:
            check_theorem(kind, 3, GenConfig(seed=1, max_depth=3), Signature({"f": 2}))

    def test_composition_formula_passes(self, sig23):
        cfg = GenConfig(seed=15, max_depth=5, var_bound=3)
        assert check_theorem("thm3.3", 500, cfg, sig23) == []

    def test_determinism(self, sig2):
        cfg = GenConfig(seed=16, max_depth=4, projection_rate=0.3, deletion_bias=0.4)
        a = check_theorem("thm5.1", 400, cfg, sig2)
        b = check_theorem("thm5.1", 400, cfg, sig2)
        assert a == b
        assert len(a) > 0  # this seed is known to produce findings

    def test_occurrence_predictor_findings_replay(self, sig2):
        cfg = GenConfig(seed=16, max_depth=4, projection_rate=0.3, deletion_bias=0.4)
        found = check_theorem("thm5.1", 400, cfg, sig2)
        assert found
        for disc in found:
            sig = parse_signature(disc.inputs["signature"])
            h = parse_hyp(disc.inputs["sigma"], sig)
            t = parse_term(disc.inputs["t"], sig)
            assert b_of(h, t) == disc.predicted
            assert depth(apply_hyp(h, t)) == disc.actual
            assert disc.predicted != disc.actual
            assert disc.seed_state.startswith("16:")

    def test_shrinking_reaches_small_cases(self, sig2):
        cfg = GenConfig(seed=16, max_depth=4, projection_rate=0.3, deletion_bias=0.4)
        found = check_theorem("thm5.1", 400, cfg, sig2)
        smallest = min(len(d.inputs["t"]) for d in found)
        assert smallest <= 40

    def test_full_composition_closure_passes(self, sig23):
        cfg = GenConfig(seed=17, max_depth=4)
        assert check_theorem("lemma2.2", 300, cfg, sig23) == []

    def test_full_hyp_closure_passes_on_single_arity(self):
        cfg = GenConfig(seed=18, max_depth=3)
        assert check_theorem("lemma4.2", 300, cfg, Signature({"p": 2, "q": 2})) == []

    def test_full_hyp_closure_fails_on_mixed_arity(self, sig23):
        # composing full assignments over a mixed-arity signature can break
        # fullness: a larger-arity permutation renames the variables of a
        # smaller frontier away from x1..xk; reported, shrunk, replayable
        cfg = GenConfig(seed=19, max_depth=3)
        found = check_theorem("lemma4.2", 200, cfg, sig23)
        assert found
        for disc in found:
            sig = parse_signature(disc.inputs["signature"])
            h1 = parse_hyp(disc.inputs["sigma1"], sig)
            h2 = parse_hyp(disc.inputs["sigma2"], sig)
            assert is_full_hyp(h1) and is_full_hyp(h2)
            assert not is_full_hyp(compose_hyp(h1, h2))
            assert (disc.predicted, disc.actual) == (1, 0)

    def test_shrink_candidates_fail_only_inside_the_law_domain(self, sig2):
        h = parse_hyp("f -> f(x1,x1)", sig2)
        t = parse_term("f(f(x1,f(f(x1,x1),x1)),x1)", sig2)
        assert _LAWS["thm5.1"].fails(sig2, {"sigma": h, "t": t})
        # the thm2.3 predictor rejects a non-full outer term
        s = parse_term("f(x1,f(x1,x1))", sig2)
        assert not _LAWS["thm2.3"].fails(sig2, {"s": s, "t1": t, "t2": t})
        # lemma2.2 composes full terms only; x1 is not one
        full = parse_term("f(x2,x1)", sig2)
        assert not is_full(superpose(full, [Var(1), full]))
        assert not _LAWS["lemma2.2"].fails(sig2, {"s": full, "t1": Var(1), "t2": full})

    def test_shrinking_a_shared_chain_is_linear_in_its_distinct_nodes(self):
        # 65 distinct nodes, 2**65 - 1 tree positions: two hoisted children,
        # then one candidate per distinct application
        t = Var(1)
        for _ in range(64):
            t = App("f", (t, t))
        assert len(list(islice(_term_candidates(t), 1000))) == 66
        calls = []

        def fails(slots):
            calls.append(slots)
            return depth(slots["t"]) == 64

        assert _greedy_shrink({"t": t}, fails)["t"] is t
        assert len(calls) == 66

    @pytest.mark.parametrize(
        "kind, trials, cfg, records, calls",
        [
            (
                "thm5.1",
                400,
                GenConfig(seed=5, max_depth=4, var_bound=3, projection_rate=0.2, deletion_bias=0.3),
                57,
                2130,
            ),
            # shrinks hypersubstitution slots
            ("lemma4.2", 100, GenConfig(seed=5, max_depth=3), 42, 1741),
        ],
    )
    def test_shrink_effort_is_pinned(self, sig23, monkeypatch, kind, trials, cfg, records, calls):
        count = 0
        fails = _Law.fails

        def counted(law, sig, slots):
            nonlocal count
            count += 1
            return fails(law, sig, slots)

        monkeypatch.setattr(_Law, "fails", counted)
        assert len(check_theorem(kind, trials, cfg, sig23)) == records
        assert count == calls

    def test_hyp_slot_shrinks_its_images_in_signature_order(self, sig23):
        # the file lists f2 first; candidates follow the signature, f1 first
        h = parse_hyp("f2 -> f2(x1,x2,x3)\nf1 -> f1(x1,x2)", sig23)
        trials = []

        def record(slots):
            trials.append(slots)
            return False

        assert _greedy_shrink({"sigma": h}, record) == {"sigma": h}
        changed = [
            [name for name in sig23.symbols if t["sigma"].image(name) != h.image(name)] for t in trials
        ]
        assert changed == [["f1"]] * 3 + [["f2"]] * 4

    def test_pinned_mixed_arity_closure_counterexample(self, sig23):
        h1 = parse_hyp("f1 -> f1(x2,x1)\nf2 -> f1(f2(x2,x1,x3),f1(x2,x1))", sig23)
        h2 = parse_hyp("f1 -> f1(x1,x2)\nf2 -> f2(x1,x3,x2)", sig23)
        assert is_full_hyp(h1) and is_full_hyp(h2)
        composed = compose_hyp(h1, h2)
        assert not is_full_hyp(composed)
        # the broken image contains f1(x3,x1): a 2-ary frontier renamed off x1..x2
        assert not is_full(composed.image("f2"))
