import os
import subprocess
import sys
from pathlib import Path

import pytest

import termdepth
from termdepth import (
    App,
    GenConfig,
    Hypersubstitution,
    Signature,
    Var,
    apply_hyp,
    compose_hyp,
    depth,
    gen_hyp,
    gen_term,
    hyp_depth,
    identity_hyp,
    is_full_hyp,
    is_regular_hyp,
    parse_hyp,
    parse_term,
    predict_depth_full_hyp,
    render_term,
    superpose,
    trial_stream,
)

import oracles


class TestHypersubstitutionType:
    def test_total_and_arity_respecting(self, sig23):
        h = parse_hyp("f1 -> f1(x2,x1)\nf2 -> x3", sig23)
        assert render_term(h.image("f2")) == "x3"

    def test_rejects_missing_image(self, sig23):
        with pytest.raises(ValueError, match="missing image"):
            Hypersubstitution(sig23, {"f1": Var(1)})

    def test_rejects_unknown_symbol(self, sig2):
        with pytest.raises(ValueError, match="unknown"):
            Hypersubstitution(sig2, {"f": Var(1), "g": Var(1)})

    def test_rejects_non_term_image(self, sig2):
        with pytest.raises(ValueError, match="image of 'f' is not a Term"):
            Hypersubstitution(sig2, {"f": "x1"})

    def test_rejects_image_beyond_arity(self, sig2):
        with pytest.raises(ValueError, match="x3"):
            Hypersubstitution(sig2, {"f": parse_term("f(x3,x1)", Signature({"f": 2}))})

    @pytest.mark.parametrize(
        "image, message",
        [
            (App("g", (Var(1),)), "unknown operation symbol 'g'"),
            (App("f", (Var(2), App("f", (Var(1), App("g", (Var(1),)))))), "unknown operation symbol 'g'"),
            (App("f", (Var(1),)), "'f' is 2-ary but is applied to 1 arguments"),
        ],
    )
    def test_rejects_image_outside_the_signature(self, sig2, image, message):
        with pytest.raises(ValueError, match=f"image of 'f': {message}"):
            Hypersubstitution(sig2, {"f": image})


class TestIdentity:
    def test_images(self, sig23):
        h = identity_hyp(sig23)
        assert render_term(h.image("f1")) == "f1(x1,x2)"
        assert render_term(h.image("f2")) == "f2(x1,x2,x3)"
        with pytest.raises(ValueError, match="unknown operation symbol 'g'"):
            h.image("g")

    def test_identity_application(self, sig2, binary_terms):
        h = identity_hyp(sig2)
        for t in binary_terms.values():
            assert apply_hyp(h, t) == t

    def test_unit_laws(self, sig23):
        rng = trial_stream(101, 0)
        cfg = GenConfig(seed=101, max_depth=3)
        ident = identity_hyp(sig23)
        for trial in range(50):
            h = gen_hyp(cfg, sig23, trial_stream(101, trial))
            assert compose_hyp(ident, h) == h
            assert compose_hyp(h, ident) == h


class TestApply:
    def test_projection_collapses(self, sig2):
        h = parse_hyp("f -> x1", sig2)
        t = parse_term("f(f(x1,x2),x3)", sig2)
        assert apply_hyp(h, t) == Var(1)

    def test_swap_image(self, sig2):
        h = parse_hyp("f -> f(x2,x1)", sig2)
        t = parse_term("f(x1,f(x2,x3))", sig2)
        assert render_term(apply_hyp(h, t)) == "f(f(x3,x2),x1)"

    def test_variables_fixed(self, sig2):
        h = parse_hyp("f -> f(x2,x1)", sig2)
        assert apply_hyp(h, Var(9)) == Var(9)

    def test_matches_recursive_oracle(self, sig23):
        cfg = GenConfig(seed=7, max_depth=4, var_bound=3, projection_rate=0.3, deletion_bias=0.3)
        for trial in range(100):
            rng = trial_stream(7, trial)
            h = gen_hyp(cfg, sig23, rng)
            t = gen_term(cfg, sig23, rng)
            assert apply_hyp(h, t) == oracles.apply_hyp_rec(h, t)

    def test_rejects_foreign_terms(self, sig2, sig23):
        h = parse_hyp("f -> f(x2,x1)", sig2)
        with pytest.raises(ValueError):
            apply_hyp(h, parse_term("f1(x1,x2)", sig23))

    def test_endomorphic_over_superposition(self, sig2):
        cfg = GenConfig(seed=8, max_depth=4, var_bound=2, projection_rate=0.2, deletion_bias=0.2)
        for trial in range(100):
            rng = trial_stream(8, trial)
            h = gen_hyp(cfg, sig2, rng)
            s = gen_term(cfg, sig2, rng)
            ts = [gen_term(cfg, sig2, rng) for _ in range(2)]
            lhs = apply_hyp(h, superpose(s, ts))
            rhs = superpose(apply_hyp(h, s), [apply_hyp(h, t) for t in ts])
            assert lhs == rhs


class TestCompose:
    def test_swap_composed_with_swap(self, sig2):
        swap = parse_hyp("f -> f(x2,x1)", sig2)
        composed = compose_hyp(swap, swap)
        assert render_term(composed.image("f")) == "f(x1,x2)"

    def test_associativity(self, sig23):
        # modest image depth: composite images still reach thousands of
        # shared nodes, which is what the memoized equality is for
        cfg = GenConfig(seed=9, max_depth=2, projection_rate=0.25, deletion_bias=0.25)
        for trial in range(100):
            rng = trial_stream(9, trial)
            h1, h2, h3 = (gen_hyp(cfg, sig23, rng) for _ in range(3))
            assert compose_hyp(compose_hyp(h1, h2), h3) == compose_hyp(h1, compose_hyp(h2, h3))

    def test_rejects_mismatched_signatures(self, sig2, sig23):
        with pytest.raises(ValueError, match="different signatures"):
            compose_hyp(identity_hyp(sig2), identity_hyp(sig23))


class TestPredicates:
    def test_identity_is_full_and_regular(self, sig23):
        assert is_full_hyp(identity_hyp(sig23))
        assert is_regular_hyp(identity_hyp(sig23))

    def test_projection_is_not_full(self, sig2):
        assert not is_full_hyp(parse_hyp("f -> x1", sig2))

    def test_full_inductive_image(self, sig2):
        assert is_full_hyp(parse_hyp("f -> f(f(x2,x1),f(x1,x2))", sig2))

    def test_deleting_image_is_not_regular(self, sig2):
        assert not is_regular_hyp(parse_hyp("f -> f(x1,x1)", sig2))

    def test_unary_projection_is_regular(self):
        sig = Signature({"u": 1})
        assert is_regular_hyp(parse_hyp("u -> x1", sig))

    def test_full_image_must_cover_all_variables(self, sig23):
        # f1(x2,x1) is a full term but covers only {x1,x2}; as the image of
        # the 3-ary f2 it leaves x3 unused, so the assignment is not full
        h = parse_hyp("f1 -> f1(x1,x2)\nf2 -> f1(x2,x1)", sig23)
        assert not is_full_hyp(h)
        assert not is_regular_hyp(h)

    def test_memory_follows_the_images_not_the_arities(self):
        # A set of 1..10**9, or a row of 10**9 depths for the unused g, needs
        # GBs; under a 1 GiB address-space limit the predicates, apply_hyp,
        # b_of and b_trace must still answer, in a child process so a
        # failure cannot take memory from anything else.  Using h leaves
        # nothing on it beyond its two fields.
        code = (
            "import resource\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))\n"
            "from termdepth import (Signature, apply_hyp, b_of, b_trace, is_full_hyp,\n"
            "    is_regular_hyp, parse_hyp, parse_term, render_term)\n"
            "sig = Signature({'f': 2, 'g': 10**9})\n"
            "h = parse_hyp('f -> f(x2,x1)\\ng -> x1', sig)\n"
            "t = parse_term('f(x1,f(x1,x2))', sig)\n"
            "print(is_regular_hyp(h), is_full_hyp(h), render_term(apply_hyp(h, t)),\n"
            "    b_of(h, t), b_trace(h, t, 2).b_sum, sorted(vars(h)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(termdepth.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        expected = "False False f(f(x2,x1),x1) 2 2 ['assignment', 'signature']\n"
        assert (done.returncode, done.stdout) == (0, expected), done.stderr

    def test_full_maps_full_terms_to_full_terms_single_arity(self, sig2, sig3):
        from termdepth import gen_full_hyp, gen_full_term, is_full

        for sig, seed in ((sig2, 26), (sig3, 27)):
            cfg = GenConfig(seed=seed, max_depth=3)
            for trial in range(150):
                rng = trial_stream(seed, trial)
                h = gen_full_hyp(cfg, sig, rng)
                t = gen_full_term(cfg, sig, rng, depth=rng.randint(1, 3))
                assert is_full(apply_hyp(h, t))

    def test_full_maps_full_can_break_on_mixed_arity(self, sig23):
        # the 3-ary permutation frontier renames the variables of the inner
        # 2-ary frontier away from x1..x2; same mechanism that breaks
        # composition closure over mixed-arity signatures
        from termdepth import is_full

        h = parse_hyp("f1 -> f1(x1,x2)\nf2 -> f1(f2(x2,x1,x3),f1(x2,x1))", sig23)
        t = parse_term("f2(x2,x3,x1)", sig23)
        assert is_full_hyp(h) and is_full(t)
        assert not is_full(apply_hyp(h, t))

    def test_full_implies_regular(self, sig2, sig3):
        from termdepth import gen_full_hyp

        for sig, seed in ((sig2, 1), (sig3, 2)):
            cfg = GenConfig(seed=seed, max_depth=3)
            for trial in range(100):
                h = gen_full_hyp(cfg, sig, trial_stream(seed, trial))
                assert is_full_hyp(h)
                assert is_regular_hyp(h)


class TestHypDepth:
    def test_identity_depth(self, sig23):
        assert hyp_depth(identity_hyp(sig23)) == 1

    def test_projection_depth(self, sig2):
        assert hyp_depth(parse_hyp("f -> x1", sig2)) == 0

    def test_max_over_images(self, sig23):
        h = parse_hyp("f1 -> f1(x2,x1)\nf2 -> f2(f2(x1,x2,x3),x2,x3)", sig23)
        assert hyp_depth(h) == 2


class TestPredictDepthFullHyp:
    def test_identity_case(self, sig2):
        t = parse_term("f(f(x2,x1),f(x1,x2))", sig2)
        assert predict_depth_full_hyp(identity_hyp(sig2), t) == depth(t)

    def test_swap_on_frontier(self, sig2):
        h = parse_hyp("f -> f(x2,x1)", sig2)
        t = parse_term("f(x1,x2)", sig2)
        assert predict_depth_full_hyp(h, t) == 1
        assert depth(apply_hyp(h, t)) == 1

    def test_rejects_non_full_image_even_when_product_matches(self, sig2):
        # f(f(x1,x2),x2) is not full (x2 child breaks both clauses), so the
        # multiplicative rule refuses it; the measured depth still happens
        # to equal the product here, which is why the guard matters
        h = parse_hyp("f -> f(f(x1,x2),x2)", sig2)
        t = parse_term("f(f(x2,x1),f(x1,x2))", sig2)
        assert not is_full_hyp(h)
        assert depth(apply_hyp(h, t)) == 4 == depth(h.image("f")) * depth(t)
        with pytest.raises(ValueError, match="full"):
            predict_depth_full_hyp(h, t)

    def test_rejects_multi_symbol_signature(self, sig23):
        h = identity_hyp(sig23)
        with pytest.raises(ValueError, match="one-symbol"):
            predict_depth_full_hyp(h, parse_term("f1(x2,x1)", sig23))

    def test_rejects_non_full_term(self, sig2):
        h = parse_hyp("f -> f(x2,x1)", sig2)
        with pytest.raises(ValueError, match="full"):
            predict_depth_full_hyp(h, Var(1))

    def test_multiplicative_rule_matches_measurement(self, sig3):
        from termdepth import gen_full_hyp, gen_full_term

        cfg = GenConfig(seed=31, max_depth=3)
        for trial in range(100):
            rng = trial_stream(31, trial)
            h = gen_full_hyp(cfg, sig3, rng)
            t = gen_full_term(cfg, sig3, rng, depth=rng.randint(1, 3))
            assert predict_depth_full_hyp(h, t) == depth(apply_hyp(h, t))
