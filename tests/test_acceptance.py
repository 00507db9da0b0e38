"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All checks are exact integer equalities; the only tolerances are
the wall-clock budgets stated per criterion.
"""

import random
import time

from termdepth import (
    App,
    GenConfig,
    ParseError,
    Signature,
    Var,
    apply_hyp,
    b_of,
    check_theorem,
    compose_hyp,
    depth,
    depth_wrt,
    gen_hyp,
    gen_term,
    hyp_depth,
    identity_hyp,
    parse_hyp,
    parse_signature,
    parse_term,
    predict_depth_general,
    render_term,
    superpose,
    trial_stream,
)

SIG2 = Signature({"f": 2})
SIG3 = Signature({"g": 3})
SIG23 = Signature({"f1": 2, "f2": 3})
SIG124 = Signature({"g1": 1, "g2": 2, "g4": 4})


class Criterion:
    """Times a criterion and prints exactly one PASS/FAIL line."""

    def __init__(self, name: str, budget: float):
        self.name = name
        self.budget = budget
        self.notes: list[str] = []

    def note(self, text: str) -> None:
        self.notes.append(text)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        detail = f"{elapsed:.2f}s of {self.budget:.0f}s"
        if self.notes:
            detail += "; " + "; ".join(self.notes)
        print(f"[acceptance] {self.name}: {status} ({detail})")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s ({elapsed:.2f}s)"
        return False


def test_a1_golden_binary_composition():
    with Criterion("A1 golden binary composition", budget=1.0):
        t1 = parse_term("f(x1,f(x1,x2))", SIG2)
        t2 = parse_term("f(x2,x1)", SIG2)
        s1 = parse_term("f(f(x2,x2),x1)", SIG2)
        s2 = parse_term("f(f(x1,x1),x2)", SIG2)
        composed = superpose(s1, [t1, t2])
        assert render_term(composed) == "f(f(f(x2,x1),f(x2,x1)),f(x1,f(x1,x2)))"
        assert depth(composed) == 3
        assert depth(superpose(s2, [t1, t2])) == 4


def test_a2_golden_per_variable_depths():
    with Criterion("A2 golden per-variable depth table", budget=1.0):
        t1 = parse_term("f2(f1(x1,x1),f1(x1,x2),x3)", SIG23)
        t2 = parse_term("f1(f2(x1,x1,x2),x1)", SIG23)
        t3 = parse_term("f1(f2(x1,x3,x3),x1)", SIG23)
        s = parse_term("f2(f1(x1,x2),x2,x3)", SIG23)
        expected = {t1: (2, 2, 1), t2: (2, 2, 0), t3: (2, 0, 2), s: (2, 2, 1)}
        for term, values in expected.items():
            assert tuple(depth_wrt(term, l) for l in (1, 2, 3)) == values
        assert depth(superpose(s, [t1, t2, t3])) == 4
        assert predict_depth_general(s, [t1, t2, t3]) == 4


def test_a3_composition_depth_formula_suite():
    with Criterion("A3 composition depth formula, 3x3400 trials", budget=30.0) as c:
        total = 0
        for sig, seed in ((SIG2, 30), (SIG23, 31), (SIG124, 32)):
            cfg = GenConfig(seed=seed, max_depth=8, var_bound=3)
            assert check_theorem("thm3.3", 3400, cfg, sig) == []
            total += 3400
        assert total >= 10_000
        c.note(f"{total} trials, 0 discrepancies")


def test_a4_additive_depth_formula_suite():
    with Criterion("A4 additive depth formula for full outer terms", budget=30.0) as c:
        for sig, seed, d in ((SIG2, 40, 6), (SIG3, 41, 5)):
            cfg = GenConfig(seed=seed, max_depth=d, var_bound=sig.common_arity())
            assert check_theorem("thm2.3", 5000, cfg, sig) == []
        # negative control: equal input depths, different composite depths,
        # so the additive rule cannot extend to non-full outer terms
        t1 = parse_term("f(x1,f(x1,x2))", SIG2)
        t2 = parse_term("f(x2,x1)", SIG2)
        s1 = parse_term("f(f(x2,x2),x1)", SIG2)
        s2 = parse_term("f(f(x1,x1),x2)", SIG2)
        assert depth(s1) == depth(s2)
        d1 = depth(superpose(s1, [t1, t2]))
        d2 = depth(superpose(s2, [t1, t2]))
        assert (d1, d2) == (3, 4)
        naive = max(depth(t1), depth(t2)) + depth(s1)
        assert naive != d1
        c.note("10000 trials, 0 discrepancies; negative control reproduced")


def test_a5_closure_and_monoid_laws():
    with Criterion("A5 closure and monoid laws", budget=30.0) as c:
        # composition of full terms stays full (any signature shape)
        for sig, seed in ((SIG2, 50), (SIG23, 51)):
            cfg = GenConfig(seed=seed, max_depth=4)
            assert check_theorem("lemma2.2", 500, cfg, sig) == []
        # composition of full assignments stays full on single-arity
        # signatures (its sound domain; the mixed-arity divergence is
        # pinned in test_verify.py)
        for sig, seed in ((Signature({"p": 2, "q": 2}), 52), (SIG3, 53)):
            cfg = GenConfig(seed=seed, max_depth=3)
            assert check_theorem("lemma4.2", 500, cfg, sig) == []
        # monoid laws over arbitrary assignments, projections included
        ident = identity_hyp(SIG23)
        cfg = GenConfig(seed=54, max_depth=2, projection_rate=0.25, deletion_bias=0.25)
        for trial in range(1000):
            rng = trial_stream(54, trial)
            h1, h2, h3 = (gen_hyp(cfg, SIG23, rng) for _ in range(3))
            assert compose_hyp(compose_hyp(h1, h2), h3) == compose_hyp(h1, compose_hyp(h2, h3))
            assert compose_hyp(ident, h1) == h1
            assert compose_hyp(h1, ident) == h1
        c.note("1000 closures each, 1000 monoid triples/pairs")


def test_a6_multiplicative_depth_laws():
    with Criterion("A6 multiplicative depth laws over one-symbol types", budget=10.0) as c:
        for sig, seed in ((SIG2, 60), (SIG3, 61)):
            cfg = GenConfig(seed=seed, max_depth=3)
            assert check_theorem("cor4.5", 1000, cfg, sig) == []
            assert check_theorem("cor4.6", 1000, cfg, sig) == []
            assert hyp_depth(identity_hyp(sig)) == 1
        c.note("1000 trials per law per type, 0 discrepancies")


def test_a7_occurrence_predictor_suite():
    with Criterion("A7 occurrence-sum depth predictor, 3x10000 trials", budget=60.0) as c:
        total_findings = 0
        smallest = None
        for sig, seed in ((SIG2, 70), (SIG23, 71), (SIG124, 72)):
            cfg = GenConfig(
                seed=seed, max_depth=4, var_bound=3, projection_rate=0.2, deletion_bias=0.3
            )
            found = check_theorem("thm5.1", 10_000, cfg, sig)
            total_findings += len(found)
            # every reported counterexample replays standalone from its text
            for disc in found:
                disc_sig = parse_signature(disc.inputs["signature"])
                h = parse_hyp(disc.inputs["sigma"], disc_sig)
                t = parse_term(disc.inputs["t"], disc_sig)
                assert b_of(h, t) == disc.predicted
                assert depth(apply_hyp(h, t)) == disc.actual
                assert disc.predicted != disc.actual
                size = len(disc.inputs["sigma"]) + len(disc.inputs["t"])
                if smallest is None or size < smallest[0]:
                    smallest = (size, disc)
            # the identity special case holds on every trial's term
            ident = identity_hyp(sig)
            for trial in range(10_000):
                rng = trial_stream(seed, trial)
                gen_hyp(cfg, sig, rng)
                t = gen_term(cfg, sig, rng)
                assert b_of(ident, t) == depth(t)
        c.note(
            f"30000 trials; identity case exact on all; "
            f"{total_findings} projection/deletion counterexamples shrunk, "
            f"reported and replayed"
        )
        if smallest is not None:
            _, disc = smallest
            c.note(
                "smallest: "
                + disc.inputs["sigma"].replace("\n", "; ")
                + f" on {disc.inputs['t']} predicts {disc.predicted} vs {disc.actual}"
            )


def test_a8_parser_round_trip_and_fuzz():
    with Criterion("A8 parser round-trip and fuzz robustness", budget=30.0) as c:
        cfg = GenConfig(seed=80, max_depth=7, var_bound=5)
        for trial in range(10_000):
            rng = trial_stream(80, trial)
            sig = Signature({f"f{k}": rng.randint(1, 3) for k in range(1, 4)})
            t = gen_term(cfg, sig, rng)
            text = render_term(t)
            parsed = parse_term(text, sig)
            assert parsed == t
            assert render_term(parsed) == text
        charset = "f12x3(),_ \thijv->#/x"
        rng = random.Random(424242)
        for _ in range(10_000):
            text = "".join(rng.choice(charset) for _ in range(rng.randint(0, 40)))
            try:
                term = parse_term(text, SIG23)
            except ParseError as exc:
                assert 0 <= exc.span.start <= exc.span.end <= len(text.encode())
            else:
                SIG23.validate_term(term)
        c.note("10000 byte-exact round-trips, 10000 fuzzed inputs without a crash")


def test_a9_deep_term_scale():
    with Criterion("A9 deep-term scale check", budget=5.0) as c:
        t: object = Var(1)
        for _ in range(100_000):
            t = App("f", (t, Var(2)))
        assert depth(t) == 100_000
        assert b_of(identity_hyp(SIG2), t) == 100_000
        h = parse_hyp("f -> f(x2,x1)", SIG2)
        assert b_of(h, t) == 100_000
        c.note("100000 applications, depth and b_of stack-safe")
