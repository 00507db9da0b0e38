"""Seed tokens replay: the generators' random-draw sequence is pinned.

A ``"<seed>:<trial>"`` token must regenerate the same values across
releases, so these expected renders and digests are frozen.  A change that
alters them changes every recorded counterexample and needs an explicit
compatibility note.
"""

import hashlib
import json

from termdepth import (
    KINDS,
    GenConfig,
    Signature,
    check_theorem,
    gen_full_hyp,
    gen_full_term,
    gen_hyp,
    gen_term,
    render_hyp,
    render_term,
    trial_stream,
)
from termdepth.verify import signature_supports

SIGS = {
    "f/2": Signature({"f": 2}),
    "f1/2,f2/3": Signature({"f1": 2, "f2": 3}),
    "g1/1,g2/2,g4/4": Signature({"g1": 1, "g2": 2, "g4": 4}),
}


def _cfg(seed: int, max_depth: int) -> GenConfig:
    return GenConfig(
        seed=seed, max_depth=max_depth, var_bound=3, projection_rate=0.2, deletion_bias=0.3
    )


# (signature, trial) -> (gen_term, then gen_hyp from the same stream), seed 7, depth 3
GOLDEN_RENDERS = {
    ("f/2", 0): (
        "f(f(f(x3,x3),f(x1,x2)),f(f(x3,x1),f(x3,x2)))",
        "f -> f(f(f(x1,x1),f(x1,x1)),f(f(x1,x1),f(x1,x1)))",
    ),
    ("f/2", 1): ("f(x2,f(f(x1,x2),f(x3,x2)))", "f -> f(x2,x1)"),
    ("f/2", 2): ("x1", "f -> x2"),
    ("f1/2,f2/3", 0): (
        "f1(f2(f2(x3,x3,x2),f1(x1,x2),f1(x2,x1)),f1(f2(x2,x2,x2),f2(x3,x1,x3)))",
        "f1 -> x2\nf2 -> x2",
    ),
    ("f1/2,f2/3", 1): (
        "f1(x2,f2(f1(x1,x2),f2(x3,x2,x1),f1(x1,x3)))",
        "f1 -> x2\nf2 -> f2(f2(f2(x1,x2,x2),f2(x1,x1,x1),x3),f1(f2(x3,x1,x3),f1(x1,x3)),x1)",
    ),
    ("f1/2,f2/3", 2): (
        "x1",
        "f1 -> x2\n"
        "f2 -> f1(f2(f2(x1,x1,x1),f1(x1,x1),f2(x1,x1,x1)),f2(f2(x1,x1,x1),f2(x1,x1,x1),f1(x1,x1)))",
    ),
    ("g1/1,g2/2,g4/4", 0): (
        "g1(g2(g4(x3,x2,x3,x3),g4(x1,x1,x2,x3)))",
        "g1 -> g1(g4(g4(x1,x1,x1,x1),x1,g1(x1),x1))\n"
        "g2 -> x2\n"
        "g4 -> g4(g1(g4(x1,x3,x3,x1)),g4(g2(x4,x4),x3,g4(x3,x4,x4,x2),g2(x3,x4)),g1(x1),g2(g2(x2,x1),x2))",
    ),
    ("g1/1,g2/2,g4/4", 1): (
        "g4(x2,g2(g2(x3,x3),x2),g4(g4(x2,x1,x3,x2),g1(x1),g1(x2),x1),g2(x3,g4(x2,x3,x1,x3)))",
        "g1 -> g4(x1,g2(g2(x1,x1),g1(x1)),g2(x1,g1(x1)),g1(g1(x1)))\n"
        "g2 -> g2(x2,g1(g1(x2)))\n"
        "g4 -> x3",
    ),
    ("g1/1,g2/2,g4/4", 2): (
        "x1",
        "g1 -> x1\ng2 -> g2(g1(x2),x2)\ng4 -> g2(g4(x3,g1(x3),x1,g2(x3,x2)),g2(x3,g2(x2,x4)))",
    ),
}

# sha256 over every generator's output for 300 trials per signature (seed 8, depth 5)
GENERATOR_DIGEST = "ba1c6c94aff94c9eb95d90ad1843dce554065b05bbe9d5f8e032dbee72680f16"

# thm5.1 over f1/2,f2/3 at the A7 knobs, seed 71, 40 trials: shrunk records
GOLDEN_THM51 = [
    {
        "kind": "thm5.1",
        "inputs": {
            "signature": "f1/2\nf2/3",
            "sigma": "f1 -> f2(x2,x2,x2)\nf2 -> x1",
            "t": "f1(x2,f2(x2,f1(x1,x2),x1))",
        },
        "predicted": 2,
        "actual": 1,
        "seed_state": "71:3",
    },
    {
        "kind": "thm5.1",
        "inputs": {
            "signature": "f1/2\nf2/3",
            "sigma": "f1 -> x1\nf2 -> f1(x3,x3)",
            "t": "f2(x2,x3,f1(x1,f2(x3,x2,x1)))",
        },
        "predicted": 2,
        "actual": 1,
        "seed_state": "71:11",
    },
    {
        "kind": "thm5.1",
        "inputs": {
            "signature": "f1/2\nf2/3",
            "sigma": "f1 -> f2(x2,x1,x1)\nf2 -> x2",
            "t": "f1(f2(x1,x2,f1(x1,x1)),x2)",
        },
        "predicted": 2,
        "actual": 1,
        "seed_state": "71:12",
    },
    {
        "kind": "thm5.1",
        "inputs": {
            "signature": "f1/2\nf2/3",
            "sigma": "f1 -> x2\nf2 -> f2(x2,x2,x2)",
            "t": "f1(x3,f2(x1,x1,x1))",
        },
        "predicted": 0,
        "actual": 1,
        "seed_state": "71:19",
    },
    {
        "kind": "thm5.1",
        "inputs": {
            "signature": "f1/2\nf2/3",
            "sigma": "f1 -> f2(x2,x1,x2)\nf2 -> x3",
            "t": "f2(x1,x1,f1(x3,x1))",
        },
        "predicted": 0,
        "actual": 1,
        "seed_state": "71:23",
    },
    {
        "kind": "thm5.1",
        "inputs": {
            "signature": "f1/2\nf2/3",
            "sigma": "f1 -> f1(x2,x1)\nf2 -> x3",
            "t": "f2(x1,x1,f1(x3,x3))",
        },
        "predicted": 0,
        "actual": 1,
        "seed_state": "71:36",
    },
]

# sha256 over the thm5.1 records of 300 trials per signature (seeds 70, 71, 72)
THM51_DIGEST = "040fb4db889825a46c0e34170d2183e2763b7a2fee6a221db332759c6b47ddbd"

# sha256 over the lemma4.2 records of 300 trials on each mixed-arity
# signature (seeds 42, 43, depth 3): the other law that reports shrunk
# counterexamples
LEMMA42_DIGEST = "876ae090d7113d3f025dae8c7f6832bbd339c25fbf1511cc329fffe551df88f7"

# discrepancies in 300 trials (seed 5, depth 4) of every (kind, signature)
# pair whose signature shape the kind supports
DISCREPANCY_COUNTS = {
    ("thm2.3", "f/2"): 0,
    ("thm3.3", "f/2"): 0,
    ("cor4.5", "f/2"): 0,
    ("cor4.6", "f/2"): 0,
    ("thm5.1", "f/2"): 4,
    ("lemma2.2", "f/2"): 0,
    ("lemma4.2", "f/2"): 0,
    ("thm3.3", "f1/2,f2/3"): 0,
    ("thm5.1", "f1/2,f2/3"): 40,
    ("lemma2.2", "f1/2,f2/3"): 0,
    ("lemma4.2", "f1/2,f2/3"): 157,
    ("thm3.3", "g1/1,g2/2,g4/4"): 0,
    ("thm5.1", "g1/1,g2/2,g4/4"): 48,
    ("lemma2.2", "g1/1,g2/2,g4/4"): 0,
    ("lemma4.2", "g1/1,g2/2,g4/4"): 214,
}


def test_golden_renders():
    cfg = _cfg(7, 3)
    for (name, trial), (term_text, hyp_text) in GOLDEN_RENDERS.items():
        rng = trial_stream(7, trial)
        assert render_term(gen_term(cfg, SIGS[name], rng)) == term_text
        assert render_hyp(gen_hyp(cfg, SIGS[name], rng)) == hyp_text


def test_generator_digest():
    cfg = _cfg(8, 5)
    digest = hashlib.sha256()
    for sig in SIGS.values():
        for trial in range(300):
            rng = trial_stream(8, trial)
            parts = [
                render_term(gen_term(cfg, sig, rng)),
                render_hyp(gen_hyp(cfg, sig, rng)),
                render_hyp(gen_hyp(cfg, sig, rng, regular=True)),
            ]
            if sig.common_arity() is not None:
                parts.append(render_term(gen_full_term(cfg, sig, rng, depth=3)))
            parts.append(render_hyp(gen_full_hyp(cfg, sig, rng)))
            digest.update(("\n".join(parts) + "\n\n").encode())
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_thm51_records_replay():
    found = check_theorem("thm5.1", 40, _cfg(71, 4), SIGS["f1/2,f2/3"])
    assert [d.as_dict() for d in found] == GOLDEN_THM51


def test_thm51_digest():
    digest = hashlib.sha256()
    for offset, sig in enumerate(SIGS.values()):
        for d in check_theorem("thm5.1", 300, _cfg(70 + offset, 4), sig):
            digest.update((json.dumps(d.as_dict(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == THM51_DIGEST


def test_lemma42_digest():
    digest = hashlib.sha256()
    for offset, name in enumerate(["f1/2,f2/3", "g1/1,g2/2,g4/4"]):
        for d in check_theorem("lemma4.2", 300, _cfg(42 + offset, 3), SIGS[name]):
            digest.update((json.dumps(d.as_dict(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == LEMMA42_DIGEST


def test_discrepancy_counts():
    supported = [
        (kind, name) for name, sig in SIGS.items() for kind in KINDS if signature_supports(kind, sig)
    ]
    assert supported == list(DISCREPANCY_COUNTS)
    counts = {
        (kind, name): len(check_theorem(kind, 300, _cfg(5, 4), SIGS[name]))
        for kind, name in supported
    }
    assert counts == DISCREPANCY_COUNTS
