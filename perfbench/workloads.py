"""The benchmark's workloads: inputs built from a seed, the ops, and their checks.

Every op is one public call a user would make (or, on ``shared-dag``, one
fixed sequence of them).  Ops are grouped in cycles that repeat the same
mix, so a run that stops after whole cycles always has the same share of
each op kind.  Each op's output is checked against ``reference``, which
does not use the package's own traversals.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# The signatures of the acceptance suites (tests/test_acceptance.py).
SIG2 = {"f": 2}
SIG3 = {"g": 3}
SIG23 = {"f1": 2, "f2": 3}
SIG124 = {"g1": 1, "g2": 2, "g4": 4}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _op_seed(seed: int, cycle: int, slot: int) -> int:
    # A fresh GenConfig seed per op, derived only from the workload seed.
    return random.Random(f"{seed}:{cycle}:{slot}").getrandbits(63)


def _sig_text(symbols: dict) -> str:
    return ",".join(f"{name}/{arity}" for name, arity in symbols.items())


# ---------------------------------------------------------------------------
# verify-compose and verify-hyp: one check_theorem call per op.


@dataclass(frozen=True)
class Check:
    kind: str
    symbols: dict
    gen: dict  # GenConfig fields other than the seed


class VerifyWorkload:
    """Cycles through ``checks``; each op runs ``trials`` trials of one law
    under a fresh seed.  Only thm5.1 may report discrepancies: their seed
    tokens must equal the ones the naive oracles find, and each shrunk
    record must replay."""

    def __init__(self, name: str, checks: tuple[Check, ...], trials: int):
        self.name = name
        self.checks = checks
        self.trials = trials

    def setup(self, td, seed: int, workdir: Path):
        return {
            "seed": seed,
            "configs": [(c, td.Signature(c.symbols)) for c in self.checks],
        }

    def cycle(self, td, inputs, k: int) -> list[Op]:
        ops = []
        for slot, (check, sig) in enumerate(inputs["configs"]):
            cfg = td.GenConfig(seed=_op_seed(inputs["seed"], k, slot), **check.gen)
            ops.append(
                Op(
                    label=f"{check.kind}[{_sig_text(check.symbols)}]",
                    call=lambda cfg=cfg, kind=check.kind, sig=sig: td.check_theorem(
                        kind, self.trials, cfg, sig
                    ),
                    check=lambda found, cfg=cfg, kind=check.kind, sig=sig: self._expected(
                        td, kind, cfg, sig, found
                    ),
                )
            )
        return ops

    def _expected(self, td, kind, cfg, sig, found) -> bool:
        if kind != "thm5.1":
            return found == []
        return {d.seed_state for d in found} == _thm51_divergent(
            td, cfg, sig, self.trials
        ) and all(_thm51_replays(td, d) for d in found)

    def record(self, inputs) -> dict:
        return {
            "trials_per_op": self.trials,
            "check_theorem_configs": [
                {"kind": c.kind, "signature": _sig_text(c.symbols), **c.gen} for c in self.checks
            ],
            "seed_per_op": "random.Random(f'{seed}:{cycle}:{slot}').getrandbits(63)",
        }


def _thm51_divergent(td, cfg, sig, trials: int) -> set[str]:
    out = set()
    for trial in range(trials):
        rng = td.trial_stream(cfg.seed, trial)
        h = td.gen_hyp(cfg, sig, rng)
        t = td.gen_term(cfg, sig, rng)
        if ref.naive_occurrence_sum(h, t) != ref.naive_apply_depth(h, t):
            out.add(f"{cfg.seed}:{trial}")
    return out


def _thm51_replays(td, disc) -> bool:
    sig = td.parse_signature(disc.inputs["signature"])
    h = td.parse_hyp(disc.inputs["sigma"], sig)
    t = td.parse_term(disc.inputs["t"], sig)
    predicted = ref.naive_occurrence_sum(h, t)
    actual = ref.naive_apply_depth(h, t)
    return (predicted, actual) == (disc.predicted, disc.actual) and predicted != actual


A3 = {"max_depth": 8, "var_bound": 3}
A7 = {"max_depth": 4, "var_bound": 3, "projection_rate": 0.2, "deletion_bias": 0.3}
A6 = {"max_depth": 3}

VERIFY_COMPOSE = VerifyWorkload(
    "verify-compose",
    (
        Check("thm3.3", SIG2, A3),
        Check("thm3.3", SIG23, A3),
        Check("thm3.3", SIG124, A3),
        Check("thm2.3", SIG2, {"max_depth": 6, "var_bound": 2}),
        Check("thm2.3", SIG3, {"max_depth": 5, "var_bound": 3}),
    ),
    trials=8,
)

VERIFY_HYP = VerifyWorkload(
    "verify-hyp",
    (
        Check("thm5.1", SIG2, A7),
        Check("thm5.1", SIG23, A7),
        Check("thm5.1", SIG124, A7),
        Check("cor4.5", SIG2, A6),
        Check("cor4.5", SIG3, A6),
        Check("cor4.6", SIG2, A6),
        Check("cor4.6", SIG3, A6),
    ),
    trials=8,
)


# ---------------------------------------------------------------------------
# deep-cli: in-process CLI calls on a deep spine read from a file.

# 10^4 levels is ten times Python's default recursion limit.  At 10^5 one
# op takes 1-3.5 s, too few ops per run for a tail percentile.
SPINE_LEVELS = 10_000


def spine_text(levels: int) -> str:
    """``f(f(...f(x1,x2)...,x2),x2)`` with ``levels`` applications."""
    return "f(" * levels + "x1" + ",x2)" * levels


class DeepCli:
    name = "deep-cli"

    def setup(self, td, seed: int, workdir: Path):
        cli = importlib.import_module("termdepth.cli")
        workdir.mkdir(parents=True, exist_ok=True)
        text = spine_text(SPINE_LEVELS)
        files = {"sig": workdir / "binary.sig", "term": workdir / "spine.term", "hyp": workdir / "swap.hyp"}
        files["sig"].write_text("f/2\n", encoding="utf-8")
        files["term"].write_text(text + "\n", encoding="utf-8")
        files["hyp"].write_text("f -> f(x2,x1)\n", encoding="utf-8")
        return {
            "cli": cli,
            "files": {k: str(v) for k, v in files.items()},
            "text": text,
            "half": spine_text(SPINE_LEVELS // 2),
            "order": random.Random(seed),
        }

    def cycle(self, td, inputs, k: int) -> list[Op]:
        # Two cheap ops, three middle ones, two dear ones: the median op falls
        # on the middle kind of the middle three, not on a boundary between
        # two kinds.
        f = inputs["files"]
        n = SPINE_LEVELS
        text = inputs["text"]
        swapped = "f(x2," * n + "x1" + ")" * n
        cases = [
            (["depth", f["sig"], f["term"], "--wrt", "1"], _lines(str(n))),
            (
                ["depth", f["sig"], f["term"], "--wrt", "2", "--json"],
                _json(inputs={"signature": "f/2", "term": text}, result={"wrt": 2, "depth": n}),
            ),
            (
                ["compose", f["sig"], "--outer", "f(x2,f(x1,x2))", "--args", text, inputs["half"], "--predict-only"],
                _lines(f"predicted: {n + 2}"),
            ),
            (["depth", f["sig"], f["term"]], _lines(f"depth: {n}", f"x1: {n}", f"x2: {n}", "vars: x1 x2")),
            (
                ["depth", f["sig"], f["term"], "--json"],
                _json(
                    inputs={"signature": "f/2", "term": text},
                    result={"depth": n, "per_variable": {"1": n, "2": n}, "vars": [1, 2]},
                ),
            ),
            (
                ["apply", f["sig"], f["hyp"], f["term"]],
                _lines(f"term: {swapped}", f"depth: {n}", f"predicted: {n}", "agree: true"),
            ),
            (
                ["apply", f["sig"], f["hyp"], f["term"], "--json"],
                _json(
                    inputs={"signature": "f/2", "hyp": "f -> f(x2,x1)", "term": text},
                    result={"term": swapped, "depth": n, "predicted": n, "agree": True},
                ),
            ),
        ]
        inputs["order"].shuffle(cases)
        cli = inputs["cli"]
        return [
            Op(
                " ".join([argv[0]] + [a for a in argv if a.startswith("--")]),
                lambda argv=argv: _run_cli(cli, argv),
                expect,
            )
            for argv, expect in cases
        ]

    def record(self, inputs) -> dict:
        return {"spine_levels": SPINE_LEVELS, "ops_per_cycle": 7}


def _run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _lines(*lines: str) -> Callable[[object], bool]:
    expected = (0, "\n".join(lines) + "\n")
    return lambda out: out == expected


def _json(**fields) -> Callable[[object], bool]:
    def check(out) -> bool:
        code, stdout = out
        record = json.loads(stdout)
        return code == 0 and record["discrepancies"] == [] and all(record[k] == v for k, v in fields.items())

    return check


# ---------------------------------------------------------------------------
# shared-dag: library calls on terms whose unfolded tree dwarfs their DAG.

# Input sizes: SHARED_PER_TARGET cases within SHARED_WINDOW of each leaf
# count.  With five equal classes the median op falls in the middle one,
# whose b_of walk (about 1.2e5 positions) outweighs the parts of the op that
# scale with distinct nodes, so the median does not follow which DAGs a seed
# drew.  One binary symbol keeps tree positions at exactly 2 * leaves - 1.
SHARED_TARGETS = (1_000, 10_000, 60_000, 150_000, 300_000)
SHARED_PER_TARGET = 10
SHARED_WINDOW = 1.1
SHARED_TERMS_PER_HYP = 4
SHARED_TERM_DEPTHS = (5, 6, 7)
SHARED_MAX_TRIES = 50_000


@dataclass
class SharedCase:
    h: object
    term: object
    leaves: int
    nodes: int
    copy: object = None  # the reference's rebuild of apply_hyp(h, term)
    expected: tuple = ()


class SharedDag:
    """Regular hypersubstitutions without bare-variable images, applied
    twice to random terms.  The op rewrites once more, so ``b_of`` stays in
    its exact domain and must equal the measured depth."""

    name = "shared-dag"

    def setup(self, td, seed: int, workdir: Path):
        rng = random.Random(f"shared-dag:{seed}")
        sig = td.Signature(SIG2)
        hyp_cfg = td.GenConfig(max_depth=2, var_bound=2)
        term_cfgs = [td.GenConfig(max_depth=d, var_bound=3) for d in SHARED_TERM_DEPTHS]
        wanted = dict.fromkeys(SHARED_TARGETS, SHARED_PER_TARGET)
        cases: list[tuple[int, SharedCase]] = []
        for _ in range(SHARED_MAX_TRIES):
            if not any(wanted.values()):
                break
            h = td.gen_hyp(hyp_cfg, sig, rng, regular=True)
            if any(not hasattr(image, "args") for image in h.assignment.values()):
                continue
            weights = ref.composed_leaf_counts(h)
            for _ in range(SHARED_TERMS_PER_HYP):
                t = td.gen_term(rng.choice(term_cfgs), sig, rng)
                leaves = ref.weighted_leaves(t, weights)
                target = next(
                    (g for g in SHARED_TARGETS if wanted[g] and g / SHARED_WINDOW <= leaves <= g * SHARED_WINDOW),
                    None,
                )
                if target is not None:
                    wanted[target] -= 1
                    term = td.apply_hyp(h, td.apply_hyp(h, t))
                    cases.append((target, SharedCase(h, term, leaves, ref.distinct_nodes(term))))
        if any(wanted.values()):
            raise RuntimeError(f"shared-dag: no full case set after {SHARED_MAX_TRIES} tries")
        cases.sort(key=lambda tc: tc[0])
        return {"cases": [c for _, c in cases], "order": random.Random(seed)}

    def prepare(self, td, inputs) -> None:
        for case in inputs["cases"]:
            copy = ref.rebuild_apply(case.h, case.term, td.App, td.Var)
            names = sorted(ref.variables(copy))
            case.copy = copy
            case.expected = (
                ref.depth(copy),
                {v: ref.depth_wrt(copy, v) for v in names},
                set(names),
                ref.leaves(copy),
                ref.depth(copy),  # b_of is exact here: regular, no projections
                True,
            )

    def cycle(self, td, inputs, k: int) -> list[Op]:
        cases = list(inputs["cases"])
        inputs["order"].shuffle(cases)
        return [
            Op(f"shared[{c.leaves}]", lambda c=c: _shared_op(td, c), lambda out, c=c: out == c.expected)
            for c in cases
        ]

    def record(self, inputs) -> dict:
        cases = inputs["cases"]
        ratios = sorted(c.leaves / c.nodes for c in cases)
        return {
            "kept_cases": len(cases),
            "leaf_targets": list(SHARED_TARGETS),
            "leaves": sorted(c.leaves for c in cases),
            "distinct_nodes": sorted(c.nodes for c in cases),
            "leaves_per_node_quartiles": [round(q, 1) for q in statistics.quantiles(ratios, n=4)],
            "share_leaves_over_10x_nodes": sum(r >= 10 for r in ratios) / len(ratios),
            "share_leaves_over_100x_nodes": sum(r >= 100 for r in ratios) / len(ratios),
        }


def _shared_op(td, case: SharedCase):
    r = td.apply_hyp(case.h, case.term)
    d = td.depth(r)
    wrt = {v: td.depth_wrt(r, v) for v in case.expected[1]}
    names = td.variables(r)
    n = td.length(r)
    b = td.b_of(case.h, case.term)
    return d, wrt, names, n, b, r == case.copy


WORKLOADS = {w.name: w for w in (VERIFY_COMPOSE, VERIFY_HYP, DeepCli(), SharedDag())}
