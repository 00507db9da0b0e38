"""Command-line interface.

Subcommands mirror the library: ``depth`` (depth reports), ``compose``
(term composition plus the per-variable depth prediction), ``apply``
(hypersubstitution application plus the occurrence-sum prediction),
``check`` (fullness/regularity predicates) and ``verify`` (randomized law
checks).

Exit codes: 0 on success, 1 when ``verify`` found discrepancies, 2 on
usage or parse errors.  With ``--json`` each invocation prints one JSON
object with the stable fields ``command``, ``inputs``, ``result`` and
``discrepancies``; in text mode discrepancies are printed as one JSON
record per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .hypersub import apply_hyp, is_full_hyp, is_regular_hyp
from .occurrences import b_of
from .superpose import is_full, predict_depth_general, superpose
from .terms import Signature, Term, depth, depth_report, depth_wrt
from .textio import ParseError, _render_input, parse_hyp, parse_signature, parse_term, render_term
from .verify import KINDS, GenConfig, check_theorem, signature_supports

__all__ = ["OutputRecord", "main"]


@dataclass
class OutputRecord:
    """Result of one invocation, renderable as text or as one JSON object.

    ``inputs`` holds the parsed objects (terms, signature, hypersubstitution)
    as they were read; they are rendered to canonical text only when the
    record is written as JSON, so text mode never renders them.
    """

    command: str
    inputs: dict
    result: object
    discrepancies: list = field(default_factory=list)
    text_lines: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "result": self.result,
                "discrepancies": self.discrepancies,
            },
            default=_render_input,
        )

    def to_text(self) -> str:
        lines = list(self.text_lines)
        lines.extend(json.dumps(d, sort_keys=True) for d in self.discrepancies)
        return "\n".join(lines)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_signature(args) -> Signature:
    return parse_signature(_read(args.signature))


def _load_term(args, sig: Signature) -> Term:
    if args.term is not None and args.expr is not None:
        raise ValueError("give a term file or --expr, not both")
    if args.term is None and args.expr is None:
        raise ValueError("a term file or --expr is required")
    text = _read(args.term) if args.term is not None else args.expr
    return parse_term(text, sig)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _cmd_depth(args) -> OutputRecord:
    sig = _load_signature(args)
    t = _load_term(args, sig)
    inputs = {"signature": sig, "term": t}
    if args.wrt is not None:
        value = depth_wrt(t, args.wrt)
        return OutputRecord(
            "depth",
            inputs,
            {"wrt": args.wrt, "depth": value},
            text_lines=[str(value)],
        )
    report = depth_report(t)
    result = {
        "depth": report.depth,
        "per_variable": {str(l): v for l, v in sorted(report.per_variable.items())},
        "vars": sorted(report.variables),
    }
    lines = [f"depth: {report.depth}"]
    lines.extend(f"x{l}: {v}" for l, v in sorted(report.per_variable.items()))
    lines.append("vars: " + " ".join(f"x{l}" for l in sorted(report.variables)))
    return OutputRecord("depth", inputs, result, text_lines=lines)


def _result_record(command: str, inputs: dict, term: Term, predicted: int) -> OutputRecord:
    """The built term, its measured depth, the prediction and whether they agree."""
    measured = depth(term)
    agree = measured == predicted
    result = {"term": render_term(term), "depth": measured, "predicted": predicted, "agree": agree}
    lines = [
        f"term: {result['term']}",
        f"depth: {measured}",
        f"predicted: {predicted}",
        f"agree: {_bool_text(agree)}",
    ]
    return OutputRecord(command, inputs, result, text_lines=lines)


def _cmd_compose(args) -> OutputRecord:
    sig = _load_signature(args)
    outer = parse_term(args.outer, sig)
    ts = [parse_term(text, sig) for text in args.args]
    inputs = {"signature": sig, "outer": outer, "args": ts}
    predicted = predict_depth_general(outer, ts)
    if args.predict_only:
        return OutputRecord(
            "compose",
            inputs,
            {"predicted": predicted},
            text_lines=[f"predicted: {predicted}"],
        )
    return _result_record("compose", inputs, superpose(outer, ts), predicted)


def _cmd_apply(args) -> OutputRecord:
    sig = _load_signature(args)
    h = parse_hyp(_read(args.hyp), sig)
    t = _load_term(args, sig)
    inputs = {"signature": sig, "hyp": h, "term": t}
    return _result_record("apply", inputs, apply_hyp(h, t), b_of(h, t))


def _cmd_check(args) -> OutputRecord:
    sig = _load_signature(args)
    inputs: dict = {"signature": sig}
    if args.full is not None:
        t = parse_term(args.full, sig)
        inputs["term"] = t
        answer = is_full(t)
        predicate = "full"
    elif args.full_hyp is not None:
        h = parse_hyp(_read(args.full_hyp), sig)
        inputs["hyp"] = h
        answer = is_full_hyp(h)
        predicate = "full-hyp"
    else:
        h = parse_hyp(_read(args.regular), sig)
        inputs["hyp"] = h
        answer = is_regular_hyp(h)
        predicate = "regular"
    return OutputRecord(
        "check",
        inputs,
        {"predicate": predicate, "holds": answer},
        text_lines=[_bool_text(answer)],
    )


def _cmd_verify(args) -> OutputRecord:
    sig = _load_signature(args)
    cfg = GenConfig(
        seed=args.seed,
        max_depth=args.max_depth,
        projection_rate=args.projection_rate,
        deletion_bias=args.deletion_bias,
    )
    if args.theorem == "all":
        kinds = [k for k in KINDS if signature_supports(k, sig)]
        skipped = [k for k in KINDS if not signature_supports(k, sig)]
    else:
        kinds = [args.theorem]
        skipped = []
    inputs = {
        "signature": sig,
        "theorem": args.theorem,
        "trials": args.trials,
        "seed": args.seed,
        "max_depth": args.max_depth,
        "projection_rate": args.projection_rate,
        "deletion_bias": args.deletion_bias,
    }
    checks: dict = {}
    discrepancies: list = []
    lines: list = []
    for kind in kinds:
        found = check_theorem(kind, args.trials, cfg, sig)
        checks[kind] = {"trials": args.trials, "discrepancies": len(found)}
        discrepancies.extend(d.as_dict() for d in found)
        lines.append(f"{kind}: {args.trials} trials, {len(found)} discrepancies")
    for kind in skipped:
        checks[kind] = {"skipped": "signature shape not supported"}
        lines.append(f"{kind}: skipped (signature shape not supported)")
    return OutputRecord(
        "verify",
        inputs,
        {"checks": checks},
        discrepancies=discrepancies,
        text_lines=lines,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termdepth",
        description="Depth calculus for terms over ranked signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("depth", help="depth and per-variable depths of a term")
    p.add_argument("signature", help="signature file (name/arity per line)")
    p.add_argument("term", nargs="?", help="term file")
    p.add_argument("--expr", help="inline term text instead of a file")
    p.add_argument("--wrt", type=int, help="report only the depth w.r.t. x<WRT>")
    add_json(p)
    p.set_defaults(handler=_cmd_depth)

    p = sub.add_parser("compose", help="compose terms and predict the result depth")
    p.add_argument("signature")
    p.add_argument("--outer", required=True, help="outer term text")
    p.add_argument("--args", nargs="+", required=True, help="argument terms t1..tn; n is their count")
    p.add_argument("--predict-only", action="store_true", help="skip building the composite")
    add_json(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("apply", help="apply a hypersubstitution and predict the depth")
    p.add_argument("signature")
    p.add_argument("hyp", help="hypersubstitution file (name -> term per line)")
    p.add_argument("term", nargs="?", help="term file")
    p.add_argument("--expr", help="inline term text instead of a file")
    add_json(p)
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("check", help="fullness and regularity predicates")
    p.add_argument("signature")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--full", help="term text: is it a full term?")
    group.add_argument("--full-hyp", help="hyp file: is it a full hypersubstitution?")
    group.add_argument("--regular", help="hyp file: is it a regular hypersubstitution?")
    add_json(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("verify", help="randomized law checks with shrinking")
    p.add_argument("signature")
    p.add_argument(
        "--theorem",
        required=True,
        choices=KINDS + ("all",),
        help="which law to check",
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--projection-rate", type=float, default=0.1)
    p.add_argument("--deletion-bias", type=float, default=0.1)
    add_json(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(record.to_json() if args.json else record.to_text())
    return 1 if record.discrepancies else 0


if __name__ == "__main__":
    sys.exit(main())
