"""Command-line interface.

Subcommands mirror the library: ``depth`` (depth reports), ``compose``
(term composition plus the per-variable depth prediction), ``apply``
(hypersubstitution application plus the occurrence-sum prediction),
``check`` (fullness/regularity predicates) and ``verify`` (randomized law
checks).

Every subcommand's first positional argument is a signature file, which
``main`` parses before it calls the subcommand's handler
``_cmd_<name>(args, sig)``.  A handler returns ``(inputs, result, lines,
discrepancies)``: the parsed inputs, the JSON-ready result, the text-mode
lines and the discrepancy records.  ``main`` is the one writer: with
``--json`` it prints one JSON object with the stable fields ``command``,
``inputs``, ``result`` and ``discrepancies``, rendering the inputs to
canonical text only then; in text mode it prints the lines, then one JSON
record per discrepancy.  A reader that closes the pipe early is not an
error.

Exit codes: 0 on success, 1 when ``verify`` found discrepancies, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .hypersub import apply_hyp, is_full_hyp, is_regular_hyp
from .occurrences import b_of
from .superpose import is_full, predict_depth_general, superpose
from .terms import Signature, Term, depth, depth_report, depth_wrt
from .textio import ParseError, _render_input, parse_hyp, parse_signature, parse_term, render_term
from .verify import KINDS, GenConfig, check_theorem, signature_supports

__all__ = ["main"]

# The GenConfig fields that ``verify`` takes as flags; their types and
# defaults are GenConfig's own.
_GEN_FLAGS = ("seed", "max_depth", "projection_rate", "deletion_bias")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_term(args, sig: Signature) -> Term:
    if args.term is not None and args.expr is not None:
        raise ValueError("give a term file or --expr, not both")
    if args.term is None and args.expr is None:
        raise ValueError("a term file or --expr is required")
    text = _read(args.term) if args.term is not None else args.expr
    return parse_term(text, sig)


def _text(value: object) -> str:
    """``value`` as text output shows it: booleans as ``true``/``false``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _field_lines(result: dict) -> list[str]:
    return [f"{key}: {_text(value)}" for key, value in result.items()]


def _cmd_depth(args, sig: Signature):
    t = _load_term(args, sig)
    inputs = {"signature": sig, "term": t}
    if args.wrt is not None:
        value = depth_wrt(t, args.wrt)
        return inputs, {"wrt": args.wrt, "depth": value}, [str(value)], []
    report = depth_report(t)
    per_variable = sorted(report.per_variable.items())
    result = {
        "depth": report.depth,
        "per_variable": {str(l): v for l, v in per_variable},
        "vars": sorted(report.variables),
    }
    lines = [f"depth: {report.depth}"]
    lines.extend(f"x{l}: {v}" for l, v in per_variable)
    lines.append("vars: " + " ".join(f"x{l}" for l in result["vars"]))
    return inputs, result, lines, []


def _built(term: Term, predicted: int) -> dict:
    """The built term, its measured depth, the prediction and whether they agree."""
    measured = depth(term)
    agree = measured == predicted
    return {"term": render_term(term), "depth": measured, "predicted": predicted, "agree": agree}


def _cmd_compose(args, sig: Signature):
    outer = parse_term(args.outer, sig)
    ts = [parse_term(text, sig) for text in args.args]
    inputs = {"signature": sig, "outer": outer, "args": ts}
    predicted = predict_depth_general(outer, ts)
    result = {"predicted": predicted} if args.predict_only else _built(superpose(outer, ts), predicted)
    return inputs, result, _field_lines(result), []


def _cmd_apply(args, sig: Signature):
    h = parse_hyp(_read(args.hyp), sig)
    t = _load_term(args, sig)
    result = _built(apply_hyp(h, t), b_of(h, t))
    return {"signature": sig, "hyp": h, "term": t}, result, _field_lines(result), []


def _cmd_check(args, sig: Signature):
    inputs: dict = {"signature": sig}
    if args.full is not None:
        inputs["term"] = t = parse_term(args.full, sig)
        predicate, answer = "full", is_full(t)
    elif args.full_hyp is not None:
        inputs["hyp"] = h = parse_hyp(_read(args.full_hyp), sig)
        predicate, answer = "full-hyp", is_full_hyp(h)
    else:
        inputs["hyp"] = h = parse_hyp(_read(args.regular), sig)
        predicate, answer = "regular", is_regular_hyp(h)
    return inputs, {"predicate": predicate, "holds": answer}, [_text(answer)], []


def _cmd_verify(args, sig: Signature):
    gen = {name: getattr(args, name) for name in _GEN_FLAGS}
    cfg = GenConfig(**gen)
    if args.theorem == "all":
        kinds = [k for k in KINDS if signature_supports(k, sig)]
        skipped = [k for k in KINDS if not signature_supports(k, sig)]
    else:
        kinds = [args.theorem]
        skipped = []
    inputs = {"signature": sig, "theorem": args.theorem, "trials": args.trials, **gen}
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
    return inputs, {"checks": checks}, lines, discrepancies


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
    for name in _GEN_FLAGS:
        default = getattr(GenConfig, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    add_json(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sig = parse_signature(_read(args.signature))
        inputs, result, lines, discrepancies = args.handler(args, sig)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        record = {"command": args.command, "inputs": inputs, "result": result, "discrepancies": discrepancies}
        text = json.dumps(record, default=_render_input)
    else:
        text = "\n".join([*lines, *(json.dumps(d, sort_keys=True) for d in discrepancies)])
    status = 1 if discrepancies else 0
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
