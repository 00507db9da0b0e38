"""The package surface: the re-exported names, the README's examples, and
the records' pickling and copying."""

import copy
import importlib
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import termdepth
from termdepth.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)


def test_all_reexports_every_module_name_once():
    # termdepth.superpose is the function, so the modules are looked up by path
    modules = [
        importlib.import_module(f"termdepth.{name}")
        for name in ("hypersub", "occurrences", "superpose", "terms", "textio", "verify")
    ]
    assert sorted(termdepth.__all__) == sorted(name for m in modules for name in m.__all__)
    assert len(termdepth.__all__) == len(set(termdepth.__all__))
    for module in modules:
        for name in module.__all__:
            assert getattr(termdepth, name) is getattr(module, name), name


def test_readme_quickstart_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(code, {})
    printed = [line.partition("# ")[2] for line in code.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == printed


def readme_cli_examples():
    """``(argv, printed lines)`` for each ``$ termdepth ...`` example."""
    (session,) = [body for lang, body in BLOCKS if lang == "sh" and "$ termdepth" in body]
    for example in session.split("\n\n"):
        command, *printed = example.replace("\\\n", " ").strip().splitlines()
        yield shlex.split(command.removeprefix("$ "))[1:], printed


def test_readme_cli_examples_print_what_they_show(capsys, tmp_path):
    sig = tmp_path / "binary.sig"
    sig.write_text("f/2\n")
    ran = []
    for argv, printed in readme_cli_examples():
        if argv[0] == "verify":  # 10^4 trials; the verify command has its own tests
            continue
        assert main([str(sig) if arg == "binary.sig" else arg for arg in argv]) == 0
        assert capsys.readouterr().out.splitlines() == printed
        ran.append(argv[0])
    assert ran == ["depth", "compose"]


def _applied_hyp():
    sig = termdepth.Signature({"f": 2, "g": 1})
    h = termdepth.parse_hyp("f -> f(x2,g(x1))\ng -> x1", sig)
    termdepth.apply_hyp(h, termdepth.parse_term("f(g(x1),x2)", sig))
    return h


@pytest.mark.parametrize(
    "make",
    [
        lambda: termdepth.Signature({"f": 2, "g": 1}),
        _applied_hyp,
        lambda: termdepth.depth_report(termdepth.Var(2), 3),
        lambda: termdepth.Discrepancy("thm5.1", {"signature": "f/2", "t": "x1"}, 1, 0, "5:3"),
    ],
    ids=["Signature", "Hypersubstitution", "DepthReport", "Discrepancy"],
)
def test_records_round_trip_through_pickle_and_deepcopy(make):
    record = make()
    twins = [pickle.loads(pickle.dumps(record)), copy.deepcopy(record)]
    if isinstance(record, termdepth.Signature):  # equality ignores symbol order
        twins.append(termdepth.Signature(dict(reversed(record.symbols.items()))))
    for twin in twins:
        assert type(twin) is type(record) and twin == record and twin is not record
        assert hash(twin) == hash(record) and {record: "found"}[twin] == "found"


def test_imports_nothing_beyond_the_standard_library():
    # A fresh interpreter: what site hooks load before the import is left out.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import termdepth, termdepth.cli\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(termdepth.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.split())
    assert "termdepth" in imported
    assert imported - {"termdepth"} <= set(sys.stdlib_module_names)
