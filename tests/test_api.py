"""Names that code and docs outside `src/` rely on still resolve.

`perfbench/tracing.py` wraps threshcast functions at the module attribute
its callers read, and the oracles in `perfbench/workloads.py` call package
names; README's quick start documents the package root, its CLI section
every option, and `__all__` lists the root's names; pyproject's requires-python names the grammar `src/` is
written in.  Deleting any of those names must fail here rather
than at a traced bench run, a star import or for a reader of the docs, and so must a root name no
caller uses.
"""

import argparse
import ast
import importlib
import importlib.util
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import threshcast
from threshcast.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent

# the package names the oracles in perfbench/workloads.py call
ORACLE_NAMES = ("tree_from_dict", "strategy_cost", "index_policy_cost", "annotate_reachable_states", "ProbabilityProfile")


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_perfbench("tracing")
    assert tracing.FUNCTIONS and tracing.METHODS
    for mod, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"threshcast.{mod}"), attr)), (mod, attr)
    for mod, cls, meth, _ in tracing.METHODS:
        assert callable(getattr(getattr(importlib.import_module(f"threshcast.{mod}"), cls), meth)), (mod, cls, meth)


def test_sibling_imports_are_used_or_traced():
    """A name a `src/` module imports from a sibling module is used there, or is a seam: tracing.py
    wraps it at that module's attribute.  A deletion cannot leave a dead import behind, nor a seam
    import outlive its tracer entry."""
    seams = {(mod, attr) for mod, attr, _ in load_perfbench("tracing").FUNCTIONS}
    unused = set()
    for path in sorted((ROOT / "src" / "threshcast").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            used |= set(threshcast.__all__)
        unused |= {(path.stem, name) for name in imported - used}
    assert unused - seams == set()


def test_public_names_resolve():
    """`from threshcast import *` fails on a name left in `__all__` after its deletion."""
    missing = [name for name in threshcast.__all__ if not hasattr(threshcast, name)]
    assert not missing
    assert len(set(threshcast.__all__)) == len(threshcast.__all__)


def test_public_imports_are_listed():
    """Every public name the package imports is in `__all__`, so the two lists cannot drift apart."""
    tree = ast.parse((ROOT / "src" / "threshcast" / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == set(threshcast.__all__)


def test_root_exports_what_its_callers_use():
    """The root exports the names README's quick start imports, the ones the oracles call, and the
    error and tree types those calls raise and return; a re-export with no caller fails here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    quick_start = {alias.name for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)
                   and node.module == "threshcast" for alias in node.names}
    errors = {"InputError", "CapacityError", "TreeInvalidError"}
    trees = {"Leaf", "Node", "DecisionTree"}
    assert set(threshcast.__all__) == quick_start | set(ORACLE_NAMES) | errors | trees


def test_root_loads_only_the_modules_it_exports_from():
    code = "import sys, threshcast; print(sorted(m for m in sys.modules if m.startswith('threshcast.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out == "['threshcast.core', 'threshcast.dp', 'threshcast.io', 'threshcast.policy']\n"


def test_oracle_names_resolve():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    for name in ORACLE_NAMES:
        assert f"tc.{name}(" in workloads, name
        assert name in threshcast.__all__ and callable(getattr(threshcast, name)), name


# every slot kind of perfbench/workloads.py at a small size: (kind, n, theta, N)
ORACLE_OPS = (
    ("solve", 6, 3, 0), ("check", 6, 2, 0), ("verify-probs", 5, 0, 0), ("verify-sweeps", 4, 0, 0),
    ("table", 6, 4, 0), ("annotate", 6, 3, 0), ("json", 6, 3, 0), ("dot", 5, 2, 0),
    ("simulate", 6, 3, 0), ("block", 5, 2, 32),
)


@pytest.mark.parametrize("kind,n,theta,N", ORACLE_OPS, ids=[op[0] for op in ORACLE_OPS])
def test_benchmark_oracles_accept_cli_output(capsys, kind, n, theta, N):
    """An output or package name the bench's oracles read breaks here, not as a failed bench op."""
    workloads = load_perfbench("workloads")
    op = workloads.make_op(workloads.Slot(kind, ((n, theta),), N=N), n, theta, random.Random(kind), k=0, reps=3)
    assert main(list(op.argv)) == 0
    outcome = op.check(capsys.readouterr().out, threshcast)
    assert outcome.ok, outcome.why


def test_readme_quick_start():
    """Run the quick start and compare each commented result with the value it shows."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        # "expr   # 1.4  (comment)": the value is the literal right after the '#'
        want = re.match(r"\s*#\s*(\([^)]*\)|[-\d.]+)", lines[stmt.end_lineno - 1][stmt.end_col_offset :])
        got = eval(source, namespace)
        shown.append(want.group(1))
        assert got == pytest.approx(ast.literal_eval(want.group(1)), abs=1e-12), source
    assert shown == ["1.4", "1.4", "(1, 1)"]


def test_readme_lists_every_cli_option():
    """README's options table names each option with the subcommands that take it, and in the row of an option
    that applies only under a condition, that condition as `cli.COMMANDS` words it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented, rows = {}, {}
    for row in re.findall(r"^\| `(--[\w-]+)` \| ([^|]*) \|(.*)$", section, re.M):
        documented[row[0]] = set(row[1].split(", "))
        rows[row[0]] = row[2].replace("`", "")
    for command, spec in COMMANDS.items():
        for option, (_, wording) in spec.conditions.items():
            assert f"only {wording}" in rows[f"--{option.replace('_', '-')}"], (command, option)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared: dict = {}
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if action.dest != "help":
                    declared.setdefault(option, set()).add(command)
    assert documented == declared


def test_source_parses_under_the_oldest_supported_python():
    """Every module of `src/` parses under the grammar of the oldest Python pyproject's requires-python admits,
    so a newer construct (`except*`, say) fails here rather than on that Python."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()))
    sources = sorted((ROOT / "src" / "threshcast").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)
