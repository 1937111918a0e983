"""The documented API: the README quickstart runs, its CLI examples and flags parse, every export resolves, no private helper is orphaned."""

import argparse
import ast
import json
import re
import shlex
import sys
import warnings
from pathlib import Path

import pytest

import localexplain
from localexplain import explain
from localexplain.cli import EXIT_OK, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(localexplain.__file__).resolve().parent


def quickstart_source() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs():
    namespace: dict = {}
    with warnings.catch_warnings():
        # the quickstart's m=66 < q=104 fit is underdetermined on purpose
        warnings.simplefilter("ignore", RuntimeWarning)
        exec(compile(quickstart_source(), str(README), "exec"), namespace)
    names = [s.feature for s in namespace["scores"]]
    assert names == ["x1", "x2", "a", "b"]
    assert [iv.feature for iv in namespace["intervals"]] == names
    assert namespace["fit"].effective_rank >= 2
    naive = namespace["naive"]
    assert naive.feature == "x1" and naive.lower <= naive.upper


def readme_cli_commands() -> list[list[str]]:
    """Every ``localexplain`` invocation in README's bash blocks, as an argv."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["localexplain"]:
                commands.append(words[1:])
    return commands


def test_readme_cli_examples_use_only_their_subcommands_flags():
    commands = readme_cli_commands()
    assert sorted(argv[0] for argv in commands) == ["explain", "simulate", "summarize", "sweep"]
    parser = build_parser()
    for argv in commands:
        _, unknown = parser.parse_known_args(argv)  # a missing required flag exits
        assert unknown == [], f"README's `localexplain {argv[0]}` passes {unknown}"


def test_readme_prose_names_only_flags_a_subcommand_accepts():
    """Every backticked ``--flag`` outside README's code blocks is an option of the parser or of a subcommand."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    flags = set(re.findall(r"`(--[\w-]+)", prose))
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    accepted = set(parser._option_string_actions).union(*(p._option_string_actions for p in subcommands.values()))
    assert "--output-column" in flags
    assert sorted(flags - accepted) == []


def test_every_exported_name_resolves():
    missing = [name for name in localexplain.__all__ if not hasattr(localexplain, name)]
    assert missing == []
    assert len(set(localexplain.__all__)) == len(localexplain.__all__)


def test_every_diagnostics_key_is_documented(tmp_path):
    """README's report paragraph names exactly the keys an explain report writes under ``metadata.diagnostics``."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("**Explanation report (JSON)**", 1)[1].split("\n\n", 1)[0]
    # the sentence that lists the keys, from "`diagnostics` holds" to its full stop
    documented = set(re.findall(r"`(\w+)`", re.search(r"`diagnostics` holds (.*?)\.\s", paragraph, re.S).group(1)))
    data, schema, out = tmp_path / "sim.csv", tmp_path / "schema.json", tmp_path / "report.json"
    argv = ["simulate", "--n", "200", "--seed", "1", "--data-out", str(data), "--schema-out", str(schema)]
    assert main(argv) == EXIT_OK
    keys = set()
    # a gradient fit with fewer rows than terms still gets naive intervals;
    # function differences skip them and add naive_ci_skipped
    for k, m, kind in (("2", "12", "gradient"), ("1", "30", "function_difference")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # m < q
            assert main([
                "explain", "--data", str(data), "--schema", str(schema), "--query", "0",
                "--k", k, "--m", m, "--B", "20", "--kind", kind, "--naive-ci", "--out", str(out),
            ]) == EXIT_OK
        keys |= set(json.loads(out.read_text())["metadata"]["diagnostics"])
    assert {"naive_ci_skipped", "row_rank", "replicate_rank"} <= keys
    assert sorted(keys - documented) == []
    assert sorted(documented - keys) == []


#: README's statements of the solver thresholds, each value a capture group,
#: with the ``explain`` constant each group must equal (sizes given in KiB,
#: and ``eps·`` standing for float64 eps times what follows it).
SOLVER_THRESHOLDS = [
    (r"`downdate` \(N ≤ p, and s₁/s_r at most (\S+)\).*? `W` is accurate to about eps·(\S+) ≈",
     ["ROW_CONDITION_MAX", "ROW_CONDITION_MAX"]),
    (r"with σ² ≥ (\S+) the dropped rows touch it", ["DELETION_GATE"]),
    (r"with σ ≤ (eps·\S+) it lies among the kept rows alone", ["KEPT_RELATION_MAX"]),
    (r"stacked in chunks of at most (\d+) KiB, split by k′", ["_CHUNK_BYTES"]),
    (r"`deletion` \(N > p and row condition at most (\S+)\)", ["ROW_CONDITION_MAX"]),
    (r"chunks of at most (\d+) KiB, or (\d+) KiB for the Gram form", ["_CHUNK_BYTES", "_GRAM_CHUNK_BYTES"]),
    (r"kept rows of `U` is at least (\S+), which", ["DELETION_GATE"]),
]


def test_every_solver_threshold_is_checked_against_readme():
    thresholds = {name for name in vars(explain) if re.fullmatch(r"\w+_(MAX|GATE|BYTES)", name)}
    assert thresholds == {name for _, names in SOLVER_THRESHOLDS for name in names}


@pytest.mark.parametrize("pattern, constants", SOLVER_THRESHOLDS, ids=[" ".join(c) for _, c in SOLVER_THRESHOLDS])
def test_readme_solver_thresholds_match_the_code(pattern, constants):
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.search(pattern, text)
    assert found, f"README no longer says {pattern!r}"
    for value, name in zip(found.groups(), constants):
        scale = sys.float_info.epsilon if value.startswith("eps·") else 1.0
        documented = 1024 * int(value) if name.endswith("_BYTES") else scale * float(value.removeprefix("eps·"))
        assert documented == getattr(explain, name), f"README gives {name} as {value}"


def private_definitions(tree: ast.Module):
    """The module-level ``_name`` definitions of a module, as (name, defining node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def loads(node: ast.AST, name: str) -> int:
    """How often ``node`` reads ``name``, as a bare name or as an attribute."""
    return sum(
        isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute) and n.attr == name
        for n in ast.walk(node)
    )


def test_every_private_module_name_is_used():
    """A module-level private name of the package that no code outside its own definition reads is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = [(module, name, node) for module, tree in trees.items() for name, node in private_definitions(tree)]
    assert len(defined) > 20
    unused = [
        f"{module}: {name}" for module, name, node in defined
        if sum(loads(tree, name) for tree in trees.values()) == loads(node, name)
    ]
    assert unused == []
