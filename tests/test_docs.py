"""The documented API: the README quickstart runs, its CLI examples parse, every export resolves."""

import re
import shlex
import warnings
from pathlib import Path

import localexplain
from localexplain.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_every_exported_name_resolves():
    missing = [name for name in localexplain.__all__ if not hasattr(localexplain, name)]
    assert missing == []
    assert len(set(localexplain.__all__)) == len(localexplain.__all__)
