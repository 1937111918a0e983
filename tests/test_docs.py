"""The documented library API: the README quickstart runs and every export resolves."""

import re
import warnings
from pathlib import Path

import localexplain

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


def test_every_exported_name_resolves():
    missing = [name for name in localexplain.__all__ if not hasattr(localexplain, name)]
    assert missing == []
    assert len(set(localexplain.__all__)) == len(localexplain.__all__)
