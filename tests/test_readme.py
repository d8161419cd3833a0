import re
from pathlib import Path

import pytest

import apgf
import apgf.numcore

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the public API as the README shows it: a stale name or signature fails here
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, f"{README}#library", "exec"), {})
    ratio = float(capsys.readouterr().out)
    assert 0.0 < ratio <= 1.0


@pytest.mark.parametrize("module", [apgf, apgf.numcore], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is gone breaks `import *`
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
