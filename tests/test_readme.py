import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the public API as the README shows it: a stale name or signature fails here
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, f"{README}#library", "exec"), {})
    ratio = float(capsys.readouterr().out)
    assert 0.0 < ratio <= 1.0
