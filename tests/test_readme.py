import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_block_runs(capsys):
    # the README's one python block, run as written, so an API change cannot leave it stale
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2.0" and out[3] == "(13, 3)"
    assert abs(float(out[1]) - math.sin(0.5) / 2) <= 1e-12
