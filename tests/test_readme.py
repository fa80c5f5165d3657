"""README's python example runs and prints what its closing comment says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comment():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    code, comment = block.rstrip().rsplit("\n# ", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == comment + "\n"
    assert comment == "[(0, 1, 1), (1, 2, -2)]"
