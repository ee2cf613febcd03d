"""The README's library tour runs as written, and its commented results hold."""
import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"
# a comment that opens with a number or a list of numbers states a result
RESULT = re.compile(r"#\s*(\[[-+0-9., ]*\]|[-+]?[0-9.]+)")


def _tour() -> str:
    """The ``python`` block under the README's "Library quick tour"."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_results():
    source = _tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        # a result is stated after its expression, or on the next line
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not tail and stmt.end_lineno < len(lines):
            tail = lines[stmt.end_lineno].strip()
        stated = RESULT.match(tail)
        if stated:
            want = ast.literal_eval(stated.group(1))
            np.testing.assert_allclose(value, want, rtol=0, atol=1e-9)
            checked.append(want)
    # nu = 3.0, 3 Majorana pairs and the three flags of the hopping slice
    assert checked == [3.0, 3, [-1.495, -0.975, -0.405]]
