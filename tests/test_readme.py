import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_values_match_their_comments():
    # The library example runs as written, and each expression line with a
    # trailing comment shows its value's repr there, alone or before a comma.
    (src,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(src).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(src).body:
        if isinstance(stmt, ast.Expr) and stmt.lineno in comments:
            value = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
            comment = comments[stmt.lineno]
            assert comment == value or comment.startswith(value + ","), (stmt.lineno, value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked
