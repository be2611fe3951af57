"""The README's library quick tour runs, and prints the values its comments give."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"
# a comment that starts with one of these is the repr of the value on its line
LITERAL = re.compile(r"-?\d+(\.\d+)?(e-?\d+)?|True|False")


def test_quick_tour_values():
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    env: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), env)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), env)
        comment = lines[node.end_lineno - 1].partition("#")[2].split()
        token = comment[0].rstrip(",") if comment else ""
        if LITERAL.fullmatch(token):
            assert repr(value) == token, lines[node.end_lineno - 1]
            checked += 1
    assert checked >= 6
