"""The README's library quick tour and CLI block run as their comments say."""

import ast
import pathlib
import re
import shlex

from gammapower.cli import main

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


def test_cli_block_exit_codes(tmp_path, monkeypatch, capsys):
    # each `gammapower ...` command of the CLI section's sh block runs through
    # cli.main in a scratch directory (sweep writes its --out there) and exits
    # 1 where its comment says "violated -> exit 1", 0 otherwise
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    monkeypatch.chdir(tmp_path)
    commands = block.replace("\\\n", " ").splitlines()
    for line in commands:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "gammapower", line
        code = main(argv[1:])
        capsys.readouterr()
        assert code == (1 if "violated -> exit 1" in comment else 0), line
    assert len(commands) == 9
