"""The README's library example runs and gives the values its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_gives_the_values_its_comments_state():
    block = README.read_text().split("## Library\n\n```python\n")[1].split("```")[0]
    scope = {}
    exec(block, scope)
    # each commented line is an expression, and its comment starts with the value
    shown = [line.split("#") for line in block.splitlines() if "#" in line]
    values = [eval(code, scope) for code, _ in shown]
    assert len(values) == 5
    assert values[:4] == [ast.literal_eval(claim.split(":")[0].strip()) for _, claim in shown[:4]]
    assert len(values[4]) == 10  # the ten classes on two variables
