"""The threshold table at the head of prior.py is the only place in the
package that spells a float in e-notation."""

import ast
import io
import tokenize
from pathlib import Path

import disclosure_lab

PACKAGE = Path(disclosure_lab.__file__).parent


def _table_lines() -> set[int]:
    """Lines of the module-level UPPER_CASE = number assignments in prior.py."""
    tree = ast.parse((PACKAGE / "prior.py").read_text(encoding="utf-8"))
    return {
        node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.isupper()
        and isinstance(node.value, ast.Constant)
    }


def _e_notation(path: Path) -> list[tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    return [
        (tok.start[0], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NUMBER
        and "e" in tok.string.lower()
        and not tok.string.lower().startswith("0x")
    ]


def test_table_is_the_only_place_for_thresholds():
    table = _table_lines()
    found = [
        (path.name, line, text)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, text in _e_notation(path)
    ]
    stray = [
        f"{name}:{line}: {text}"
        for name, line, text in found
        if not (name == "prior.py" and line in table)
    ]
    assert stray == []
    # the scan sees the table itself, so it cannot pass by seeing nothing
    assert len(found) > len(stray)
