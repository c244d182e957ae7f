"""Every public name is used by the program, not only by tests."""

import ast
from pathlib import Path

import peadyn

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "peadyn" / "__init__.py"


def program_references():
    """Names the program reads in src/, scripts/ and perfbench/, outside __init__.py.

    A read is a name loaded or an attribute taken. A def or class line, an
    assignment target, an import and a docstring read nothing.
    """
    names = set()
    for part in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / part).rglob("*.py")):
            if path == INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_program():
    assert sorted(set(peadyn.__all__) - program_references()) == []
