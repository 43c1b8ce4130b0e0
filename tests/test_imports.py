"""Every name a module of `fvq` imports is used in that module, unless the
benchmark patches it there (`bench.tracing.SITES`): such an import exists
only so the benchmark can time the calls made through it."""

import ast
from pathlib import Path

import pytest

from bench.tracing import SITES

SRC = Path(__file__).resolve().parent.parent / "src" / "fvq"
PATCH_SITES = {(owner.__name__, attr) for owner, attr, _, _ in SITES}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        name for name in _imported(tree)
        if name not in used and (f"fvq.{path.stem}", name) not in PATCH_SITES
    ]
    assert unused == []
