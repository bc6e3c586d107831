"""The commit protocol for durable writes lives in ``repro.atomic`` only.

Any rename, symlink or temp-file call elsewhere in the package would be
a second, hand-written protocol that the fault-injection tests (which
patch ``repro.atomic``) cannot reach.
"""

import ast
from pathlib import Path

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
ATOMIC = SRC_REPRO / "atomic.py"

FORBIDDEN = {
    ("os", "replace"), ("os", "rename"), ("os", "symlink"),
    ("tempfile", "mkstemp"), ("tempfile", "NamedTemporaryFile"),
}
FORBIDDEN_NAMES = {name for _, name in FORBIDDEN}


def protocol_calls(source: str):
    """(line, name) of every forbidden reference in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in FORBIDDEN):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "os", "tempfile"):
            hits.extend((node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names
                        if alias.name in FORBIDDEN_NAMES)
    return hits


def test_detector_sees_every_spelling():
    source = ("import os, tempfile\n"
              "from os import rename\n"
              "from tempfile import NamedTemporaryFile as T\n"
              "os.replace(a, b)\n"
              "os.symlink(a, b)\n"
              "tempfile.mkstemp()\n")
    assert sorted(protocol_calls(source)) == [
        (2, "os.rename"), (3, "tempfile.NamedTemporaryFile"),
        (4, "os.replace"), (5, "os.symlink"), (6, "tempfile.mkstemp")]


def test_rename_and_temp_protocol_only_in_repro_atomic():
    offenders = [
        f"{path.relative_to(SRC_REPRO)}:{line}: {name}"
        for path in sorted(SRC_REPRO.rglob("*.py")) if path != ATOMIC
        for line, name in protocol_calls(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], (
        "durable writes must go through repro.atomic:\n"
        + "\n".join(offenders))

