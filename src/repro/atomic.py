"""Atomic writes: the one way a file, snapshot directory or symlink
becomes durable.  A reader sees the previous state or the new one, never
a half write.  Nothing is fsync'ed, so power loss is not covered.
Imports no ``repro`` package, so every layer may use it.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from typing import IO, Iterator

TMP_PREFIX = ".tmp-"


@contextmanager
def _publish(final: str) -> Iterator[str]:
    """The one commit step: yield a hidden temp path beside ``final`` for
    the caller to create, rename it onto ``final`` on a clean exit and
    remove it on any exception."""
    head, name = os.path.split(os.path.abspath(final))
    tmp = os.path.join(head, f"{TMP_PREFIX}{os.urandom(4).hex()}-{name}")
    try:
        yield tmp
        os.replace(tmp, final)
    finally:
        if os.path.isdir(tmp) and not os.path.islink(tmp):
            shutil.rmtree(tmp)
        elif os.path.lexists(tmp):
            os.remove(tmp)


@contextmanager
def atomic_file(path: str, mode: str = "w") -> Iterator[IO]:
    """Yield a temp file (mode ``"w"`` or ``"wb"``) renamed onto ``path``
    on a clean exit.  The parent directory must exist."""
    with _publish(path) as tmp, open(
            tmp, mode.replace("w", "x"),
            encoding=None if "b" in mode else "utf-8") as handle:
        yield handle


def write_json(path: str, payload) -> None:
    with atomic_file(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@contextmanager
def replace_dir(final: str) -> Iterator[str]:
    """Yield a temp directory to fill; on a clean exit remove any existing
    ``final`` and rename the temp onto it.  A crash between the two
    steps leaves no ``final`` at all, never a mix of old and new."""
    with _publish(final) as tmp:
        os.makedirs(tmp)
        yield tmp
        if os.path.isdir(final):
            shutil.rmtree(final)


def swap_symlink(link: str, target: str) -> None:
    with _publish(link) as tmp:
        os.symlink(target, tmp)
