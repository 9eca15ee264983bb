"""Output files that are either whole or absent."""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager

from .errors import DpTextError, RecordFileError


def read_text(path, error: type[DpTextError]) -> str:
    """The UTF-8 text of ``path``; a file that cannot be opened, read or
    decoded raises ``error``, naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


@contextmanager
def cannot_write(path):
    """An ``OSError`` in the block becomes a ``RecordFileError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise RecordFileError(f"cannot write {path}: {exc.strerror}") from None


@contextmanager
def atomic_write(path):
    """Open a text file that replaces ``path`` only once the block completes.

    The content goes to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` on success and which is removed on
    error, leaving any previous ``path`` untouched. There is no fsync: this
    guards against the writer failing, not against the machine crashing.
    Failing to create the temporary file or to replace ``path`` raises
    ``RecordFileError``; an error in the block propagates as it is.
    """
    # unique among concurrent writers in this process and across processes
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    with cannot_write(path):
        fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        with cannot_write(path):
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, data) -> None:
    """``data`` as indented JSON with sorted keys, through ``atomic_write``."""
    with atomic_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
