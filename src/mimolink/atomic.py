"""Whole-file text writes that a crash cannot leave half done."""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line endings.

    The text goes to a temporary name next to ``path``, which is then
    renamed over it, so ``path`` holds either its old bytes or the whole
    new file. An OSError names ``path``, not the temporary name.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        temporary.unlink(missing_ok=True)
