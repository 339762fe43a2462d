"""Whole-file writes that readers never see half done."""

from __future__ import annotations

import os


def write_atomic(path: str, data: bytes | str):
    """Write `data` to a temp file beside `path`, then rename it over `path`.

    Readers see the old file or the new one, never a part. When the write or
    the rename fails, the temp file is removed and the error is raised.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
