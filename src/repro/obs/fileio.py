"""The on-disk primitives the bench store and the run ledger share.

Both stores append records that other processes may be writing at the
same moment, and stamp each record with the git revision it was made
at.  This module holds those two helpers alone, so the run ledger, which
every ``repro-noc`` invocation opens, loads neither the bench store nor
``subprocess`` until it stamps its first record.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Union

#: how long :meth:`BenchStore.append` waits for a concurrent writer
#: before declaring its lock stale and breaking it.
LOCK_TIMEOUT_SECONDS = 10.0


@contextmanager
def exclusive_lock(path: Path, timeout: float = LOCK_TIMEOUT_SECONDS) -> Iterator[None]:
    """Hold ``path``'s sibling lockfile for the duration of the block.

    The cross-process mutual-exclusion primitive shared by the bench
    store and the run ledger: an ``O_CREAT | O_EXCL`` lockfile next to
    ``path``.  Waits up to ``timeout`` for a live writer; a lock older
    than ``2 * timeout`` is treated as leaked by a dead process and
    broken.
    """
    lock_path = path.with_suffix(path.suffix + ".lock")
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            try:
                if time.time() - lock_path.stat().st_mtime > 2 * timeout:
                    lock_path.unlink()  # stale lock from a dead writer
                    continue
            except OSError:
                continue  # holder released (or broke) it; retry at once
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"benchstore lock {lock_path} still held after {timeout:.0f}s"
                )
            time.sleep(0.002)
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        try:
            lock_path.unlink()
        except OSError:
            pass


_GIT_REV_CACHE: Dict[str, str] = {}


def current_git_rev(cwd: Union[str, Path, None] = None) -> str:
    """Short git revision of ``cwd``'s repository, or ``"unknown"``."""
    key = str(cwd or ".")
    cached = _GIT_REV_CACHE.get(key)
    if cached is not None:
        return cached
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    _GIT_REV_CACHE[key] = rev or "unknown"
    return _GIT_REV_CACHE[key]
