"""The process's one worker thread.

Two callers share it: the network's branch split (`network._both`) and the
PCA blocks of `features.compute_normals_curvature`. Work run on the thread
calls no public function of regrow, whose tracing wrappers (perfbench) keep
one span stack for all threads, and submits nothing to the thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_thread: tuple[int, ThreadPoolExecutor] | None = None


def worker() -> ThreadPoolExecutor:
    """The executor of this process's worker thread. It is made per process:
    a forked child inherits the executor but not its thread."""
    global _thread
    if _thread is None or _thread[0] != os.getpid():
        _thread = (os.getpid(), ThreadPoolExecutor(1, "regrow-worker"))
    return _thread[1]
