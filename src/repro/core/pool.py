"""The one process pool: eval grids, fleet shards and advise cells.

Each fan-out is a list of independent tasks whose results the caller
folds by position, so :func:`run_keyed` yields each result with its
task's index as it completes: the fleet folds on arrival, the eval
grids and the advisor reassemble in task order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

__all__ = ["resolve_jobs", "run_keyed"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for every ``--jobs`` flag and ``jobs=`` keyword:
    ``None`` or ``1`` serial in-process, ``0`` one per core, ``N``."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def run_keyed(worker: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: Optional[int]) -> Iterator[Tuple[int, Any]]:
    """Yield ``(index, worker(tasks[index]))`` once per task, in
    completion order: in-process and in order when
    ``min(resolve_jobs(jobs), len(tasks)) <= 1`` (``worker`` need not
    pickle), else from a pool of that many processes, which pickles
    ``worker`` (module-level, or a ``functools.partial`` of one) and
    every task.  A task's exception is raised when its result arrives.
    """
    workers = min(resolve_jobs(jobs), len(tasks))
    if workers <= 1:
        for index, task in enumerate(tasks):
            yield index, worker(task)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(worker, task): index
                   for index, task in enumerate(tasks)}
        for future in as_completed(futures):
            yield futures[future], future.result()
