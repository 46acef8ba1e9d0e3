"""Unit tests for the one process pool, ``repro.core.pool``."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.pool import run_keyed

TASKS = [5, 0, 12, 3, 7, 1]


def _no_pool(*args, **kwargs):
    raise AssertionError("started a process pool")


class TestRunKeyed:
    @pytest.mark.parametrize("jobs", [2, 0])
    def test_every_index_once_with_serial_results(self, jobs):
        pooled = list(run_keyed(math.factorial, TASKS, jobs))
        assert sorted(index for index, _ in pooled) == \
            list(range(len(TASKS)))
        serial = list(run_keyed(math.factorial, TASKS, None))
        assert serial == [(index, math.factorial(task))
                          for index, task in enumerate(TASKS)]
        assert dict(pooled) == dict(serial)

    @pytest.mark.parametrize("tasks, jobs", [(TASKS, 1), (TASKS[:1], 4)],
                             ids=["jobs=1", "one task"])
    def test_in_process_path_takes_an_unpicklable_worker(
            self, monkeypatch, tasks, jobs):
        monkeypatch.setattr("repro.core.pool.ProcessPoolExecutor",
                            _no_pool)
        out = list(run_keyed(lambda n: n * n, tasks, jobs))
        assert out == [(index, n * n) for index, n in enumerate(tasks)]

    @pytest.mark.parametrize("jobs", [None, 0, 8])
    def test_empty_task_list_starts_no_pool(self, monkeypatch, jobs):
        monkeypatch.setattr("repro.core.pool.ProcessPoolExecutor",
                            _no_pool)
        assert list(run_keyed(math.factorial, [], jobs)) == []

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            list(run_keyed(math.factorial, TASKS, -1))


def test_no_asyncio_on_import():
    """Importing every fan-out user leaves ``asyncio`` (and the ``ssl``
    it pulls in) unloaded: the pool needs neither."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, repro.cli, repro.fleet, repro.eval, "
            "repro.advise; "
            "print(sorted({'asyncio', 'ssl'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
