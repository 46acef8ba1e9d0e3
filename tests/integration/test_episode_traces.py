"""The E1–E3 episode traces are pinned byte for byte.

Each case runs one ``python -m repro.eval episode`` in-process and
compares its JSONL trace and its stdout with the golden files under
``tests/golden/episodes``.  Together the traces cover the embedded
runtime's attributor, snapshot, mode-transition, mode-case, dfall and
EnergyException events, so a change to how the runtime checks, tags or
eliminates shows here as a diff.  Re-pin a golden file only on purpose:
run the same ``episode`` command with ``--trace`` and replace the
trace path in its stdout with ``<trace>``.
"""

import json
from pathlib import Path

import pytest

from repro.eval.__main__ import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "episodes"

EPISODES = {
    "e1_violating": ["--experiment", "e1", "--boot", "energy_saver",
                     "--workload-mode", "full_throttle"],
    "e1_violating_silent": ["--experiment", "e1", "--boot",
                            "energy_saver", "--workload-mode",
                            "full_throttle", "--silent"],
    "e2": ["--experiment", "e2"],
    "e3": ["--experiment", "e3"],
}


@pytest.mark.parametrize("name", sorted(EPISODES))
def test_episode_trace_matches_golden(name, tmp_path, capsys):
    trace = tmp_path / f"{name}.jsonl"
    assert main(["episode", *EPISODES[name], "--trace", str(trace)]) == 0
    stdout = capsys.readouterr().out.replace(str(trace), "<trace>")
    assert stdout == (GOLDEN / f"{name}.out").read_text()
    assert trace.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()


def test_golden_traces_cover_the_runtime_events():
    kinds = set()
    for name in EPISODES:
        text = (GOLDEN / f"{name}.jsonl").read_text()
        kinds.update(json.loads(line)["kind"]
                     for line in text.splitlines())
    assert {"attributor", "snapshot", "mode_transition", "mcase_elim",
            "dfall_check", "energy_exception"} <= kinds
