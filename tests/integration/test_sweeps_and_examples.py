"""Integration tests: the battery-drain sweep and the example scripts."""

import pathlib
import subprocess
import sys

import pytest

from repro.eval import battery_drain_run

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestBatteryDrain:
    @pytest.fixture(scope="class")
    def run(self):
        return battery_drain_run("jspider", "A", iterations=40,
                                 battery_scale=0.0015, seed=2)

    def test_covers_all_modes(self, run):
        assert set(run.mode_trajectory) == {
            "full_throttle", "managed", "energy_saver"}

    def test_monotone_downward(self, run):
        assert run.monotone_downward()

    def test_transitions_at_thresholds(self, run):
        for index in run.transitions:
            step = run.steps[index]
            if step.boot_mode == "managed":
                assert 0.50 <= step.battery_before < 0.75
            elif step.boot_mode == "energy_saver":
                assert step.battery_before < 0.50

    def test_qos_follows_boot(self, run):
        for step in run.steps:
            assert step.qos_mode == step.boot_mode

    def test_stops_when_empty(self):
        run = battery_drain_run("crypto", "A", iterations=500,
                                battery_scale=0.0002, seed=1)
        assert len(run.steps) < 500

    def test_energy_recorded(self, run):
        assert run.total_energy_j > 0
        assert all(step.energy_j > 0 for step in run.steps)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_non_positive_battery_scale_is_rejected(self, scale):
        # The scaled capacity goes through Battery's own check: no
        # ZeroDivisionError at 0, no silent empty run below it.
        with pytest.raises(ValueError,
                           match="battery capacity must be positive"):
            battery_drain_run("crypto", "A", iterations=5,
                              battery_scale=scale)


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "crawler.py",
    "temperature_aware_renderer.py",
    "android_battery_app.py",
    "battery_drain.py",
    "energy_debugging.py",
])
def test_example_runs(script):
    """Every example script runs to completion."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("program", sorted(
    (EXAMPLES / "ent").glob("*.ent")), ids=lambda p: p.name)
def test_ent_program_runs_via_cli(program):
    """Every .ent sample typechecks and runs through the CLI."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(program),
         "--system", "A", "--battery", "0.6", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
