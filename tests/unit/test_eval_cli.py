"""Unit tests for the ``python -m repro.eval`` command line."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.eval.__main__ import main


class TestFigureCommands:
    def test_figure7(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "jspider" in out

    def test_figure10(self, capsys):
        assert main(["figure10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "es % saved" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--dir", str(tmp_path),
                     "--figures", "figure7"]) == 0
        data = json.loads((tmp_path / "figure7.json").read_text())
        assert len(data) == 15

    @pytest.mark.parametrize("name", ["figure7", "figure10"])
    def test_prints_what_export_writes(self, tmp_path, capsys, name):
        assert main(["export", "--dir", str(tmp_path),
                     "--figures", name]) == 0
        assert capsys.readouterr().out == \
            f"{name}: {tmp_path / name}.json {tmp_path / name}.txt\n"
        assert main([name]) == 0
        assert capsys.readouterr().out == \
            (tmp_path / f"{name}.txt").read_text()

    def test_drain(self, capsys):
        assert main(["drain", "--benchmark", "crypto",
                     "--iterations", "5",
                     "--battery-scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "crypto on System A" in out
        assert "monotone downward: True" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


@pytest.mark.parametrize("argv, flag", [
    (["figure10", "--trace", "{trace}", "--trace-capacity", "-4"],
     "--trace-capacity"),
    (["episode", "--experiment", "e1", "--trace", "{trace}",
      "--trace-capacity", "0"], "--trace-capacity"),
    (["figure8", "--jobs", "-1"], "--jobs"),
    (["drain", "--battery-scale", "0"], "--battery-scale"),
    (["figure8", "--benchmarks", "nosuch"], "--benchmarks"),
    (["figure11", "--benchmarks", "nosuch"], "--benchmarks"),
    (["drain", "--benchmark", "nosuch"], "--benchmark"),
    (["drain", "--system", "Z"], "--system"),
    (["episode", "--experiment", "e1", "--benchmark", "nosuch",
      "--trace", "{trace}"], "--benchmark"),
    (["episode", "--experiment", "e1", "--boot", "bogus",
      "--trace", "{trace}"], "--boot"),
    (["episode", "--experiment", "e1", "--workload-mode", "bogus",
      "--trace", "{trace}"], "--workload-mode"),
    (["export", "--dir", "{dir}", "--figures", "figure99"], "--figures"),
    (["figure11", "--benchmarks", "jspider"], "--benchmarks"),
    (["episode", "--experiment", "e3", "--benchmark", "jspider",
      "--trace", "{trace}"], "--benchmark"),
    (["drain", "--iterations", "-3"], "--iterations"),
    (["drain", "--iterations", "0"], "--iterations"),
    (["episode", "--experiment", "e3", "--units", "-5",
      "--trace", "{trace}"], "--units"),
    (["episode", "--experiment", "e3", "--units", "0",
      "--trace", "{trace}"], "--units"),
])
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, argv,
                                                flag):
    fill = {"trace": str(tmp_path / "t.jsonl"), "dir": str(tmp_path)}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**fill) for arg in argv])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["export", "--dir", "/no/such/parent/x"],
    ["figure7", "--trace", "/no/such/dir/t.jsonl"],
    ["episode", "--experiment", "e1", "--trace", "/no/such/dir/t.jsonl"],
], ids=["export", "figure7", "episode"])
def test_missing_path_is_an_error_not_a_traceback(argv):
    """``python -m repro.eval`` reports errors as ``repro eval`` does."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "repro.eval", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "No such file or directory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["figure10", "--trace", "{dir}"],
    ["all", "--trace", "{dir}"],
    ["episode", "--experiment", "e1", "--trace", "{dir}"],
], ids=["figure10", "all", "episode"])
def test_trace_directory_fails_before_the_work(tmp_path, monkeypatch,
                                               capsys, argv):
    """``--trace`` opens its path before any episode runs, as ``repro
    run --trace`` does, so a directory fails at once."""
    import dataclasses

    import repro.eval.runner as runner
    from repro.cli import guarded
    from repro.eval.export import ARTIFACTS

    def not_called(*args, **kwargs):
        raise AssertionError("the work ran before --trace was opened")

    for name, artifact in ARTIFACTS.items():
        monkeypatch.setitem(ARTIFACTS, name, dataclasses.replace(
            artifact, compute=not_called))
    for name in ("run_e1_episode", "run_e2_episode", "run_e3_episode"):
        monkeypatch.setattr(runner, name, not_called)
    assert guarded(main, [arg.format(dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
