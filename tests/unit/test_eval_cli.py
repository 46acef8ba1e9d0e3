"""Unit tests for the ``python -m repro.eval`` command line."""

import json

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
])
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, argv,
                                                flag):
    fill = {"trace": str(tmp_path / "t.jsonl"), "dir": str(tmp_path)}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**fill) for arg in argv])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
