"""Unit tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = sorted(str(path) for path in (
    Path(__file__).resolve().parents[2] / "examples" / "ent").glob("*.ent"))

GOOD = """
modes { energy_saver <= managed; managed <= full_throttle; }
class Probe@mode<?X> {
    int n;
    attributor {
        if (n > 10) { return full_throttle; }
        return energy_saver;
    }
    Probe(int n) { this.n = n; }
    int get() { return n; }
}
class Main {
    void main() {
        Probe p = snapshot (new Probe@mode<?>(5));
        Sys.print("n=" + p.get());
    }
}
"""

BAD_TYPES = """
modes { lo <= hi; }
class Heavy@mode<hi> { int f() { return 1; } }
class Low@mode<lo> { int go(Heavy h) { return h.f(); } }
class Main { void main() { } }
"""

BAD_SYNTAX = "class { oops"

#: One method whose loop crosses the OSR threshold in a single call.
HOT_LOOP = """
modes { lo <= hi; }
class Counter {
    int count(int n) {
        int acc = 0;
        int i = 0;
        while (i < n) { acc = acc + i; i = i + 1; }
        return acc;
    }
}
class Main {
    void main() { Sys.print(new Counter().count(100)); }
}
"""

THROWING = """
modes { lo <= hi; }
class D@mode<?X> {
    attributor { return hi; }
    D() { }
}
class Main {
    void main() { D d = snapshot (new D@mode<?>()) [_, lo]; }
}
"""


@pytest.fixture
def program(tmp_path):
    def write(source, name="prog.ent"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


class TestCheck:
    def test_ok(self, program, capsys):
        assert main(["check", program(GOOD)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_type_error(self, program, capsys):
        assert main(["check", program(BAD_TYPES)]) == 1
        assert "waterfall" in capsys.readouterr().err

    def test_syntax_error(self, program, capsys):
        assert main(["check", program(BAD_SYNTAX)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.ent"]) == 2


class TestRun:
    def test_runs_and_prints(self, program, capsys):
        assert main(["run", program(GOOD)]) == 0
        assert "n=5" in capsys.readouterr().out

    def test_stats_flag(self, program, capsys):
        assert main(["run", program(GOOD), "--stats"]) == 0
        err = capsys.readouterr().err
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["snapshots"] == 1
        assert "battery" not in stats

    def test_platform_flag(self, program, capsys):
        assert main(["run", program(GOOD), "--system", "A",
                     "--battery", "0.5", "--stats"]) == 0
        err = capsys.readouterr().err
        stats = json.loads(err.strip().splitlines()[-1])
        assert 0.0 < stats["battery"] <= 0.5
        assert stats["energy_j"] >= 0.0

    def test_energy_exception_exit_code(self, program, capsys):
        assert main(["run", program(THROWING)]) == 3
        assert "EnergyException" in capsys.readouterr().err

    def test_silent_flag_suppresses(self, program):
        assert main(["run", program(THROWING), "--silent"]) == 0

    def test_deep_nesting_is_an_error_not_a_traceback(self, program,
                                                      capsys):
        source = ("class Main { void main() { Sys.print("
                  + "(" * 2000 + "1" + ")" * 2000 + "); } }")
        assert main(["run", program(source)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "nesting deeper than" in err
        assert "Traceback" not in err

    def test_long_operator_chain_is_an_error_not_a_traceback(
            self, program, capsys):
        source = ("class Main { void main() { Sys.print("
                  + " + ".join(["1"] * 2000) + "); } }")
        assert main(["run", program(source)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "nesting deeper than 120 levels at '+'" in err
        assert "Traceback" not in err

    def test_fuel_flag(self, program, capsys):
        looping = GOOD.replace('Sys.print("n=" + p.get());',
                               "while (true) { }")
        path = program(looping, "loop.ent")
        assert main(["run", path, "--fuel", "5000"]) == 1
        assert "exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
    def test_engine_flag(self, program, capsys, engine):
        assert main(["run", program(GOOD), "--engine", engine]) == 0
        assert "n=5" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--compile"],
                                      ["--engine", "compiled"]],
                             ids=["compile-flag", "compiled-engine"])
    def test_retired_compiled_engine_is_a_usage_error(self, program,
                                                      argv):
        with pytest.raises(SystemExit) as info:
            main(["run", program(GOOD)] + argv)
        assert info.value.code == 2

    def test_jit_stats_report_the_tier_counters(self, program, capsys):
        assert main(["run", program(HOT_LOOP), "--engine", "jit",
                     "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        jit = stats["jit"]
        assert sorted(jit) == ["bailouts", "compiles", "deopts",
                               "invalidations", "loop_compiles"]
        assert jit["loop_compiles"] >= 1
        assert jit["compiles"] >= jit["loop_compiles"]

    @pytest.mark.parametrize("engine", ["walk", "vm"])
    def test_other_engines_report_no_tier_counters(self, program, capsys,
                                                   engine):
        assert main(["run", program(HOT_LOOP), "--engine", engine,
                     "--stats"]) == 0
        stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "jit" not in stats

    def test_engine_vm_with_toggles(self, program, capsys):
        assert main(["run", program(GOOD), "--engine", "vm",
                     "--no-elide", "--no-inline-caches",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "n=5" in captured.out
        stats = json.loads(captured.err.strip().splitlines()[-1])
        assert stats["snapshots"] == 1


class TestDisasm:
    def test_disasm_annotates_checks(self, program, capsys):
        assert main(["disasm", program(GOOD), "--no-elide"]) == 0
        out = capsys.readouterr().out
        assert "Probe.<attributor>" in out
        assert "Main.main" in out
        assert ";; DFALL_CHECK" in out

    def test_disasm_shows_elision_handoff(self, program, capsys):
        assert main(["disasm", program(GOOD)]) == 0
        out = capsys.readouterr().out
        assert ("elided by repro.analysis" in out
                or ";; DFALL_CHECK" in out)

    def test_disasm_jit_shows_compiled_loop_regions(self, program,
                                                    capsys):
        assert main(["disasm", program(HOT_LOOP), "--jit"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith(";; ")]
        body = headers.index(";; Counter.count — cold at runtime; "
                             "speculative emission from the current "
                             "inline caches")
        assert headers[body + 1].startswith(";; Counter.count loop@")
        assert headers[body + 1].endswith(
            " — compiled at runtime (version 1)")

    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[Path(p).stem for p in EXAMPLES])
    def test_disasm_jit_names_every_body(self, path, capsys):
        assert main(["disasm", path, "--jit"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith(";; ")]
        assert headers
        assert not [h for h in headers if h.startswith(";; <body>")]

    @pytest.mark.parametrize("checks", ["full", "transient"])
    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[Path(p).stem for p in EXAMPLES])
    def test_disasm_operands_are_readable(self, path, checks, capsys):
        assert main(["disasm", path, "--checks", checks]) == 0
        out = capsys.readouterr().out
        assert " NEW " in out and "SNAPSHOT" in out
        for line in out.splitlines():
            assert "ClassInfo(" not in line and "SourceSpan(" not in line
            assert len(line) <= 200, line

    def test_disasm_bad_program(self, program, capsys):
        assert main(["disasm", program("class { oops",
                                       "bad.ent")]) == 1


class TestObs:
    def test_trace_jsonl(self, program, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "snapshot" in kinds
        assert "attributor" in kinds

    def test_trace_chrome_is_valid_json(self, program, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace),
                     "--trace-format", "chrome"]) == 0
        data = json.loads(trace.read_text())
        events = data["traceEvents"]
        assert events
        assert all("ph" in e and "pid" in e for e in events)

    def test_obs_report(self, program, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "Counters:" in out

    def test_obs_convert(self, program, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        out_path = tmp_path / "t.json"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace)]) == 0
        assert main(["obs", "convert", str(trace), str(out_path)]) == 0
        assert json.loads(out_path.read_text())["traceEvents"]


class TestProfile:
    @pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
    def test_profile_reports_hot_labels(self, program, capsys, engine):
        assert main(["profile", program(GOOD), "--engine", engine,
                     "--checks"]) == 0
        out = capsys.readouterr().out
        assert f"Profile (engine={engine})" in out
        assert "Hot labels:" in out
        assert "Check sites:" in out
        assert "Check totals:" in out
        assert "static-vs-observed clean" in out
        if engine == "walk":
            assert "node." in out
        else:  # the jit profiles as the vm
            assert "op." in out

    def test_profile_vm_reports_ic_and_check_sites(self, program, capsys):
        assert main(["profile", program(GOOD), "--engine", "vm",
                     "--checks"]) == 0
        out = capsys.readouterr().out
        assert "Call sites:" in out
        assert "ic hit rate" in out
        assert "snapshot_bound@" in out

    def test_profile_json_payload(self, program, capsys):
        assert main(["profile", program(GOOD), "--engine", "vm",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["engine"] == "vm"
        assert payload["profile"]["labels"]
        assert payload["static_vs_observed"]["clean"] is True

    def test_profile_no_elide_skips_diff(self, program, capsys):
        assert main(["profile", program(GOOD), "--no-elide",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "static_vs_observed" not in payload

    def test_profile_energy_column(self, program, capsys):
        assert main(["profile", program(GOOD), "--engine", "vm",
                     "--energy", "--system", "A"]) == 0
        assert "joules" in capsys.readouterr().out

    def test_profile_out_formats(self, program, capsys, tmp_path):
        path = program(GOOD)
        out = tmp_path / "p.json"
        assert main(["profile", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["labels"]
        collapsed = tmp_path / "p.collapsed"
        assert main(["profile", path, "--out", str(collapsed),
                     "--format", "collapsed"]) == 0
        assert collapsed.read_text().strip()
        chrome = tmp_path / "p.chrome.json"
        assert main(["profile", path, "--out", str(chrome),
                     "--format", "chrome"]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]
        capsys.readouterr()

    def test_profile_energy_exception_exit_code(self, program, capsys):
        assert main(["profile", program(THROWING)]) == 3
        captured = capsys.readouterr()
        assert "EnergyException" in captured.err
        assert "Profile" in captured.out


class TestPrettyAndTokens:
    def test_pretty_reparses(self, program, capsys, tmp_path):
        assert main(["pretty", program(GOOD)]) == 0
        printed = capsys.readouterr().out
        again = tmp_path / "again.ent"
        again.write_text(printed)
        assert main(["check", str(again)]) == 0

    def test_tokens(self, program, capsys):
        assert main(["tokens", program(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "KW_SNAPSHOT" in out
        assert "EOF" in out


class TestAdvise:
    def test_repeated_battery_matches_the_library(self, program, capsys):
        from repro.advise import AdviseConfig, advise_file, builtin_model
        from repro.lang.engines import resolve_engine

        path = program(GOOD)
        assert main(["advise", path, "--battery", "1.0", "--battery", "0.3",
                     "--runs", "1", "--samples", "16", "--json"]) == 0
        config = AdviseConfig(arch="sim45nm", engine=resolve_engine(None),
                              system="A", seed=0, runs=1, samples=16,
                              batteries=(1.0, 0.3), jobs=1)
        expected = advise_file(path, config=config,
                               model=builtin_model("sim45nm"))
        assert capsys.readouterr().out == expected.to_json() + "\n"


class TestHostileInput:
    """Malformed input ends in ``error: …`` and exit 1 (2 for a path the
    operating system refuses), never a Python traceback."""

    @pytest.mark.parametrize("argv", [
        ["run"], ["check"], ["analyze"], ["disasm"], ["pretty"],
        ["tokens"], ["profile"], ["advise"], ["analyze", "--embedded"],
    ], ids=" ".join)
    def test_source_that_is_not_utf8(self, tmp_path, capsys, argv):
        path = tmp_path / "h.ent"
        path.write_bytes(b"\x00\xff\xfe")
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("argv", [
        ["run", "{dir}"],
        ["obs", "report", "{dir}"],
        ["analyze", "--embedded", "{dir}"],
        ["advise", "{prog}", "--cost-model", "{dir}"],
        ["run", "{prog}", "--trace", "{dir}"],
        ["fleet", "run", "--devices", "2", "--metrics-out", "{dir}"],
        ["eval", "export", "--dir", "{prog}"],
    ], ids=" ".join)
    def test_directory_or_existing_file_as_path(self, program, tmp_path,
                                                capsys, argv):
        fill = {"prog": program(GOOD), "dir": str(tmp_path)}
        assert main([arg.format(**fill) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        b"not json", b"\xff\xfe", b"[1, 2]",
    ], ids=["not JSON", "not UTF-8", "JSON array"])
    @pytest.mark.parametrize("flag, what", [
        ("--cost-model", "a cost model"),
        ("--calibrate-from", "a profile payload"),
    ], ids=["cost-model", "calibrate-from"])
    def test_malformed_cost_model_file(self, program, tmp_path, capsys,
                                       flag, what, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        assert main(["advise", program(GOOD), flag, str(path),
                     "--runs", "1", "--samples", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not {what} (")

    RECURSIVE = {
        "method": "class Main { void main() { main(); } }",
        "constructor": ("class Main { Main() { Main m = new Main(); } "
                        "void main() { } }"),
        "attributor": """
modes { lo <= hi; }
class D@mode<?X> {
    attributor { D d = snapshot (new D@mode<?>()); return hi; }
    D() { }
}
class Main { void main() { D d = snapshot (new D@mode<?>()); } }
""",
    }

    @pytest.mark.parametrize("shape", RECURSIVE)
    @pytest.mark.parametrize("argv", [
        ["run", "--engine", "walk"], ["run", "--engine", "vm"],
        ["run", "--engine", "jit"], ["profile"],
    ], ids=" ".join)
    def test_unbounded_recursion(self, program, capsys, argv, shape):
        assert main([*argv, program(self.RECURSIVE[shape])]) == 1
        assert capsys.readouterr().err == "error: call depth exceeded\n"

    def test_recursion_is_not_a_catchable_energy_exception(self, program,
                                                            capsys):
        source = """
modes { lo <= hi; }
class Main {
    void main() {
        try { main(); } catch (EnergyException e) { Sys.print("caught"); }
    }
}
"""
        assert main(["run", program(source)]) == 1
        captured = capsys.readouterr()
        assert "caught" not in captured.out
        assert captured.err == "error: call depth exceeded\n"


class TestBadFlagValues:
    """A bad flag value is a usage error (exit 2) naming the flag, not
    a traceback from deep inside the run."""

    @pytest.mark.parametrize("argv, flag", [
        (["run", "{prog}", "--system", "A", "--battery", "1.5"],
         "--battery"),
        (["run", "{prog}", "--system", "A", "--battery", "nan"],
         "--battery"),
        (["profile", "{prog}", "--system", "B", "--battery", "-0.1"],
         "--battery"),
        (["advise", "{prog}", "--battery", "2"], "--battery"),
        (["run", "{prog}", "--trace", "{trace}", "--trace-capacity", "0"],
         "--trace-capacity"),
        (["fleet", "run", "--devices", "-5"], "--devices"),
        (["fleet", "run", "--steps", "0"], "--steps"),
        (["advise", "{prog}", "--jobs", "-3"], "--jobs"),
        (["fleet", "run", "--shards", "0"], "--shards"),
        (["fleet", "run", "--shards", "-2"], "--shards"),
    ])
    def test_exits_2_naming_the_flag(self, program, tmp_path, capsys,
                                     argv, flag):
        fill = {"prog": program(GOOD), "trace": str(tmp_path / "t.jsonl")}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**fill) for arg in argv])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
