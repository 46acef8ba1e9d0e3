"""The benchmark's own tests: generator, oracles, spans, smoke runs.

Run from the repository root::

    python3 -m pytest entbench/tests -q
"""

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import gen
import tracing
import workloads
from conftest import BENCH, ROOT
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.typechecker import check_program

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_programs(seed):
    rng = random.Random(seed)
    return [gen.generate_program(seed, 13), gen.generate_program(seed, 21),
            gen.send_loop(rng, 100), gen.residual_loop(rng, 50),
            gen.poly_loop(rng, 120)]


def test_generator_is_deterministic_per_seed():
    first = [p.source for p in gen.compile_corpus(3)]
    again = [p.source for p in gen.compile_corpus(3)]
    other = [p.source for p in gen.compile_corpus(4)]
    assert "".join(first).encode() == "".join(again).encode()
    assert first != other
    assert gen.exec_programs(3) == gen.exec_programs(3)
    assert gen.exec_programs(3) != gen.exec_programs(4)


def test_generator_covers_the_language_surface():
    source = "".join(p.source for p in gen.compile_corpus(0))
    for construct in ("@mode<?X>", "@mode<X>", "extends", "attributor",
                      "mcase<int>", "snapshot (new", "while (",
                      "catch (EnergyException"):
        assert construct in source, construct
    assert re.search(r"\) \[(_|energy_saver|managed), "
                     r"(_|managed|full_throttle)\];", source)
    sends = gen._send_counts(random.Random(0), 30)
    assert min(sends) >= 1 and max(sends) <= gen.MAX_SENDS
    hot = sum(count >= 16 for count in sends)
    assert 0 < hot < len(sends) / 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_expected_outputs_match_walk(seed):
    for program in _small_programs(seed):
        interp = Interpreter(check_program(program.source),
                             options=InterpOptions(engine="walk"))
        interp.run()
        assert tuple(interp.output) == program.expected, program.name


def test_oracle_rejects_a_wrong_output():
    program = gen.generate_program(5, 13)
    wrong = gen.Program(program.name, program.source,
                        program.expected[:-1] + ("u0 -42",))
    with pytest.raises(workloads.OracleError):
        workloads.ent_run(wrong, "vm", "full", True)


def test_span_self_times_sum_to_the_op():
    rec = tracing.SpanRecorder()
    wrappers = tracing.Wrappers(rec)
    program = _small_programs(1)[2]
    rec.begin_op(1)
    wrappers.install()
    try:
        workloads.ent_run(program, "jit", "full", True, rec)
    finally:
        wrappers.remove()
        spans = rec.end_op()
    own, inclusive, residual = tracing.self_times(spans)
    root = [s.dur for s in spans if s.args["parent"] == 0]
    assert len(root) == 1
    assert abs(sum(own.values()) - root[0]) <= \
        tracing.SELF_TIME_TOLERANCE_S
    assert abs(residual) <= tracing.SELF_TIME_TOLERANCE_S
    for layer in ("lexer", "parser", "typechecker", "analysis.obligations",
                  "interp.construct", "exec.jit", "bytecode"):
        assert layer in own, layer
    assert inclusive["exec.jit"] >= own["exec.jit"] + own["bytecode"]
    assert all(value >= 0 for value in own.values())
    # Wrappers are gone: the module attribute is the original again.
    from repro.lang import vm
    assert not hasattr(vm.lower_body, "__wrapped__")


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py", tmp=None):
    args = [sys.executable, str(script), "--workload", workload,
            "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    if tmp is not None:
        args += ["--out", str(tmp)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(workload, trace, tmp=tmp_path)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        if trace == 0:
            printed = {line.split()[1]: line.split()[3]
                       for line in done.stdout.splitlines()
                       if line.startswith("metric ")}
            for name in workloads.WORKLOADS[workload].figures:
                assert name in printed, name
            assert all(v > 0 for v in (m["value"] for m in
                                       result["metrics"].values()))


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "entbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run("fleet", 0, cwd=tmp_path,
                script=tmp_path / "entbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
