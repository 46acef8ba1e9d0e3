"""Unit tests over all 15 benchmark workloads.

Every workload must satisfy the structural contract the harness relies
on: the task attributor classifies its own Figure 7 sizes correctly,
kernels are deterministic for a seed, energy grows with workload size,
and the QoS knob orders energy es <= mg <= ft.
"""

import math

import pytest

from repro.platform import make_platform
from repro.workloads import (ALL_WORKLOADS, BATTERY_MODES, ES, FT, MG,
                             get_workload, workloads_for_system)
from repro.workloads.base import battery_boot_mode, temperature_boot_mode


def _primary_system(workload):
    return workload.systems[0]


def _scaled(workload, mode, system):
    scale = getattr(workload, "system_scale", None)
    factor = scale(system) if scale is not None else 1.0
    return workload.task_size(mode) * factor


def _energy(workload, size_mode, qos_mode, seed=1):
    system = _primary_system(workload)
    platform = make_platform(system, seed=seed)
    workload.execute(platform, _scaled(workload, size_mode, system),
                     workload.qos_value(qos_mode), seed=seed)
    return platform.energy_total_j()


class TestRegistry:
    def test_fifteen_benchmarks(self):
        assert len(ALL_WORKLOADS) == 15

    def test_names_unique(self):
        names = [w.name for w in ALL_WORKLOADS]
        assert len(set(names)) == 15

    def test_get_workload(self):
        assert get_workload("jspider").name == "jspider"
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_systems_cover_paper(self):
        assert {w.name for w in workloads_for_system("B")} == {
            "sunflow", "crypto", "camera", "video", "javaboy"}
        assert {w.name for w in workloads_for_system("C")} == {
            "newpipe", "duckduckgo", "soundrecorder", "materiallife"}

    def test_figure6_metadata_present(self):
        for w in ALL_WORKLOADS:
            assert w.cloc > 0
            assert w.ent_changes > 0
            assert w.description

    def test_figure7_labels_complete(self):
        for w in ALL_WORKLOADS:
            for mode in BATTERY_MODES:
                assert w.workload_labels[mode]
                assert w.qos_labels[mode]


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=lambda w: w.name)
class TestWorkloadContract:
    def test_attribution_roundtrip(self, workload):
        """attribute(task_size(m)) == m — the attributor thresholds
        classify the Figure 7 inputs correctly."""
        for mode in BATTERY_MODES:
            assert workload.attribute(workload.task_size(mode)) == mode

    def test_attributor_thresholds(self, workload):
        """A cutoff itself attributes to the mode below it (strict
        ``>``), the next float up to the mode above, and the cutoffs
        separate the three Figure 7 sizes."""
        cutoffs = workload._THRESHOLDS
        assert set(cutoffs) == {MG, FT}
        for lower, upper in ((ES, MG), (MG, FT)):
            cutoff = cutoffs[upper]
            assert workload.attribute(cutoff) == lower
            assert workload.attribute(math.nextafter(cutoff, math.inf)) \
                == upper
        assert (workload.task_size(ES) <= cutoffs[MG]
                < workload.task_size(MG) <= cutoffs[FT]
                < workload.task_size(FT))

    def test_sizes_strictly_increasing(self, workload):
        assert (workload.task_size(ES) < workload.task_size(MG)
                < workload.task_size(FT))

    def test_deterministic_for_seed(self, workload):
        assert _energy(workload, MG, MG, seed=2) == pytest.approx(
            _energy(workload, MG, MG, seed=2))

    def test_energy_grows_with_workload(self, workload):
        # Time-fixed workloads still order by input size (bigger
        # resolution / longer recording draws more average power).
        assert (_energy(workload, ES, MG) < _energy(workload, MG, MG)
                < _energy(workload, FT, MG))

    def test_qos_orders_energy(self, workload):
        es = _energy(workload, FT, ES)
        mg = _energy(workload, FT, MG)
        ft = _energy(workload, FT, FT)
        assert es < ft
        assert es <= mg <= ft or abs(mg - ft) / ft < 0.02

    def test_kernel_consumes_time(self, workload):
        system = _primary_system(workload)
        platform = make_platform(system, seed=1)
        workload.execute(platform, _scaled(workload, ES, system),
                         workload.qos_value(ES), seed=1)
        assert platform.now() > 0


class TestTimeFixedWorkloads:
    @pytest.mark.parametrize("name", ["camera", "video", "javaboy"])
    def test_duration_independent_of_qos(self, name):
        """The Pi benchmarks are time-fixed: every QoS level runs for
        the same duration; savings come from power (section 6.2)."""
        workload = get_workload(name)
        durations = []
        for qos_mode in BATTERY_MODES:
            platform = make_platform("B", seed=1)
            workload.execute(platform, workload.task_size(FT),
                             workload.qos_value(qos_mode), seed=1)
            durations.append(platform.now())
        spread = (max(durations) - min(durations)) / max(durations)
        assert spread < 0.02

    @pytest.mark.parametrize("name", ["camera", "video", "javaboy"])
    def test_power_drives_savings(self, name):
        workload = get_workload(name)
        energies = {}
        for qos_mode in (ES, FT):
            platform = make_platform("B", seed=1)
            workload.execute(platform, workload.task_size(FT),
                             workload.qos_value(qos_mode), seed=1)
            energies[qos_mode] = platform.energy_total_j()
        assert energies[ES] < energies[FT]


class TestE3Units:
    @pytest.mark.parametrize("name", ["sunflow", "jython", "xalan",
                                      "findbugs", "pagerank"])
    def test_unit_of_work(self, name):
        workload = get_workload(name)
        assert workload.supports_temperature
        platform = make_platform("A", seed=1)
        workload.execute_unit(platform, workload.qos_value(FT), seed=1)
        assert platform.now() > 0

    def test_unitless_workload_rejects(self):
        workload = get_workload("crypto")
        platform = make_platform("A", seed=1)
        with pytest.raises(NotImplementedError):
            workload.execute_unit(platform, 1.0)


class TestBootModeThresholds:
    def test_battery_thresholds(self):
        assert battery_boot_mode(0.90) == FT
        assert battery_boot_mode(0.75) == FT
        assert battery_boot_mode(0.70) == MG
        assert battery_boot_mode(0.50) == MG
        assert battery_boot_mode(0.40) == ES

    def test_temperature_thresholds(self):
        assert temperature_boot_mode(45.0) == "safe"
        assert temperature_boot_mode(62.0) == "hot"
        assert temperature_boot_mode(66.0) == "overheating"
        assert temperature_boot_mode(60.0) == "hot"
        assert temperature_boot_mode(65.0) == "hot"


class TestKernelRealism:
    """Spot checks that kernels do genuine computation."""

    def test_pagerank_converges(self):
        workload = get_workload("pagerank")
        platform = make_platform("A", seed=1)
        result = workload.execute(platform, 50_000, 0.001, seed=1)
        assert result.detail["delta"] <= 0.001
        assert result.detail["iterations"] >= 2
        assert 0 < result.detail["top_rank"] < 1

    def test_pagerank_tighter_threshold_more_iterations(self):
        workload = get_workload("pagerank")
        iters = {}
        for qos_mode in BATTERY_MODES:
            platform = make_platform("A", seed=1)
            result = workload.execute(platform, 300_000,
                                      workload.qos_value(qos_mode), seed=1)
            iters[qos_mode] = result.detail["iterations"]
        assert iters[ES] < iters[MG] < iters[FT]

    def test_crypto_checksum_depends_on_key(self):
        workload = get_workload("crypto")
        sums = set()
        for bits in (768, 1024):
            platform = make_platform("A", seed=1)
            result = workload.execute(platform, 100_000, bits, seed=1)
            sums.add(result.detail["checksum"])
        assert len(sums) == 2

    def test_findbugs_finds_bugs(self):
        workload = get_workload("findbugs")
        platform = make_platform("A", seed=1)
        result = workload.execute(platform, 5000, 1, seed=1)
        assert result.detail["bugs"] > 0

    def test_materiallife_evolves(self):
        from repro.workloads.materiallife import life_step, seed_board
        cells = seed_board(200, 1)
        after = life_step(cells)
        assert after != cells

    def test_life_blinker_oscillates(self):
        from repro.workloads.materiallife import life_step
        blinker = {(0, -1), (0, 0), (0, 1)}
        once = life_step(blinker)
        assert once == {(-1, 0), (0, 0), (1, 0)}
        assert life_step(once) == blinker

    def test_sunflow_hits_spheres(self):
        workload = get_workload("sunflow")
        platform = make_platform("A", seed=1)
        result = workload.execute(platform, 8, 2.0, seed=1)
        assert result.detail["brightness"] > 0

    def test_javaboy_vm_executes(self):
        from repro.workloads.javaboy import _Vm, _gen_rom
        vm = _Vm(_gen_rom(4096, 1))
        assert vm.run(1000) == 1000

    def test_xalan_parser_validates(self):
        from repro.workloads.xalan import _parse
        assert _parse("<a><b></b></a>") == 2
        with pytest.raises(AssertionError):
            _parse("<a><b></a></b>")

    def test_jython_compiles(self):
        from repro.workloads.jython import _Parser, _tokenize
        code = _Parser(_tokenize("x = 1 + 2 * 3")).parse()
        assert ("store", "x") in code
        assert ("binop", "*") in code
