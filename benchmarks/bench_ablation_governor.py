"""Ablation: application-level vs hardware-level energy management.

Section 6.2's System-B observation: on time-fixed workloads, a lower
application duty cycle (fewer frames per second) gives the *hardware*
more opportunity to drop to a lower-power state under the default
ondemand governor.  This ablation runs the Pi video workload under both
the ondemand and the performance governor and checks:

* under ondemand, the energy_saver QoS saves more than the pure
  work-ratio would predict (the governor compounds the saving);
* under performance (frequency pinned at max), the saving shrinks —
  the application-level knob loses its hardware-level ally.
"""

from repro.platform.systems import make_platform
from repro.workloads import ES, FT, get_workload


def _video_energy(qos_mode: str, governor: str) -> float:
    workload = get_workload("video")
    platform = make_platform("B", seed=1, governor=governor)
    workload.execute(platform, workload.task_size(FT),
                     workload.qos_value(qos_mode), seed=1)
    return platform.energy_total_j()


def test_ablation_governor_interaction(benchmark, results_dir):
    def sweep():
        return {
            governor: {qos: _video_energy(qos, governor)
                       for qos in (ES, FT)}
            for governor in ("ondemand", "performance")
        }

    energies = benchmark.pedantic(sweep, rounds=1, iterations=1)

    def saving(governor):
        e = energies[governor]
        return 1.0 - e[ES] / e[FT]

    ondemand_saving = saving("ondemand")
    performance_saving = saving("performance")
    # The es QoS always saves something...
    assert ondemand_saving > 0
    assert performance_saving > 0
    # ...and the ondemand governor amplifies the application-level
    # saving relative to a pinned frequency.
    assert ondemand_saving > performance_saving

    lines = ["Ablation: governor x QoS on Pi video (energy in J)"]
    for governor, by_qos in energies.items():
        lines.append(f"  {governor:12s} es={by_qos[ES]:8.1f} "
                     f"ft={by_qos[FT]:8.1f} "
                     f"saving={100 * saving(governor):5.2f}%")
    from conftest import write_result
    write_result(results_dir, "ablation_governor.txt", "\n".join(lines))


def test_ablation_governor_power_levels(benchmark):
    """Sanity on the mechanism itself: under ondemand, idle periods
    drop the selected level; under performance they never do."""
    from repro.platform.cpu import (OndemandGovernor, PerformanceGovernor)

    def exercise():
        ondemand = OndemandGovernor(levels=4)
        performance = PerformanceGovernor(levels=4)
        for gov in (ondemand, performance):
            gov.observe(True, 1.0)
            gov.observe(False, 3.0)
        return ondemand.select_level(), performance.select_level()

    od_level, perf_level = benchmark(exercise)
    assert od_level < perf_level
