#!/usr/bin/env python3
"""Temperature-aware rendering (the paper's E3 scenario, Figure 11).

A renderer processes buckets of a large scene on the simulated Intel
laptop.  Between buckets it snapshots a dedicated ``Sleeper`` object
whose attributor reads the CPU temperature; a mode case maps the
thermal mode to a cool-down interval (0 ms when safe, 250 ms when hot,
1000 ms when overheating).  Compare the temperature trace against the
same workload without the sleeps: plain rendering climbs towards the
thermal steady state, the ENT version duty-cycles around the threshold.

Run:  python examples/temperature_aware_renderer.py
"""

from repro.platform import make_platform
from repro.runtime import EntRuntime
from repro.workloads import FT, get_workload


def render_run(temperature_aware: bool, buckets: int = 45):
    platform = make_platform("A", seed=7)
    rt = EntRuntime.thermal(platform)
    sunflow = get_workload("sunflow")

    @rt.dynamic
    class Sleeper:
        """The dedicated Sleep object regulating CPU cool-down."""

        interval_ms = rt.mcase({"overheating": 1000.0, "hot": 250.0,
                                "safe": 0.0})

        def attributor(self):
            celsius = rt.ext.temperature()
            if celsius < 60.0:
                return "safe"
            if celsius <= 65.0:
                return "hot"
            return "overheating"

    sleeper = Sleeper()
    meter = platform.meter()
    meter.begin()
    for bucket in range(buckets):
        sunflow.execute_unit(platform, sunflow.qos_value(FT), seed=bucket)
        if temperature_aware:
            snapped = rt.snapshot(sleeper)
            interval = snapped.interval_ms
            if interval > 0:
                platform.sleep(interval / 1000.0)
    return platform, meter.end()


def sparkline(trace, width=60, lo=35.0, hi=75.0):
    glyphs = " .:-=+*#%@"
    samples = []
    duration = trace[-1][0] or 1.0
    for i in range(width):
        target = duration * i / (width - 1)
        nearest = min(trace, key=lambda p: abs(p[0] - target))
        samples.append(nearest[1])
    return "".join(
        glyphs[int(max(0.0, min(1.0, (t - lo) / (hi - lo)))
                   * (len(glyphs) - 1))]
        for t in samples)


def main() -> None:
    for aware, label in ((True, "ENT (temperature-cased sleeps)"),
                         (False, "plain (no thermal management)")):
        platform, energy = render_run(aware)
        temps = [t for _, t in platform.temperature_trace]
        print(f"{label}:")
        print(f"  |{sparkline(platform.temperature_trace)}|  (35-75C)")
        print(f"  peak {max(temps):.1f}C, final "
              f"{platform.cpu_temperature():.1f}C, "
              f"energy {energy:.0f} J over {platform.now():.0f} s")
        print()


if __name__ == "__main__":
    main()
