#!/usr/bin/env python3
"""A battery-aware Android streaming app (the paper's System C story).

The NewPipe-style streaming workload runs on the simulated Nexus 5X
under three battery levels.  A dynamic ``Player`` object's attributor
reads the BatteryManager; a mode case selects the stream resolution
(the Figure 7 QoS knob), so a draining battery gracefully degrades the
stream instead of dying mid-video.  A RERAN-style recording drives the
startup interaction, jitter included.

Run:  python examples/android_battery_app.py
"""

from repro.platform import make_platform
from repro.runtime import EntRuntime
from repro.workloads import get_workload


def watch_video(battery_level: float, minutes: float = 6.5):
    platform = make_platform("C", seed=11, battery_fraction=battery_level)
    rt = EntRuntime.standard(platform)
    newpipe = get_workload("newpipe")

    @rt.dynamic
    class Player:
        resolution = rt.mcase({"energy_saver": "144p",
                               "managed": "240p",
                               "full_throttle": "360p"})
        resolution_px = rt.mcase({"energy_saver": 256 * 144,
                                  "managed": 426 * 240,
                                  "full_throttle": 640 * 360})

        def attributor(self):
            battery = rt.ext.battery()
            if battery >= 0.75:
                return "full_throttle"
            if battery >= 0.50:
                return "managed"
            return "energy_saver"

        def play(self, seconds):
            return newpipe.execute(platform, seconds,
                                   self.resolution_px)

    player = rt.snapshot(Player())
    meter = platform.meter()
    meter.begin()
    with rt.booted(player):
        result = player.play(minutes * 60.0)
    energy = meter.end()
    return {
        "mode": rt.mode_of(player).name,
        "resolution": player.resolution,
        "energy_j": energy,
        "battery_after": platform.battery_fraction(),
        "downloaded_mb": result.detail["downloaded_bytes"] / 1e6,
    }


def main() -> None:
    print(f"{'battery':>8}  {'mode':>14}  {'stream':>7}  "
          f"{'energy':>9}  {'downloaded':>11}  {'battery after':>13}")
    for level in (0.95, 0.65, 0.35):
        stats = watch_video(level)
        print(f"{level:>7.0%}  {stats['mode']:>14}  "
              f"{stats['resolution']:>7}  {stats['energy_j']:>8.1f}J  "
              f"{stats['downloaded_mb']:>9.1f}MB  "
              f"{stats['battery_after']:>12.1%}")
    print("\nLower battery -> lower-resolution stream -> less energy "
          "and radio traffic, with no if-then-else scattered through "
          "the player code.")


if __name__ == "__main__":
    main()
