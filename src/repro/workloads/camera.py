"""camera: Raspberry Pi time-lapse capture (Pi-specific, System B).

Models the paper's time-lapse monitoring app: for a fixed two-minute
run, capture a still every interval, JPEG-encode it, and write it to
the SD card, idling between shots.  The workload mode is attributed by
picture resolution (720x480 / 1280x720 / 1920x1080) and the QoS knob
is the time-lapse interval.

The run is *time-fixed*: every mode combination records for the same
duration, so energy differences come from average power — the paper's
key System-B observation.  (Figure 7 lists the intervals 500/1000/
1500 ms; we map the longest interval to ``energy_saver`` so that the
low-power mode takes the fewest shots, matching the measured 6.38%
saving of energy_saver over full_throttle.)
"""

from __future__ import annotations

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: Fixed run duration, as in the paper ("2 minutes").
RUN_SECONDS = 120.0


class Camera(Workload):
    name = "camera"
    description = "picture timelapse"
    systems = ("B",)
    cloc = 143
    ent_changes = 40

    workload_kind = "picture resolution"
    workload_labels = {ES: "720x480", MG: "1280x720", FT: "1920x1080"}
    qos_kind = "timelapse interval"
    qos_labels = {ES: "1500ms", MG: "1000ms", FT: "500ms"}

    # One counted op = one pixel captured+encoded.
    work_scale = 1.6e-6

    time_fixed = True

    _SIZES = {ES: 720 * 480, MG: 1280 * 720, FT: 1920 * 1080}
    _QOS = {ES: 1.5, MG: 1.0, FT: 0.5}  # seconds between shots
    _THRESHOLDS = {MG: 500_000, FT: 1_500_000}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        pixels = max(1.0, size)
        interval = max(0.1, float(qos))
        start = platform.now()
        shots = 0
        total_bytes = 0.0
        while platform.now() - start < RUN_SECONDS:
            # Capture + JPEG encode: ~25 ops per pixel, charged scaled.
            self.charge(platform, pixels * 25.0)
            jpeg_bytes = pixels * 0.18  # typical JPEG compression
            platform.io_bytes(jpeg_bytes)
            total_bytes += jpeg_bytes
            shots += 1
            elapsed_since_shot = platform.now() - start - (shots - 1) * \
                interval
            idle = interval - elapsed_since_shot
            if idle > 0:
                platform.sleep(idle)
        return TaskResult(units_done=shots,
                          detail={"jpeg_bytes": total_bytes,
                                  "interval_s": interval})
