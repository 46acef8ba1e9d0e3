"""soundrecorder: a sound recording app (System C).

Records for the workload-attributed length (3 / 4 / 5 minutes) at the
QoS sample rate (8 / 24 / 48 kHz): each second captures PCM samples,
runs an AAC-style encode (work proportional to the sample rate), and
flushes the compressed stream to flash.  Recording time is fixed by
the length, so boot modes differ in power draw.
"""

from __future__ import annotations

import math

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: Recording simulated in one-second steps, scaled 1/4.
_TIME_SCALE = 4.0


class SoundRecorder(Workload):
    name = "soundrecorder"
    description = "sound encoding"
    systems = ("C",)
    cloc = 1_090
    ent_changes = 118

    workload_kind = "recording length"
    workload_labels = {ES: "3 min", MG: "4 min", FT: "5 min"}
    qos_kind = "sample rate (kHz)"
    qos_labels = {ES: "8", MG: "24", FT: "48"}

    # One counted op = one encoded sample.
    work_scale = 9.0e-5

    time_fixed = True

    _SIZES = {ES: 180.0, MG: 240.0, FT: 300.0}
    _QOS = {ES: 8_000.0, MG: 24_000.0, FT: 48_000.0}
    _THRESHOLDS = {MG: 210.0, FT: 270.0}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        rate = max(1_000.0, float(qos))
        seconds = max(1.0, size)
        steps = int(seconds / _TIME_SCALE)
        written = 0.0
        # A real MDCT-flavoured encode on a small window per step keeps
        # the kernel honest; the charge covers the full second.
        window = [math.sin(0.01 * i) for i in range(128)]
        energy_acc = 0.0
        for step in range(steps):
            step_start = platform.now()
            # Capture + psychoacoustic analysis + entropy coding.
            for i in range(0, len(window), 2):
                energy_acc += window[i] * window[i]
            self.charge(platform, rate * 14.0 * _TIME_SCALE)
            compressed = rate * 0.25 * _TIME_SCALE  # ~2 bits/sample
            platform.io_bytes(compressed)
            written += compressed
            busy = platform.now() - step_start
            idle = _TIME_SCALE - busy
            if idle > 0:
                platform.sleep(idle)
        return TaskResult(units_done=steps,
                          detail={"file_bytes": written,
                                  "sample_rate": rate,
                                  "window_energy": energy_acc})
