"""newpipe: a lightweight YouTube streaming app (System C).

Streams a video of the workload-attributed length (2.5 / 6.5 / 16
minutes) at the QoS stream resolution (144p / 240p / 360p): each
playback second downloads the stream over wifi and decodes it, with
the radio and decoder work proportional to the resolution.  Driven by
a RERAN-style recording (open app, search, tap result), whose replay
jitter contributes System C's higher run-to-run deviation.  Time is
fixed by the video length, so boot modes differ in power draw.
"""

from __future__ import annotations

from repro.platform.reran import Recording, ReranReplayer
from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: Playback simulated in one-second steps; lengths scaled 1/5 to keep
#: step counts laptop-friendly (energy charged per modelled second).
_TIME_SCALE = 5.0

_STARTUP = Recording.script([
    (0.6, "tap", "app-icon"),
    (1.2, "type", "lofi beats"),
    (0.8, "tap", "search"),
    (1.5, "tap", "result-0"),
])


class NewPipe(Workload):
    name = "newpipe"
    description = "YouTube streaming"
    systems = ("C",)
    cloc = 8424
    ent_changes = 51

    workload_kind = "video length"
    workload_labels = {ES: "2.5 min", MG: "6.5 min", FT: "16 min"}
    qos_kind = "stream resolution"
    qos_labels = {ES: "144p", MG: "240p", FT: "360p"}

    # One counted op = one decoded pixel.
    work_scale = 7.0e-7

    time_fixed = True

    _SIZES = {ES: 150.0, MG: 390.0, FT: 960.0}          # seconds
    _QOS = {ES: 256 * 144, MG: 426 * 240, FT: 640 * 360}  # pixels
    _THRESHOLDS = {MG: 200.0, FT: 600.0}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        pixels = max(1.0, float(qos))
        seconds = max(1.0, size)
        replayer = ReranReplayer(platform, seed=seed)
        for event in replayer.replay(_STARTUP):
            platform.cpu_work(30.0)          # UI handling
            if event.kind in ("type", "tap"):
                platform.net_bytes(40_000.0)  # API round trips
        fps = 30.0
        steps = int(seconds / _TIME_SCALE)
        downloaded = 0.0
        for _ in range(steps):
            step_start = platform.now()
            # One modelled playback-second, charged _TIME_SCALE times.
            stream_bytes = pixels * 0.09 * fps * _TIME_SCALE
            platform.net_bytes(stream_bytes)
            downloaded += stream_bytes
            self.charge(platform, pixels * fps * 6.0 * _TIME_SCALE)
            busy = platform.now() - step_start
            idle = _TIME_SCALE - busy
            if idle > 0:
                platform.sleep(idle)
        return TaskResult(units_done=steps,
                          detail={"downloaded_bytes": downloaded,
                                  "resolution_px": pixels})
