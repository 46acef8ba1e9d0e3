"""video: Raspberry Pi continuous video recording (System B).

A fixed two-minute recording: every frame is captured and encoded
(work proportional to pixels) and the encoded stream is written out.
The workload mode is attributed by video resolution (480p/720p/1080p)
and the QoS knob is the frame rate (10/20/30 fps).  Like camera, the
run is time-fixed: a lower frame rate means more idle time per second,
letting the ondemand governor drop the Pi to a lower-power state —
energy savings come from *power*, exactly as section 6.2 discusses.
"""

from __future__ import annotations

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

RUN_SECONDS = 120.0

#: Encoder macro-step: frames are batched per half-second of capture.
_BATCH_S = 0.5


class Video(Workload):
    name = "video"
    description = "video recording"
    systems = ("B",)
    cloc = 115
    ent_changes = 40

    workload_kind = "video resolution"
    workload_labels = {ES: "480p", MG: "720p", FT: "1080p"}
    qos_kind = "frames per second"
    qos_labels = {ES: "10", MG: "20", FT: "30"}

    # One counted op = one pixel encoded (H264-ish cost folded in).
    work_scale = 5.2e-7

    time_fixed = True

    _SIZES = {ES: 854 * 480, MG: 1280 * 720, FT: 1920 * 1080}
    _QOS = {ES: 10.0, MG: 20.0, FT: 30.0}
    _THRESHOLDS = {MG: 500_000, FT: 1_500_000}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        pixels = max(1.0, size)
        fps = max(1.0, float(qos))
        start = platform.now()
        frames = 0
        written = 0.0
        batches = int(RUN_SECONDS / _BATCH_S)
        for _ in range(batches):
            batch_start = platform.now()
            batch_frames = fps * _BATCH_S
            # Motion estimation + entropy coding per frame.
            self.charge(platform, pixels * 14.0 * batch_frames)
            stream_bytes = pixels * 0.06 * batch_frames
            platform.io_bytes(stream_bytes)
            written += stream_bytes
            frames += int(batch_frames)
            busy = platform.now() - batch_start
            idle = _BATCH_S - busy
            if idle > 0:
                platform.sleep(idle)
        return TaskResult(units_done=frames,
                          detail={"stream_bytes": written, "fps": fps})
