"""duckduckgo: an anonymous web browser (System C).

Executes a RERAN-scripted session of search queries (8 / 16 / 24, the
workload attribution).  The QoS knob is search quality: ``none``
fetches bare result pages, ``javascript`` additionally downloads and
executes page scripts (heavier render work), and ``autosearch +
javascript`` also prefetches suggestion results while the user types.
Session length is fixed by the query count and the scripted think
time, so boot modes differ in power.
"""

from __future__ import annotations

import random

from repro.platform.reran import Recording, ReranReplayer, TouchEvent
from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: QoS levels.
_QUALITY_NONE, _QUALITY_JS, _QUALITY_AUTO = 0.0, 1.0, 2.0

_SERP_BYTES = 180_000.0
_JS_BYTES = 320_000.0
_SUGGEST_BYTES = 25_000.0


def _session_recording(queries: int, seed: int) -> Recording:
    rng = random.Random(seed * 17 + queries)
    events = []
    t = 0.0
    for index in range(queries):
        t += 1.0 + rng.random() * 0.5          # focus the search box
        events.append(TouchEvent(t, "tap", "searchbox"))
        for ch in range(6 + rng.randrange(6)):  # type the query
            t += 0.15
            events.append(TouchEvent(t, "type", f"q{index}c{ch}"))
        t += 0.4
        events.append(TouchEvent(t, "tap", "go"))
        t += 2.0 + rng.random()                 # read results, scroll
        events.append(TouchEvent(t, "scroll", "results"))
    return Recording(events)


class DuckDuckGo(Workload):
    name = "duckduckgo"
    description = "web browser"
    systems = ("C",)
    cloc = 13_802
    ent_changes = 78

    workload_kind = "search queries"
    workload_labels = {ES: "8", MG: "16", FT: "24"}
    qos_kind = "search quality"
    qos_labels = {ES: "none", MG: "javascript", FT: "autosearch / js"}

    # One counted op = one rendered layout element.
    work_scale = 1.1e-3

    time_fixed = True

    _SIZES = {ES: 8, MG: 16, FT: 24}
    _QOS = {ES: _QUALITY_NONE, MG: _QUALITY_JS, FT: _QUALITY_AUTO}
    _THRESHOLDS = {MG: 10, FT: 20}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        queries = max(1, int(size))
        quality = float(qos)
        recording = _session_recording(queries, seed)
        replayer = ReranReplayer(platform, seed=seed)
        fetched = 0.0
        rendered = 0
        for event in replayer.replay(recording):
            platform.cpu_work(8.0)  # input handling
            if event.kind == "type" and quality >= _QUALITY_AUTO:
                # Autosearch: prefetch suggestions per keystroke.
                platform.net_bytes(_SUGGEST_BYTES)
                fetched += _SUGGEST_BYTES
                self.charge(platform, 400.0)
                rendered += 400
            elif event.kind == "tap" and event.payload == "go":
                platform.net_bytes(_SERP_BYTES)
                fetched += _SERP_BYTES
                layout_elements = 2_500.0
                if quality >= _QUALITY_JS:
                    platform.net_bytes(_JS_BYTES)
                    fetched += _JS_BYTES
                    layout_elements *= 3.2  # script-driven reflows
                self.charge(platform, layout_elements)
                rendered += int(layout_elements)
            elif event.kind == "scroll":
                self.charge(platform, 900.0)
                rendered += 900
        return TaskResult(units_done=queries,
                          detail={"fetched_bytes": fetched,
                                  "layout_elements": float(rendered)})
