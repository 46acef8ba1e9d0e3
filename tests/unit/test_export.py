"""Unit tests for the JSON figure export."""

import json

import pytest

from repro.eval import format_figure7
from repro.eval.export import ARTIFACTS, export_all


def figure_data(name, seed=0):
    """The JSON data ``export`` writes for one artifact."""
    artifact = ARTIFACTS[name]
    return artifact.to_json(artifact.compute(seed, None, None, None))


class TestFigureData:
    def test_figure7_matches_config(self):
        data = figure_data("figure7")
        assert len(data) == 15
        assert {"name", "workload", "qos"} <= set(data[0])

    def test_figure10_shape(self):
        data = figure_data("figure10", seed=1)
        assert len(data) == 15
        row = data[0]
        assert set(row["energy_j"]) == {"energy_saver", "managed",
                                        "full_throttle"}
        assert row["energy_proportional"] is True
        assert row["percent_saved"]["full_throttle"] == 0.0

    def test_figure9_shape(self):
        data = figure_data("figure9", seed=1)
        assert len(data) == 45
        for bar in data:
            assert bar["percent_saved"] > 0
            assert bar["ent_normalized"] <= bar["silent_normalized"]

    def test_figure11_traces_decimated(self):
        data = figure_data("figure11", seed=1)
        assert len(data) == 10  # 5 benchmarks x {ent, java}
        for row in data:
            assert len(row["trace"]) <= 201
            times = [t for t, _ in row["trace"]]
            assert times == sorted(times)

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            figure_data("figure99")


class TestExportAll:
    def test_writes_valid_json(self, tmp_path):
        paths = export_all(directory=str(tmp_path),
                           figures=["figure7", "figure10"], seed=2)
        assert set(paths) == {"figure7", "figure10"}
        for json_path, _ in paths.values():
            data = json.loads(open(json_path).read())
            assert isinstance(data, list) and data

    def test_writes_the_text_beside_the_json(self, tmp_path):
        paths = export_all(directory=str(tmp_path), figures=["figure7"])
        assert paths["figure7"] == (str(tmp_path / "figure7.json"),
                                    str(tmp_path / "figure7.txt"))
        assert (tmp_path / "figure7.txt").read_text() == \
            format_figure7() + "\n"

    def test_figures_constant_complete(self):
        assert set(ARTIFACTS) == {"figure6", "figure7", "figure8",
                                "figure9", "figure10", "figure11",
                                "stddev_bands", "ablation_governor",
                                "ablation_e3_sleep"}
