"""Tests for repro.reporting: ASCII plots and markdown reports."""

import json

import numpy as np
import pytest

from repro.reporting.ascii_plot import sparkline
from repro.reporting.experiment_report import (
    load_results,
    main,
    render_markdown,
)


class TestSparkline:
    def test_width_and_extremes(self):
        line = sparkline([0, 1, 2, 3, 4, 5], width=6)
        assert len(line) == 6
        assert line[0] == " " and line[-1] == "@"

    def test_constant_series(self):
        assert set(sparkline([5, 5, 5], width=3)) == {" "}

    def test_shorter_series_than_width(self):
        assert len(sparkline([1, 2], width=48)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            sparkline([])
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestHeatmap:
    def test_identity_matrix_has_hot_diagonal(self):
        from repro.reporting.ascii_plot import heatmap
        text = heatmap(np.eye(6), width=6, height=6, symmetric=True)
        lines = text.splitlines()
        assert all(line[i] == "@" for i, line in enumerate(lines))

    def test_downsamples_large_matrices(self):
        from repro.reporting.ascii_plot import heatmap
        big = np.random.default_rng(0).random((200, 300))
        text = heatmap(big, width=20, height=10)
        lines = text.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 20 for line in lines)

    def test_title_prepended(self):
        from repro.reporting.ascii_plot import heatmap
        assert heatmap(np.ones((2, 2)), title="T").startswith("T")

    def test_symmetric_scaling_centers_zero(self):
        from repro.reporting.ascii_plot import heatmap
        matrix = np.array([[-1.0, 0.0, 1.0]])
        text = heatmap(matrix, width=3, height=1, symmetric=True)
        assert text[0] == " " and text[-1] == "@"

    def test_validation(self):
        from repro.reporting.ascii_plot import heatmap
        with pytest.raises(ValueError):
            heatmap(np.ones(3))
        with pytest.raises(ValueError):
            heatmap(np.array([[np.inf]]))


class TestExperimentReport:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        (tmp_path / "fig05_perf_accuracy.json").write_text(json.dumps({
            "per_benchmark": {"kmeans": {"leo": 0.96}},
            "mean": {"leo": 0.95, "online": 0.85, "offline": 0.74},
            "paper": {"leo": 0.97, "online": 0.87, "offline": 0.68},
        }))
        (tmp_path / "fig11_energy_summary.json").write_text(json.dumps({
            "per_benchmark": {},
            "overall": {"leo": 1.01, "online": 1.14, "offline": 1.08,
                        "race-to-idle": 1.36},
            "paper": {"leo": 1.06, "online": 1.24, "offline": 1.29,
                      "race-to-idle": 1.90},
        }))
        (tmp_path / "mystery_extra.json").write_text(json.dumps({"x": 1}))
        return tmp_path

    def test_load_results(self, results_dir):
        results = load_results(results_dir)
        assert set(results) == {"fig05_perf_accuracy",
                                "fig11_energy_summary", "mystery_extra"}

    def test_render_known_sections(self, results_dir):
        text = render_markdown(results_dir)
        assert "# EXPERIMENTS" in text
        assert "Figure 5" in text and "0.950" in text and "0.97" in text
        assert "Figure 11" in text and "race-to-idle" in text

    def test_unknown_files_rendered_as_json(self, results_dir):
        text = render_markdown(results_dir)
        assert "mystery_extra" in text

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path)  # exists but empty

    def test_cli_entry(self, results_dir, capsys):
        assert main([str(results_dir)]) == 0
        assert "Figure 5" in capsys.readouterr().out
        assert main([]) == 2
        assert main([str(results_dir / "missing")]) == 1
