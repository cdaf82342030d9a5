"""Schema guards for the benchmark result artifacts.

``benchmarks/results/*.json`` is the interface between the benchmark
suite and EXPERIMENTS.md (and any downstream analysis).  When the
results directory exists — i.e. after a benchmark pass — these tests
pin the schema every renderer section relies on, so a refactor cannot
silently produce unrenderable artifacts.  They skip cleanly on a fresh
checkout.
"""

import importlib.util
import json
import pathlib

import pytest

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

pytestmark = pytest.mark.skipif(
    not RESULTS.is_dir() or not any(RESULTS.glob("*.json")),
    reason="no benchmark results present (run pytest benchmarks/ first)",
)


def _load(name):
    path = RESULTS / f"{name}.json"
    if not path.exists():
        pytest.skip(f"{name} not in this results set")
    return json.loads(path.read_text())


APPROACHES = ("leo", "online", "offline")


class TestAccuracyFigures:
    @pytest.mark.parametrize("name", ["fig05_perf_accuracy",
                                      "fig06_power_accuracy"])
    def test_schema(self, name):
        data = _load(name)
        assert set(data) >= {"per_benchmark", "mean", "paper"}
        for approach in APPROACHES:
            assert 0.0 <= data["mean"][approach] <= 1.0
        assert len(data["per_benchmark"]) == 25

    def test_paper_shape_held(self):
        perf = _load("fig05_perf_accuracy")["mean"]
        power = _load("fig06_power_accuracy")["mean"]
        assert perf["leo"] > perf["online"] > perf["offline"]
        assert power["leo"] > max(power["online"], power["offline"])


class TestEnergyFigures:
    def test_fig11_schema_and_shape(self):
        data = _load("fig11_energy_summary")
        overall = data["overall"]
        assert set(overall) == {"leo", "online", "offline",
                                "race-to-idle"}
        assert overall["leo"] == min(overall.values())
        assert overall["race-to-idle"] == max(overall.values())
        assert len(data["per_benchmark"]) == 25

    def test_fig10_curves_complete(self):
        data = _load("fig10_energy_curves")
        assert set(data) == {"kmeans", "swish", "x264"}
        for bench in data.values():
            lengths = {len(v) for v in bench["energy"].values()}
            assert len(lengths) == 1  # all series aligned


class TestSensitivityAndPhases:
    def test_fig12_cliff(self):
        data = _load("fig12_sensitivity")
        for size, online in zip(data["sizes"], data["perf"]["online"]):
            if size < 15:
                assert online == 0.0
            else:
                assert online > 0.0
        assert data["perf"]["leo"][0] == pytest.approx(
            data["offline_perf"])

    def test_table1_rows(self):
        data = _load("fig13_table1_phases")
        for approach in APPROACHES:
            rel = data["relative"][approach]
            assert len(rel) == 3
            assert all(r > 0.9 for r in rel)
        overall = {a: data["relative"][a][2] for a in APPROACHES}
        assert overall["leo"] == min(overall.values())


class TestEveryResultRenderable:
    def test_experiments_md_is_rendered_from_these_results(self):
        """EXPERIMENTS.md is exactly what benchmarks/make_experiments_md.py
        renders from the committed results: re-run the script whenever
        a benchmark re-records one."""
        script = RESULTS.parent / "make_experiments_md.py"
        spec = importlib.util.spec_from_file_location("make_experiments_md",
                                                      script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        committed = (RESULTS.parent.parent / "EXPERIMENTS.md").read_text()
        assert committed == module.render(RESULTS)

    def test_render_covers_all_files(self):
        from repro.reporting.experiment_report import (_SECTIONS,
                                                       render_markdown)
        known = {name for name, _ in _SECTIONS}
        present = {p.stem for p in RESULTS.glob("*.json")}
        # Every present artifact has a dedicated renderer section.
        assert present <= known, present - known
        text = render_markdown(RESULTS)
        for stem in present:
            title = dict(_SECTIONS)[stem]
            assert title in text
