"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.service import (
    EstimationService,
    ServerThread,
    ServiceAddress,
    ServiceClient,
)


class TestListAndShow:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "kmeans" in out and "swish" in out
        assert out.count("\n") >= 26  # 25 rows + header

    def test_show_benchmark(self, capsys):
        assert main(["show-benchmark", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "scaling_peak" in out and "8" in out

    def test_show_unknown_benchmark_fails(self, capsys):
        assert main(["show-benchmark", "doom"]) == 1
        assert "unknown" in capsys.readouterr().err


class TestEstimate:
    def test_estimate_on_cores_space(self, capsys):
        code = main(["estimate", "--benchmark", "kmeans",
                     "--space", "cores", "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "leo" in out and "perf accuracy" in out
        assert "(truth)" in out

    def test_estimate_unknown_benchmark(self, capsys):
        assert main(["estimate", "--benchmark", "doom",
                     "--space", "cores"]) == 1

    @pytest.mark.parametrize("samples", ["0", "-3", "33", "5000"])
    def test_rejects_bad_samples(self, samples, capsys):
        """Outside 1..32 (the cores space) is one line, not a traceback."""
        assert main(["estimate", "--samples", samples,
                     "--space", "cores"]) == 1
        assert "--samples" in capsys.readouterr().err

    def test_infeasible_online_reported(self, capsys):
        # 6 samples on the cores space: online works (2 varying knobs);
        # the infeasible path needs the paper space below 15 samples.
        code = main(["estimate", "--benchmark", "x264",
                     "--space", "paper", "--samples", "10"])
        assert code == 0
        assert "infeasible" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_reports_energy(self, capsys):
        code = main(["optimize", "--benchmark", "swish",
                     "--space", "cores", "--utilization", "0.4",
                     "--deadline", "30", "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "race-to-idle" in out and "optimal" in out
        assert "vs optimal" in out

    def test_rejects_bad_utilization(self, capsys):
        assert main(["optimize", "--utilization", "1.5",
                     "--space", "cores"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-3"), ("--samples", "33"),
        ("--samples", "5000"), ("--deadline", "0"), ("--deadline", "-5"),
        ("--deadline", "nan"), ("--deadline", "inf"),
    ])
    def test_rejects_bad_samples_and_deadline(self, flag, value, capsys):
        assert main(["optimize", flag, value, "--space", "cores"]) == 1
        assert flag in capsys.readouterr().err

    def test_estimator_choice(self, capsys):
        code = main(["optimize", "--benchmark", "x264",
                     "--space", "cores", "--estimator", "offline",
                     "--utilization", "0.3", "--deadline", "30",
                     "--samples", "8"])
        assert code == 0
        assert "offline" in capsys.readouterr().out


class TestReproduce:
    def test_fig1(self, capsys):
        assert main(["reproduce", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "true peak = 8" in out

    def test_invalid_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])


class TestChaos:
    def test_default_plan_reports_survival(self, capsys):
        code = main(["chaos", "--benchmark", "kmeans", "--space", "cores",
                     "--windows", "2", "--deadline", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "survived" in out
        assert "recovered to tier 0" in out

    def test_unknown_plan_rejected(self, capsys):
        assert main(["chaos", "--plan", "mayhem",
                     "--space", "cores"]) == 1
        assert "mayhem" in capsys.readouterr().err

    def test_rejects_bad_utilization(self, capsys):
        assert main(["chaos", "--utilization", "0",
                     "--space", "cores"]) == 1


class TestSoakCommand:
    def test_quiet_soak_passes(self, capsys, tmp_path):
        out = tmp_path / "soak.json"
        code = main(["soak", "--plan", "quiet", "--horizon", "14400",
                     "--tenants", "4", "--json", str(out),
                     "--slo", str(tmp_path / "slo.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert "soak" in captured.out
        assert "fingerprint" in captured.out
        import json
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["fingerprint"]
        slo = json.loads((tmp_path / "slo.json").read_text())
        assert set(slo) == {"objectives", "events", "streams"}

    def test_horizon_accepts_days_suffix(self, capsys):
        code = main(["soak", "--plan", "none", "--horizon", "0.1d",
                     "--tenants", "2"])
        assert code == 0
        assert "0.10 days" in capsys.readouterr().out

    def test_unknown_plan_rejected(self, capsys):
        assert main(["soak", "--plan", "mayhem",
                     "--horizon", "7200"]) == 1
        assert "profile" in capsys.readouterr().err

    def test_bad_horizon_rejected(self, capsys):
        assert main(["soak", "--horizon", "soon"]) == 1
        assert "horizon" in capsys.readouterr().err


class TestRequestCommand:
    @pytest.fixture()
    def address(self):
        with ServerThread(EstimationService(), max_workers=1) as thread:
            yield str(thread.bound_address)

    def test_reply_is_one_json_line_bit_equal_to_a_client(self, address,
                                                          capsys):
        payload = {"app": "kmeans", "space": "cores", "samples": 6,
                   "estimator": "offline"}
        assert main(["request", address, "calibrate-report",
                     "--payload", json.dumps(payload)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        printed = json.loads(out)
        assert printed["ok"] is True
        with ServiceClient(ServiceAddress.parse(address)) as client:
            direct = client.call("calibrate-report", payload)
        for key in ("rates", "powers"):
            assert (np.asarray(printed["payload"][key]).tobytes()
                    == direct[key].tobytes())

    def test_non_object_payload_is_a_typed_error(self, address, capsys):
        assert main(["request", address, "ping", "--payload", "[1]"]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["ok"] is False
        assert printed["error"]["type"] == "protocol-error"
        assert "JSON object" in printed["error"]["message"]
