"""The experiments CLI: ``python -m repro.experiments <name> [...]``."""

import json

import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult
from repro.experiments.__main__ import main
from repro.obs import TelemetryBus
from repro.serve.service import FleetService


def fake_experiment(calls, passes=True, error=None):
    """A stand-in ``run`` that records its keyword arguments."""

    def run(scale=1.0, seed=0, telemetry=None):
        calls.append({"scale": scale, "seed": seed, "telemetry": telemetry})
        if error is not None:
            raise error
        result = ExperimentResult("fake", "a stand-in experiment")
        result.check("holds", passes)
        return result

    return run


class TestRun:
    def test_report_and_json_dump(self, tmp_path, capsys):
        assert main(["fig3", "--scale", "0.1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== Figure 3" in out and "[PASS]" in out
        assert "[fig3 finished in" in out
        dumped = json.loads((tmp_path / "fig3.json").read_text())
        assert dumped["name"].startswith("Figure 3")
        assert dumped["checks"] and all(dumped["checks"].values())

    def test_scale_and_seed_reach_the_experiment(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "fake", fake_experiment(calls))
        assert main(["fake", "--scale", "0.25", "--seed", "7"]) == 0
        assert calls == [{"scale": 0.25, "seed": 7, "telemetry": None}]

    def test_failed_shape_check_sets_exit_code(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "fake",
                            fake_experiment(calls, passes=False))
        assert main(["fake"]) == 1
        assert "[FAIL] holds" in capsys.readouterr().out

    def test_telemetry_log_written(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(["multicluster", "--scale", "0.02",
                     "--telemetry", str(log)]) == 0
        events = [json.loads(line)
                  for line in log.read_text().splitlines()]
        assert events
        assert "round_completed" in {event["kind"] for event in events}


class TestArguments:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig99"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("scale", ["-1", "0", "inf", "nan"])
    def test_bad_scale_rejected_before_any_experiment_runs(
            self, scale, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "fake", fake_experiment(calls))
        with pytest.raises(SystemExit) as exit_info:
            main(["fake", "--scale", scale])
        assert exit_info.value.code == 2
        assert calls == []
        assert "--scale must be finite and > 0" in capsys.readouterr().err

    def test_negative_seed_rejected_before_any_experiment_runs(
            self, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "fake", fake_experiment(calls))
        with pytest.raises(SystemExit) as exit_info:
            main(["fake", "--seed", "-1"])
        assert exit_info.value.code == 2
        assert calls == []
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_serve_and_telemetry_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["multicluster", "--serve", "0",
                  "--telemetry", str(tmp_path / "events.jsonl")])
        assert exit_info.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_all_gives_each_experiment_its_own_log(self, monkeypatch,
                                                   tmp_path, capsys):
        calls = []
        for name in list(EXPERIMENTS):
            monkeypatch.delitem(EXPERIMENTS, name)
        monkeypatch.setitem(EXPERIMENTS, "alpha", fake_experiment(calls))
        monkeypatch.setitem(EXPERIMENTS, "beta", fake_experiment(calls))
        assert main(["all", "--telemetry", str(tmp_path / "run.jsonl")]) == 0
        assert [call["telemetry"] for call in calls] == [
            str(tmp_path / "run.alpha.jsonl"),
            str(tmp_path / "run.beta.jsonl")]


class TestServe:
    """``--serve`` hosts a control plane and streams each run's bus."""

    @pytest.fixture
    def finished(self, monkeypatch):
        states = []
        original = FleetService.finish_external

        def record(service, handle, state="done"):
            states.append((handle.name, state))
            original(service, handle, state)

        monkeypatch.setattr(FleetService, "finish_external", record)
        return states

    def test_run_streams_on_a_live_bus(self, monkeypatch, finished, capsys):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "fake", fake_experiment(calls))
        assert main(["fake", "--serve", "127.0.0.1:0"]) == 0
        assert isinstance(calls[0]["telemetry"], TelemetryBus)
        assert finished == [("fake", "done")]
        out = capsys.readouterr().out
        assert "[control plane listening on 127.0.0.1:" in out
        assert "[fake streaming as " in out

    def test_crashed_run_is_marked_failed(self, monkeypatch, finished,
                                          capsys):
        calls = []
        monkeypatch.setitem(EXPERIMENTS, "fake", fake_experiment(
            calls, error=RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            main(["fake", "--serve", "127.0.0.1:0"])
        assert finished == [("fake", "failed")]
