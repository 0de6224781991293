"""Tests for the faults/validate CLI surface and the report section."""

import json

import pytest

from repro.cli import main


BENCH = ["--system", "random", "--n-tasks", "20"]


class TestFaultsCommand:
    def test_bare_faults_prints_help(self, capsys):
        assert main(["faults"]) == 2
        assert "inject" in capsys.readouterr().out

    def test_inject_generated_plan(self, capsys):
        assert main(["faults", "inject", *BENCH, "--kind", "pe"]) == 0
        out = capsys.readouterr().out
        assert "fault time t=" in out
        assert "verdict" in out
        assert "utilization:" in out

    def test_inject_save_and_validate_roundtrip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rec_path = tmp_path / "recovery.json"
        assert (
            main(
                [
                    "faults",
                    "inject",
                    *BENCH,
                    "--kind",
                    "transient",
                    "--simulate",
                    "--save",
                    str(rec_path),
                    "--save-plan",
                    str(plan_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "flit-level delivery confirmed" in out
        assert plan_path.exists() and rec_path.exists()
        # The saved plan is a valid schema document.
        doc = json.loads(plan_path.read_text())
        assert doc["format"] == "repro-fault-plan"
        # The recovery schedule passes the validate subcommand.
        assert main(["validate", str(rec_path), *BENCH]) == 0
        assert "validate: PASS" in capsys.readouterr().out

    def test_inject_reads_saved_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert (
            main(
                ["faults", "inject", *BENCH, "--kind", "link",
                 "--save-plan", str(plan_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["faults", "inject", *BENCH, "--plan", str(plan_path)]) == 0
        assert "link" in capsys.readouterr().out

    def test_inject_missing_plan_file(self, capsys):
        assert main(["faults", "inject", *BENCH, "--plan", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_text_output(self, capsys):
        assert (
            main(["faults", "sweep", *BENCH, "--plans", "3", "--fault-seed", "1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fault sweep" in out
        assert "survived" in out

    def test_sweep_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "faults",
                    "sweep",
                    *BENCH,
                    "--plans",
                    "3",
                    "--format",
                    "json",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["format"] == "repro-fault-sweep"
        assert len(doc["plans"]) == 3

    def test_sweep_bad_kinds(self, capsys):
        assert main(["faults", "sweep", *BENCH, "--kinds", "bogus"]) == 1
        assert "error" in capsys.readouterr().err


class TestValidateCommand:
    def test_validate_healthy_schedule(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(path), *BENCH]) == 0
        assert "validate: PASS" in capsys.readouterr().out

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.json", *BENCH]) == 1
        assert "validate: FAIL" in capsys.readouterr().out

    def test_validate_tampered_schedule_fails(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        # Fabricate an impossible transaction window on the first
        # network transaction: flit-level replay must reject it.
        moving = [c for c in doc["comms"] if c["links"]]
        if not moving:
            pytest.skip("no network traffic in this instance")
        moving[0]["finish"] = moving[0]["start"]
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), *BENCH, "--slack-hops-factor", "0"]) == 1
        assert "validate: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("factor", ["nan", "inf", "-1"])
    def test_validate_rejects_slack_factor_that_disables_the_check(
        self, factor, tmp_path, capsys, monkeypatch
    ):
        # NaN/inf allowances passed every schedule; with the ledger on,
        # NaN crashed its strict JSON writer.  Both paths must now stop
        # at argument parsing with a one-line error naming the flag.
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(path), *BENCH, f"--slack-hops-factor={factor}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "validate: PASS" not in captured.out
        assert "repro-noc validate: error: argument --slack-hops-factor" in captured.err
        assert "Traceback" not in captured.err

    def test_validate_wrong_benchmark_fails(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        assert main(["schedule", *BENCH, "--save", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(path), "--system", "encoder"]) == 1
        assert "validate: FAIL" in capsys.readouterr().out


class TestLedgerAndReport:
    def test_sweep_ledgers_fault_plans_and_report_shows_them(
        self, tmp_path, capsys, monkeypatch
    ):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert (
            main(
                ["faults", "sweep", *BENCH, "--plans", "3",
                 "--ledger", str(ledger)]
            )
            == 0
        )
        capsys.readouterr()
        records = [
            json.loads(line) for line in ledger.read_text().splitlines() if line
        ]
        fault_rows = [
            r for r in records if r.get("type") == "phase" and r.get("name") == "fault_plan"
        ]
        assert len(fault_rows) == 3
        assert main(["report", "--ledger", str(ledger), "--bench-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault survivability" in out
        assert "3 plans injected" in out

    def test_report_json_contains_survivability(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert (
            main(
                ["faults", "sweep", *BENCH, "--plans", "3",
                 "--ledger", str(ledger)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                ["report", "--format", "json", "--ledger", str(ledger),
                 "--bench-dir", str(tmp_path)]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        surv = doc["survivability"]
        assert surv["plans"] == 3
        assert set(surv["by_kind"]) <= {"pe", "link", "transient"}
