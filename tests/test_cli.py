"""Tests for the command-line interface."""

import os
import sys

import pytest

from repro.cli import main
from tests import import_hygiene

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src_env(**extra):
    return {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), **extra}


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro-noc" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestImportHygiene:
    def test_cli_imports_only_the_standard_library(self):
        """The package runs on the standard library alone: importing the
        CLI in a fresh interpreter pulls in neither networkx nor numpy."""
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "import repro.cli, sys\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('networkx', 'numpy')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_denied_module(self):
        """``import repro.cli`` loads what parsing and ``main`` need; the
        pool machinery, the simulators, the fault recovery engine and the
        report/diff/explain tooling wait for the handler that runs them."""
        loaded = import_hygiene.modules_loaded_by("import repro.cli", env=_src_env())
        assert import_hygiene.denied(loaded) == []

    def test_cli_import_stays_within_its_module_budget(self):
        loaded = import_hygiene.modules_loaded_by("import repro.cli", env=_src_env())
        modules = import_hygiene.repro_modules(loaded)
        assert len(modules) <= import_hygiene.MAX_REPRO_MODULES, modules

    def test_validate_does_not_load_repair(self, tmp_path):
        """Checking a saved schedule never schedules, so Step 3 stays unloaded."""
        saved = tmp_path / "s.json"
        assert main(["schedule", "--system", "encoder", "--save", str(saved)]) == 0
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main(['validate', '--system', 'encoder', {str(saved)!r}]) == 0\n"
        )
        env = _src_env(REPRO_LEDGER=str(tmp_path / "ledger.jsonl"))
        loaded = import_hygiene.modules_loaded_by(code, env=env)
        assert "repro.sim.wormhole" in loaded
        assert "repro.core.repair" not in loaded

    def test_deny_list_check_runs_without_pytest(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tests", "import_hygiene.py")],
            env=_src_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 problems" in proc.stdout


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE1" in out
        for clip in ("akiyo", "foreman", "toybox"):
            assert clip in out
        assert "savings" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "decoder" in capsys.readouterr().out


class TestFigures:
    def test_fig5_small(self, capsys):
        assert main(["fig5", "--n-tasks", "25", "--benchmarks", "2"]) == 0
        out = capsys.readouterr().out
        assert "FIG5" in out
        assert "cat1-0" in out and "cat1-1" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--steps", "2", "--max-ratio", "1.2"]) == 0
        out = capsys.readouterr().out
        assert "FIG7" in out
        assert "1.2" in out


class TestScheduleCommand:
    def test_schedule_encoder(self, capsys):
        assert main(["schedule", "--system", "encoder", "--clip", "akiyo"]) == 0
        out = capsys.readouterr().out
        assert "Gantt" in out
        assert "misses=0" in out

    def test_schedule_random_edf(self, capsys):
        assert (
            main(
                [
                    "schedule",
                    "--system",
                    "random",
                    "--algorithm",
                    "edf",
                    "--n-tasks",
                    "20",
                ]
            )
            == 0
        )
        assert "Gantt" in capsys.readouterr().out

    def test_schedule_with_links(self, capsys):
        assert main(["schedule", "--system", "decoder", "--links"]) == 0
        out = capsys.readouterr().out
        assert "->" in out  # link rows present

    def test_schedule_with_dvs_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "schedule.json"
        assert (
            main(
                ["schedule", "--system", "decoder", "--dvs", "--save", str(out_file)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "DVS" in out
        assert out_file.exists()
        # The saved schedule round-trips.
        from repro.arch.presets import mesh_2x2
        from repro.ctg.multimedia import av_decoder_ctg
        from repro.schedule.serialization import schedule_from_json

        restored = schedule_from_json(
            out_file.read_text(), av_decoder_ctg("foreman"), mesh_2x2()
        )
        assert restored.is_complete


class TestAnalysisCommands:
    def test_compare(self, capsys):
        assert main(["compare", "--system", "encoder", "--clip", "akiyo"]) == 0
        out = capsys.readouterr().out
        assert "total energy" in out
        assert "PE utilisation" in out

    def test_optimal(self, capsys):
        assert main(["optimal", "--n-tasks", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "EAS" in out

    def test_export_ctg(self, capsys, tmp_path):
        out_file = tmp_path / "ctg.json"
        assert main(["export-ctg", str(out_file), "--n-tasks", "20"]) == 0
        from repro.ctg.serialization import ctg_from_json

        restored = ctg_from_json(out_file.read_text())
        assert restored.n_tasks == 20
