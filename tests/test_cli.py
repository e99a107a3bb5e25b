"""Tests for the experiment command-line interface."""

import json

import pytest

from repro.experiments.cli import EXPERIMENTS, main, run_experiment


class TestCLI:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {"fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "headline"}

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in [*EXPERIMENTS, "serve", "loadgen"]:
            assert name in out

    def test_no_arguments_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_run_experiment_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("table3")

    def test_run_fig4_via_cli(self, capsys):
        """fig4 is pure format accounting (no training), so it is cheap enough
        to exercise the full CLI path end to end."""
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "csr" in out and "ellpack" in out and "crisp" in out
        assert "metadata overhead" in out

    def test_run_fig8_via_cli(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "crisp-stc-b64" in out
        assert "speedup_vs_dense" in out

    def test_backend_flag_is_accepted_and_ignored_by_figures(self, capsys):
        """``--backend`` names the backend of loadgen/monitor tenant engines.
        A figure trains and prunes ``Module``s, which have one implementation:
        same output, and the same cached backbone (one pre-train for the pair).
        ``--backend fast fig2`` raised ``TypeError`` from PR 3 to PR 21."""
        from repro.experiments.common import clear_model_cache
        from repro.serve import service

        clear_model_cache()
        try:
            assert main(["fig2"]) == 0
            plain = capsys.readouterr().out
            assert main(["--backend", "fast", "fig2"]) == 0
            assert capsys.readouterr().out == plain
            assert "layer" in plain
            assert len(service._UNIVERSAL_CACHE) == 1
        finally:
            clear_model_cache()

    def test_run_serve_via_cli(self, capsys):
        from repro.experiments.common import clear_model_cache

        assert main(["serve", "--serve-requests", "4"]) == 0
        clear_model_cache()
        out = capsys.readouterr().out
        assert "tenants:" in out
        assert "micro-batched" in out
        assert "identical predictions" in out

    def test_lifecycle_honours_an_explicit_tenant_count(self, capsys):
        """``--loadgen-tenants 8`` is loadgen's default; lifecycle compared the
        flag against it as a sentinel and replayed 4 tenants instead."""
        assert main(["lifecycle", "--smoke", "--managed-only",
                     "--loadgen-tenants", "8", "--json", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["tenants"] == 8

    def test_lifecycle_rejects_an_explicit_non_drift_scenario(self, capsys):
        """``--scenario steady-uniform`` (loadgen's default, same sentinel)
        silently replayed drift-step."""
        with pytest.raises(SystemExit):
            main(["lifecycle", "--scenario", "steady-uniform"])
        assert "no class-drift schedule" in capsys.readouterr().err

    def test_run_lifecycle_via_cli(self, tmp_path, capsys):
        """Defaults are the command's own (drift-step, 4 tenants) and the
        audit file the CLI writes is one ``AuditLog.replay`` accepts."""
        from repro.lifecycle import AuditLog

        out, audit = tmp_path / "lifecycle.json", tmp_path / "audit.jsonl"
        assert main(["lifecycle", "--smoke", "--managed-only",
                     "--json", str(out), "--audit-jsonl", str(audit)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["scenario"], payload["tenants"]) == ("drift-step", 4)
        assert "audit:" in capsys.readouterr().out
        lines = audit.read_text().splitlines()
        assert len(AuditLog.replay(lines)) == len(payload["audit"]) > 0

    def test_pipeline_second_run_executes_nothing(self, tmp_path, capsys):
        argv = ["pipeline", "--smoke", "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert "0 hit(s), 5 ran" in capsys.readouterr().out
        assert main(argv) == 0
        assert "5 hit(s), 0 ran" in capsys.readouterr().out
