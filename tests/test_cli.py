"""Tests for the experiment command-line interface."""

import json

import pytest

from repro.experiments.cli import FIGURES, main
from repro.experiments.common import clear_model_cache


@pytest.fixture(autouse=True, scope="module")
def _shared_universal_models():
    """The commands that train here share one universal-model cache (an entry
    is a pure function of its key); it is cleared around the module."""
    clear_model_cache()
    yield
    clear_model_cache()


class TestCLI:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {"fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "headline"}

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in [*FIGURES, "serve", "loadgen"]:
            assert name in out

    def test_no_arguments_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

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

    def test_headline_second_run_is_all_verified_hits(self, tmp_path, capsys):
        """``headline`` collects over fig3's points and fig8's step in its
        store: a second run executes nothing and prints the same summary."""
        from repro.pipeline import build_pipeline

        argv = ["headline", "--smoke", "--store", str(tmp_path / "store")]
        steps = len(build_pipeline("headline", None, smoke=True).order)
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert f"0 hit(s), {steps} ran" in first.err
        assert f"{steps} hit(s), 0 ran" in second.err
        assert second.out == first.out
        summary = dict(line.split(":") for line in first.out.split("=====")[-1].strip().splitlines())
        assert {key.strip() for key in summary} == {
            "crisp_accuracy", "block_accuracy", "dense_accuracy", "crisp_sparsity",
            "max_speedup", "max_energy_efficiency", "nvidia_max_speedup", "dstc_max_speedup",
        }

    def test_backend_flag_is_accepted_and_ignored_by_figures(self, capsys):
        """``--backend`` names the backend of loadgen/monitor tenant engines.
        A figure trains and prunes ``Module``s, which have one implementation:
        same output, and the same cached backbone (one pre-train for the pair).
        ``--backend fast fig2`` raised ``TypeError`` from PR 3 to PR 21."""
        from repro.serve import service

        assert main(["fig2"]) == 0
        plain = capsys.readouterr().out
        assert main(["--backend", "fast", "fig2"]) == 0
        assert capsys.readouterr().out == plain
        assert "layer" in plain
        assert len(service._UNIVERSAL_CACHE) == 1

    def test_run_serve_via_cli(self, capsys):
        assert main(["serve", "--serve-requests", "4"]) == 0
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


#: Every option string ``--help`` listed before the CLI became one command
#: table, with a value it accepts (``--transport direct`` is the one value
#: dropped since).
OPTIONS = [
    ["--backend", "reference"], ["--serve-users", "2"], ["--serve-requests", "4"],
    ["--serve-capacity", "2"], ["--shards", "2"], ["--workers", "process"],
    ["--stats-json", "s.json"], ["--scenario", "zipf-burst"], ["--list-scenarios"],
    ["--seed", "1"], ["--loadgen-tenants", "3"], ["--loadgen-requests", "8"],
    ["--transport", "local"], ["--transport", "loopback"], ["--transport", "http"],
    ["--time-scale", "0.5"], ["--json"], ["--json", "out.json"], ["--measure"],
    ["--smoke"], ["--trace"], ["--autoscale"], ["--max-shards", "4"],
    ["--decisions-jsonl", "d.jsonl"], ["--monitor"], ["--metrics-json", "m.json"],
    ["--events-jsonl", "e.jsonl"], ["--poll-interval", "0.1"], ["--alert-p99-ms", "100"],
    ["--alert-burn-rate", "0.1"], ["--alert-queue-depth", "8"],
    ["--url", "http://127.0.0.1:8080"], ["--ticks", "2"], ["--watch"], ["--managed-only"],
    ["--audit-jsonl", "a.jsonl"], ["--pipeline", "fig1"], ["--store", "store"],
    ["--status"], ["--list-steps"], ["--force", "prune"],
]


class TestCommandTable:
    @pytest.mark.parametrize("option", OPTIONS, ids=" ".join)
    def test_every_option_still_parses(self, option, capsys):
        assert main(["--list", *option]) == 0
        assert "pipeline" in capsys.readouterr().out

    def test_direct_transport_is_gone(self):
        with pytest.raises(SystemExit):
            main(["--list", "--transport", "direct"])

    def test_serve_stats_json(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        assert main(["serve", "--serve-requests", "4", "--stats-json", str(path)]) == 0
        assert set(json.loads(path.read_text())) == {"timings", "stats", "gateway", "cluster"}
        assert capsys.readouterr().err == f"wrote {path}\n"

    def test_pipeline_list_steps_opens_no_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["pipeline", "--smoke", "--list-steps", "--store", str(store)]) == 0
        assert "pipeline standard (5 steps):" in capsys.readouterr().out
        assert not store.exists()

    def test_pipeline_status_executes_nothing(self, tmp_path, capsys, monkeypatch):
        from repro.pipeline import Pipeline

        argv = ["pipeline", "--smoke", "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("--status executed a step")

        monkeypatch.setattr(Pipeline, "_execute", refuse)
        assert main([*argv, "--status"]) == 0
        assert "5/5 cached" in capsys.readouterr().out
