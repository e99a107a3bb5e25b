"""Tests for repro.pipeline: content-addressed, resumable experiment DAGs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.pipeline import (
    Pipeline,
    PipelineStore,
    Step,
    build_pipeline,
    canonical_dumps,
    code_fingerprint,
    content_key,
    pipeline_names,
    standard_chain,
)


def counting_steps(calls):
    """A small 3-step diamond-free chain that counts executions."""

    def produce(ctx):
        calls.append("produce")
        ctx.save_arrays("data", values=np.arange(ctx.params["n"], dtype=np.float64))
        return {"n": ctx.params["n"]}

    def double(ctx):
        calls.append("double")
        values = ctx.load_arrays("produce", "data")["values"]
        ctx.save_arrays("data", values=values * ctx.params["factor"])
        return {"total": float((values * ctx.params["factor"]).sum())}

    def summarize(ctx):
        calls.append("summarize")
        return {"total": ctx.inputs["double"]["total"], "n": ctx.inputs["produce"]["n"]}

    return [
        Step("produce", produce, params={"n": 4}),
        Step("double", double, params={"factor": 3}, deps=("produce",)),
        Step("summarize", summarize, deps=("produce", "double")),
    ]


class TestFingerprint:
    def test_canonical_dumps_is_sorted_and_compact(self):
        assert canonical_dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_canonical_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_content_key_order_invariant(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_code_fingerprint_tracks_source(self):
        def f(x):
            return x + 1

        def g(x):
            return x + 2

        assert code_fingerprint(f) != code_fingerprint(g)
        assert code_fingerprint(f) == code_fingerprint(f)


class TestPipeline:
    @pytest.mark.parametrize("name", ["counting", *pipeline_names()])
    def test_rerun_is_all_verified_hits_byte_identical(self, tmp_path, name):
        """The toy chain (whose bodies count their calls) and every named
        pipeline at smoke size: run 1 executes each step, run 2 over the same
        store executes none and reproduces every output hash."""
        calls = []

        def build():
            store = PipelineStore(tmp_path / "store")
            if name == "counting":
                return Pipeline(counting_steps(calls), store)
            return build_pipeline(name, store, smoke=True)

        first = build().run()
        assert first.ran == len(first.results) and first.hits == 0
        executed = list(calls)

        second = build().run()
        assert second.all_hits and second.ran == 0
        assert calls == executed  # nothing executed again
        for before, after in zip(first.results, second.results):
            assert after.name == before.name
            assert after.output_sha256 == before.output_sha256
            assert after.output == before.output

    def test_param_edit_invalidates_step_and_downstream_only(self, tmp_path):
        calls = []
        store = PipelineStore(tmp_path / "store")
        Pipeline(counting_steps(calls), store).run()
        calls.clear()

        edited = counting_steps(calls)
        edited[1] = Step(
            "double", edited[1].fn, params={"factor": 5}, deps=("produce",)
        )
        summary = Pipeline(edited, store).run()
        assert summary["produce"].hit
        assert not summary["double"].hit
        assert not summary["summarize"].hit  # downstream key changed too
        assert calls == ["double", "summarize"]
        assert summary["summarize"].output["total"] == pytest.approx(0 + 5 + 10 + 15)

    def test_corrupted_entry_is_evicted_and_rerun(self, tmp_path):
        calls = []
        store = PipelineStore(tmp_path / "store")
        first = Pipeline(counting_steps(calls), store).run()
        # Tamper with a committed artifact: verification must evict + re-run.
        artifact = first["produce"].artifact_dir / "data.npz"
        artifact.write_bytes(b"garbage")
        calls.clear()
        summary = Pipeline(counting_steps(calls), store).run()
        assert not summary["produce"].hit
        assert "produce" in calls
        # Downstream keys were unchanged, so they stay hits.
        assert summary["double"].hit and summary["summarize"].hit

    def test_interrupted_run_resumes_from_completed_steps(self, tmp_path):
        calls = []
        store = PipelineStore(tmp_path / "store")
        steps = counting_steps(calls)

        def boom(ctx):
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            Pipeline([steps[0], steps[1], Step("summarize", boom, deps=("produce", "double"))], store).run()
        calls.clear()
        summary = Pipeline(counting_steps(calls), store).run()
        assert summary["produce"].hit and summary["double"].hit
        assert calls == ["summarize"]

    def test_force_reruns_without_invalidating_downstream(self, tmp_path):
        calls = []
        store = PipelineStore(tmp_path / "store")
        Pipeline(counting_steps(calls), store).run()
        calls.clear()
        summary = Pipeline(counting_steps(calls), store).run(force=["double"])
        assert summary["produce"].hit
        assert not summary["double"].hit
        assert summary["summarize"].hit  # same key, still cached
        assert calls == ["double"]

    def test_status_reports_residency_without_executing(self, tmp_path):
        calls = []
        store = PipelineStore(tmp_path / "store")
        pipeline = Pipeline(counting_steps(calls), store)
        assert [row["cached"] for row in pipeline.status()] == [False] * 3
        pipeline.run()
        assert [row["cached"] for row in pipeline.status()] == [True] * 3
        assert len(calls) == 3

    def test_validation_errors(self, tmp_path):
        store = PipelineStore(tmp_path / "store")
        fn = lambda ctx: {}
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline([Step("a", fn), Step("a", fn)], store)
        with pytest.raises(ValueError, match="unknown step"):
            Pipeline([Step("a", fn, deps=("missing",))], store)
        with pytest.raises(ValueError, match="cycle"):
            Pipeline([Step("a", fn, deps=("b",)), Step("b", fn, deps=("a",))], store)
        with pytest.raises(ValueError, match="path-safe"):
            Step("a/b", fn)

    def test_non_dict_output_rejected_and_staging_discarded(self, tmp_path):
        store = PipelineStore(tmp_path / "store")
        with pytest.raises(TypeError, match="JSON-compatible dict"):
            Pipeline([Step("bad", lambda ctx: 42)], store).run()
        assert not store.has("bad", Pipeline([Step("bad", lambda ctx: 42)], store).key_of("bad"))


class TestStandardChain:
    def test_registry_contains_named_pipelines(self):
        names = pipeline_names()
        assert "standard" in names and "fig1" in names and "loadgen-sweep" in names

    def test_standard_chain_runs_and_resumes(self, tmp_path):
        store = PipelineStore(tmp_path / "store")
        steps = standard_chain(tenants=2, rounds=1, batch=1)
        first = Pipeline(steps, store).run()
        assert first.ran == len(steps)
        score = first["score"].output
        assert set(score["precision_at_k"]) == {"1", "3"}
        # Byte-identical resume from a fresh Pipeline over the same store.
        second = Pipeline(standard_chain(tenants=2, rounds=1, batch=1), store).run()
        assert second.all_hits
        assert second["replay"].output["logits_sha256"] == first["replay"].output["logits_sha256"]


class TestUniversalModelStore:
    def test_universal_model_cached_on_disk_by_content_key(self, tmp_path):
        """Trained once, persisted under its content key, and handed out the
        same way from the memory tier and the disk tier: a fresh ``build_model``
        loaded from the cached state — same weights, same mode, no forward
        caches or gradients left from training, and nothing a caller does to
        its copy reaches the cache."""
        from repro.serve import service as serve_service
        from repro.serve import set_universal_model_store

        store = PipelineStore(tmp_path / "models")
        spec = dict(
            model_name="resnet_tiny",
            dataset_preset="synthetic-tiny",
            pretrain_epochs=1,
            num_classes=8,
            input_size=12,
            seed=0,
        )
        serve_service.clear_universal_model_cache()
        set_universal_model_store(store)
        try:
            model, accuracy = serve_service.universal_model(**spec)
            assert store.keys("universal-model"), "trained model not persisted"
            state = model.state_dict()
            for param in model.parameters():  # a caller pruning its copy, in place
                param.data *= 0.0
            for _, buf in model.named_buffers():
                buf += 1.0
            from_memory, accuracy1 = serve_service.universal_model(**spec)
            # Drop the in-memory tier: the next call must rebuild from disk.
            serve_service.clear_universal_model_cache()
            from_store, accuracy2 = serve_service.universal_model(**spec)
            assert accuracy1 == accuracy
            assert accuracy2 == pytest.approx(accuracy)
            assert len(serve_service._UNIVERSAL_CACHE) == 1
            for again in (from_memory, from_store):
                assert again.training is True
                state2 = again.state_dict()
                assert set(state) == set(state2)
                for key in state:
                    np.testing.assert_array_equal(state[key], state2[key])
                for name, module in again.named_modules():
                    assert not getattr(module, "_cache", None), f"{name} kept a forward cache"
                assert all(p.grad is None for p in again.parameters())
        finally:
            set_universal_model_store(None)
            serve_service.clear_universal_model_cache()


class TestFigurePoints:
    @pytest.mark.parametrize("preset, point", [
        # 2:4 runs after 3:4 in its sweep; the in-process runner this replaced
        # read 0.5417 alone and 0.5000 after 3:4 at tiny scale.
        ("fig1", ".2of4"),
        # Fig. 3's CRISP arm runs after the block arm at its sparsity.
        ("fig3", ".2of4+B8@0.75"),
    ])
    def test_a_point_depends_only_on_its_own_parameters(self, tmp_path, preset, point):
        """One sweep point run alone and inside its sweep, in two stores:
        byte-equal outputs, because each point builds its own loaders."""
        from repro.experiments import ExperimentScale
        from repro.pipeline.figures import fig1_preset, fig3_preset

        scale = ExperimentScale("micro", "synthetic-tiny", "resnet_tiny", 1, 1, 1)
        sweep = {
            "fig1": lambda: fig1_preset(models=("resnet_tiny",), nm_ratios=((3, 4), (2, 4)),
                                        num_user_classes=3, scale=scale),
            "fig3": lambda: fig3_preset(sparsity_levels=(0.75,), block_sizes=(8,),
                                        num_user_classes=3, scale=scale),
        }[preset]()
        (target,) = [step for step in sweep if step.name.endswith(point)]
        alone = [step for step in sweep if step.name in (*target.deps, target.name)]
        assert len(alone) == 2 and len(sweep) > 3
        whole = Pipeline(sweep, PipelineStore(tmp_path / "sweep")).run()
        lone = Pipeline(alone, PipelineStore(tmp_path / "alone")).run()
        assert whole.results[-2].name == target.name  # last, after every other point
        assert lone[target.name].output_sha256 == whole[target.name].output_sha256
        assert lone[target.name].output == whole[target.name].output
