"""Seeded property tests for the versioned rollout plane.

Mirrors ``test_router_properties.py``: 50 seeded trials per invariant, each
drawing its inputs from ``np.random.default_rng(seed)``, checking

* the seeded hash split converges to the configured canary fraction and is
  a pure (byte-stable) function of ``(seed, tenant, request_id)``;
* shadow mode never lets the canary touch the primary response — at the
  table level (serve is always stable) and byte-wise through a real
  gateway stack;
* :meth:`RolloutTable.clear` (rollback) is atomic under concurrent
  requests: any decision started after ``clear`` returns serves stable.
"""

import threading

import numpy as np
import pytest

from repro.gateway.gateway import Gateway, GatewayConfig
from repro.gateway.wire import ApiRequest
from repro.lifecycle import RolloutMiddleware, RolloutTable, split_arm
from repro.loadgen.popularity import ClassDriftPopularity
from repro.lifecycle.fleet import drift_fleet
from repro.serve.service import PersonalizationService, ServiceConfig
from repro.serve.types import PredictResponse

TRIALS = list(range(50))


class TestSplitConvergence:
    """The hash split is unbiased and deterministic."""

    @pytest.mark.parametrize("seed", TRIALS)
    def test_split_fraction_converges(self, seed):
        rng = np.random.default_rng(seed)
        fraction = float(rng.uniform(0.2, 0.8))
        tenant = f"tenant-{int(rng.integers(0, 1000))}"
        n = 400
        canary = sum(
            split_arm(seed, tenant, f"req-{i}", fraction) == "canary"
            for i in range(n)
        )
        # Binomial std at n=400 is <= 0.025; 0.12 is beyond 4 sigma.
        assert abs(canary / n - fraction) < 0.12

    @pytest.mark.parametrize("seed", TRIALS)
    def test_split_is_pure_and_seed_sensitive(self, seed):
        rng = np.random.default_rng(seed)
        fraction = float(rng.uniform(0.3, 0.7))
        tenant = f"tenant-{int(rng.integers(0, 1000))}"
        ids = [f"req-{int(rng.integers(0, 10_000))}" for _ in range(64)]
        arms = [split_arm(seed, tenant, rid, fraction) for rid in ids]
        assert arms == [split_arm(seed, tenant, rid, fraction) for rid in ids]
        # A different seed reshuffles at least one assignment.
        reshuffled = [split_arm(seed + 1, tenant, rid, fraction) for rid in ids]
        assert arms != reshuffled

    @pytest.mark.parametrize("seed", TRIALS)
    def test_decision_log_byte_stable_across_tables(self, seed):
        rng = np.random.default_rng(seed)
        ids = [f"req-{int(rng.integers(0, 10_000))}-{i}" for i in range(48)]
        logs = []
        for _ in range(2):
            table = RolloutTable()
            table.start("t", stable="t", canary="t@v2",
                        fraction=0.5, seed=seed)
            for rid in ids:
                table.decide("t", rid)
            logs.append(table.decision_log_jsonl())
        assert logs[0] == logs[1]


class TestShadowIsolation:
    """Shadow mode never changes what the user is served."""

    @pytest.mark.parametrize("seed", TRIALS)
    def test_shadow_decisions_always_serve_stable(self, seed):
        rng = np.random.default_rng(seed)
        fraction = float(rng.uniform(0.2, 0.9))
        table = RolloutTable()
        table.start("t", stable="t", canary="t@v2",
                    fraction=fraction, mode="shadow", seed=seed)
        shadowed = 0
        for i in range(128):
            decision = table.decide("t", f"req-{i}")
            assert decision.arm == "stable"
            assert decision.serve == "t"
            if decision.shadow is not None:
                assert decision.shadow == "t@v2"
                shadowed += 1
        assert 0 < shadowed < 128  # the hash actually split the stream

    def test_shadow_rollout_is_byte_invisible_through_gateway(self):
        """Primary logits with a shadow canary == logits with no rollout."""
        registry, (tenant,) = drift_fleet(
            ClassDriftPopularity(), tenants=1, seed=0
        )
        table = RolloutTable()
        service = PersonalizationService(
            ServiceConfig(cache_capacity=4), registry=registry
        )
        gateway = Gateway(
            service,
            GatewayConfig(),
            middlewares=[RolloutMiddleware(table, resolve=registry.resolve)],
        )
        inputs = np.random.default_rng(0).normal(size=(1, 3, 12, 12)).tolist()

        def predict(request_id):
            response = gateway.handle(
                ApiRequest(
                    "predict",
                    {"model_id": tenant, "inputs": inputs},
                    request_id=request_id,
                    tenant=tenant,
                )
            )
            assert response.ok, response.error
            body = PredictResponse.from_dict(response.payload["response"])
            return body.logits.tobytes(), body.model_id

        ids = [f"req-{i}" for i in range(16)]
        baseline = [predict(rid) for rid in ids]

        v2 = registry.register_version(
            tenant, registry.materialize(tenant), metadata={"classes": [3, 4, 5]}
        )
        table.start(tenant, stable=tenant, canary=v2,
                    fraction=0.5, mode="shadow", seed=0)
        shadowed = [predict(rid) for rid in ids]
        assert shadowed == baseline
        assert all(served == tenant for _, served in shadowed)
        counts = table.counts()
        assert counts["shadow"] > 0 and counts["canary"] == 0


class TestRollbackAtomicity:
    """After clear() returns, no decision can route to the canary."""

    @pytest.mark.parametrize("seed", TRIALS)
    def test_clear_atomic_under_concurrent_decisions(self, seed):
        table = RolloutTable(log_decisions=False)
        table.start("t", stable="t", canary="t@v2", fraction=0.9, seed=seed)
        cleared = threading.Event()
        go = threading.Event()
        violations = []

        def worker(wid):
            go.wait()
            for i in range(200):
                after_clear = cleared.is_set()
                decision = table.decide("t", f"req-{wid}-{i}")
                # A decision STARTED after clear() returned must find no
                # entry; one that raced the clear may serve either side,
                # but can never be half-made (the table lock covers both).
                if after_clear and decision is not None:
                    violations.append(decision)

        threads = [
            threading.Thread(target=worker, args=(wid,)) for wid in range(4)
        ]
        for thread in threads:
            thread.start()
        go.set()
        table.clear("t")
        cleared.set()
        for thread in threads:
            thread.join()
        assert violations == []
        assert table.entry("t") is None

    @pytest.mark.parametrize("seed", TRIALS)
    def test_decisions_after_clear_seq_all_stable(self, seed):
        """Seq-ordered audit: every canary decision precedes the rollback."""
        table = RolloutTable()
        table.start("t", stable="t", canary="t@v2", fraction=0.9, seed=seed)
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                table.decide("t", f"bg-{i}")
                i += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        while table.seq < 20:  # let some canary traffic through
            pass
        table.clear("t")
        cut = table.seq
        for i in range(50):
            assert table.decide("t", f"post-{i}") is None
        stop.set()
        thread.join()
        assert all(
            decision.serve == "t"
            for decision in table.decisions
            if decision.seq >= cut
        )
