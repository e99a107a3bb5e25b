"""Property-style randomized trials for :class:`FederatedBackend`.

Mirrors ``test_router_properties.py``: ≥50 seeded trials per invariant, all
draws from :func:`numpy.random.default_rng`, so every run exercises the
identical membership/tenant/traffic sequences.  The invariants are the
federation's affinity contract:

* **sticky affinity** — repeated traffic for a tenant lands on exactly one
  member, regardless of request interleaving;
* **never split under churn** — across random ``add_member`` /
  ``remove_member`` interleavings, a tenant's serving member changes *only*
  when its previous home left the federation (and then moves wholesale);
* **spillover discipline** — a request leaves its home member only on
  ``RESOURCE_EXHAUSTED``; ``UNAVAILABLE`` (and anything else) propagates
  without touching another member, and spillover never migrates the home;
* **schema-clean merging** — the federated ``stats()`` passes
  ``assert_stats_schema`` through the gateway, with member counters summed.

The stress tier (``-m stress``) closes the loop for real: a shard killed
mid-flight under a live autoscaling cluster, with zero hangs.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.autoscale import CapacityGate, FederatedBackend
from repro.errors import (
    NotFoundError,
    ResourceExhaustedError,
    UnavailableError,
)
from repro.gateway import ServingAPI
from repro.metrics import EventLog, event_log
from repro.serve.types import PredictRequest

TRIALS = list(range(50))


class FakeMember(ServingAPI):
    """A scriptable ServingAPI member: records who served what.

    ``fail_with`` (when set) makes every predict raise that error class —
    the knob the spillover-discipline trials flip per member.
    """

    name = "fake-member"

    def __init__(self, member_name: str, model_ids: Sequence[str] = ()):
        self.member_name = member_name
        self.known: List[str] = list(model_ids)
        self.served: List[str] = []  #: model_id per predict answered here
        self.fail_with: Optional[type] = None

    def personalize(self, request) -> str:
        model_id = f"user-{request.user_id}"
        if model_id not in self.known:
            self.known.append(model_id)
        return model_id

    def predict(self, request: PredictRequest, timeout=None):
        if self.fail_with is not None:
            raise self.fail_with(f"{self.member_name} scripted failure")
        if self.known and request.model_id not in self.known:
            raise NotFoundError(f"unknown model {request.model_id}")
        self.served.append(request.model_id)
        return SimpleNamespace(
            request_id=request.request_id,
            model_id=request.model_id,
            served_by=self.member_name,
            status=200,
        )

    def predict_batch(self, requests, timeout=None):
        results = []
        for request in requests:
            try:
                results.append(self.predict(request, timeout))
            except Exception as exc:  # ApiError subclasses ride in the list
                results.append(exc)
        return results

    def stats(self) -> Dict[str, object]:
        return {
            "latency": {"count": len(self.served), "mean_ms": 1.0,
                        "max_ms": 2.0},
            "cache": {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0},
            "queue": {"pending": 0, "max_depth": 0},
            "errors": {"failed": 0, "rejected": 0},
        }

    def engine(self, model_id: str):
        raise NotFoundError(model_id)

    def model_ids(self) -> List[str]:
        return sorted(self.known)


def _request(model_id: str, i: int = 0) -> PredictRequest:
    return PredictRequest(model_id, np.zeros((1, 3, 12, 12)),
                          request_id=f"{model_id}-{i}")


def _federation(n_members: int):
    members = {f"member-{i}": FakeMember(f"member-{i}") for i in range(n_members)}
    return FederatedBackend(members), members


class TestStickyAffinity:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_each_tenant_is_served_by_exactly_one_member(self, seed):
        rng = np.random.default_rng(seed)
        fed, members = _federation(int(rng.integers(2, 6)))
        tenants = [f"tenant-{rng.integers(0, 2**32):08x}-{i}"
                   for i in range(int(rng.integers(1, 30)))]
        for i in range(120):
            tenant = tenants[int(rng.integers(0, len(tenants)))]
            fed.predict(_request(tenant, i))
        # Across all interleavings, nobody's traffic ever split.
        owners: Dict[str, set] = {}
        for member_name, member in members.items():
            for model_id in member.served:
                owners.setdefault(model_id, set()).add(member_name)
        assert owners, "no traffic recorded"
        assert all(len(who) == 1 for who in owners.values())
        # And the assignment matches the federation's own home table.
        homes = fed.homes()
        for model_id, who in owners.items():
            assert homes[model_id] == next(iter(who))

    @pytest.mark.parametrize("seed", TRIALS[:10])
    def test_assignment_is_deterministic_across_instances(self, seed):
        rng = np.random.default_rng(seed)
        tenants = [f"tenant-{seed}-{i}" for i in range(int(rng.integers(2, 40)))]
        picks = []
        for _ in range(2):
            fed, _ = _federation(4)
            for tenant in tenants:
                fed.predict(_request(tenant))
            picks.append(fed.homes())
        assert picks[0] == picks[1]


class TestNeverSplitUnderChurn:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_home_moves_only_when_its_member_leaves(self, seed):
        rng = np.random.default_rng(seed)
        fed, members = _federation(3)
        next_member = len(members)
        tenants = [f"tenant-{seed}-{i}" for i in range(12)]
        last_home: Dict[str, str] = {}
        for step in range(80):
            action = rng.random()
            if action < 0.08:  # join a fresh member
                member_name = f"member-{next_member}"
                next_member += 1
                fed.add_member(member_name, FakeMember(member_name))
            elif action < 0.16 and len(fed.member_names()) > 2:
                victim = fed.member_names()[
                    int(rng.integers(0, len(fed.member_names())))
                ]
                fed.remove_member(victim)
            else:
                tenant = tenants[int(rng.integers(0, len(tenants)))]
                response = fed.predict(_request(tenant, step))
                served_by = response.served_by
                previous = last_home.get(tenant)
                if previous is not None and previous in fed.member_names():
                    # The affinity contract: while the home is alive, the
                    # tenant never visits anybody else.
                    assert served_by == previous
                last_home[tenant] = served_by

    @pytest.mark.parametrize("seed", TRIALS[:10])
    def test_join_does_not_rebalance_existing_tenants(self, seed):
        fed, _ = _federation(2)
        tenants = [f"tenant-{seed}-{i}" for i in range(10)]
        for tenant in tenants:
            fed.predict(_request(tenant))
        before = fed.homes()
        fed.add_member("member-late", FakeMember("member-late"))
        for i, tenant in enumerate(tenants):
            fed.predict(_request(tenant, 1000 + i))
        after = fed.homes()
        assert all(after[tenant] == before[tenant] for tenant in tenants)


class TestSpilloverDiscipline:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_spillover_happens_only_on_resource_exhausted(self, seed):
        rng = np.random.default_rng(seed)
        fed, members = _federation(int(rng.integers(2, 5)))
        tenant = f"tenant-{seed}"
        home = members[fed.predict(_request(tenant)).served_by]
        others = [m for m in members.values() if m is not home]
        served_elsewhere_before = [len(m.served) for m in others]

        # UNAVAILABLE propagates; nobody else is consulted.
        home.fail_with = UnavailableError
        with pytest.raises(UnavailableError):
            fed.predict(_request(tenant, 1))
        assert [len(m.served) for m in others] == served_elsewhere_before
        assert fed.spillovers == 0

        # RESOURCE_EXHAUSTED spills to exactly one other member...
        home.fail_with = ResourceExhaustedError
        with event_log(EventLog()) as log:
            response = fed.predict(_request(tenant, 2))
        assert response.served_by != home.member_name
        spilled = [len(m.served) for m in others]
        assert sum(spilled) == sum(served_elsewhere_before) + 1
        assert fed.spillovers == 1
        events = log.events("spillover")
        assert len(events) == 1
        assert events[0].fields["home"] == home.member_name
        assert events[0].fields["via"] == response.served_by

        # ...and does NOT migrate the home: once capacity returns, traffic
        # goes home again.
        home.fail_with = None
        assert fed.predict(_request(tenant, 3)).served_by == home.member_name
        assert fed.homes()[tenant] == home.member_name

    @pytest.mark.parametrize("seed", TRIALS[:10])
    def test_whole_federation_exhausted_propagates(self, seed):
        fed, members = _federation(3)
        tenant = f"tenant-{seed}"
        fed.predict(_request(tenant))
        for member in members.values():
            member.fail_with = ResourceExhaustedError
        with pytest.raises(ResourceExhaustedError):
            fed.predict(_request(tenant, 1))
        assert fed.spillovers == 0

    def test_capacity_gate_trips_deterministically(self):
        inner = FakeMember("gated")
        gate = CapacityGate(inner)
        gate.trip(2)
        for i in range(2):
            with pytest.raises(ResourceExhaustedError):
                gate.predict(_request("tenant-g", i))
        assert gate.predict(_request("tenant-g", 9)).served_by == "gated"
        assert gate.exhausted == 2

    def test_predict_batch_spills_per_item(self):
        fed, members = _federation(2)
        a, b = "tenant-a", "tenant-b2"
        # Establish homes, then gate one of them shut via a CapacityGate
        # members swap: rebuild the federation with the home gated.
        home_a = fed.predict(_request(a)).served_by
        fed.predict(_request(b))
        gated = CapacityGate(FakeMember(home_a))
        fed2 = FederatedBackend(
            {name: (gated if name == home_a else FakeMember(name))
             for name in members}
        )
        gated.trip(1)
        results = fed2.predict_batch([_request(a, 1), _request(b, 1)])
        assert all(getattr(r, "status", None) == 200 for r in results)
        assert fed2.spillovers == 1


class TestRehomeAcrossSeparateRegistries:
    def test_predict_and_engine_move_the_home_to_the_member_that_has_it(
        self, monkeypatch
    ):
        """Members with their own registries: each tenant lives only on the
        member the ring does *not* pick.  Both entry points reach the one
        re-home path, move the home there for good, and count it once."""

        class RegistryMember(FakeMember):
            def engine(self, model_id: str):
                if model_id not in self.known:
                    raise NotFoundError(model_id)
                return (self.member_name, model_id)

        names = ("east", "west")
        probe = FederatedBackend({name: FakeMember(name) for name in names})
        holder = {
            tenant: next(name for name in names if name != probe._home_for(tenant))
            for tenant in ("tenant-a", "tenant-b")
        }
        fed = FederatedBackend({
            name: RegistryMember(
                name, [f"only-{name}"] + [t for t, h in holder.items() if h == name]
            )
            for name in names
        })
        reached: List[str] = []
        rehome = fed._rehome
        monkeypatch.setattr(
            fed, "_rehome",
            lambda model_id, *rest: reached.append(model_id) or rehome(model_id, *rest),
        )

        assert fed.predict(_request("tenant-a")).served_by == holder["tenant-a"]
        assert fed.engine("tenant-b") == (holder["tenant-b"], "tenant-b")
        assert reached == ["tenant-a", "tenant-b"]
        assert fed.homes() == holder
        assert fed.rehomes == 2 and fed.stats()["federation"]["rehomes"] == 2

        # Settled: the next calls go straight to the new home.
        assert fed.predict(_request("tenant-a", 1)).served_by == holder["tenant-a"]
        assert fed.engine("tenant-b") == (holder["tenant-b"], "tenant-b")
        assert reached == ["tenant-a", "tenant-b"] and fed.rehomes == 2

        # No member has the tenant: the home's NotFoundError propagates.
        with pytest.raises(NotFoundError):
            fed.predict(_request("ghost"))
        assert fed.rehomes == 2


class TestMembershipAndMergedStats:
    def test_membership_validation(self):
        fed, _ = _federation(2)
        with pytest.raises(ValueError):
            fed.add_member("member-0", FakeMember("member-0"))  # duplicate
        with pytest.raises(KeyError):
            fed.remove_member("nope")
        fed.remove_member("member-1")
        with pytest.raises(ValueError):
            fed.remove_member("member-0")  # never below one member

    def test_merged_stats_are_schema_clean_and_summed(self):
        from repro.cluster.telemetry import assert_stats_schema

        fed, members = _federation(3)
        for i in range(12):
            fed.predict(_request(f"tenant-{i % 5}", i))
        stats = assert_stats_schema(fed.stats())
        assert stats["latency"]["count"] == 12
        assert stats["members"] == 3
        assert stats["federation"]["tenants"] == 5
        assert set(stats["per_member"]) == set(members)

    def test_federation_through_a_real_gateway_over_real_clusters(self):
        """Two live ClusterServices federated and fronted by the gateway:
        merged stats stay schema-clean and every prediction routes."""
        from repro.cluster import ClusterConfig, ClusterService
        from repro.cluster.telemetry import assert_stats_schema
        from repro.gateway import ClusterBackend, Gateway
        from repro.loadgen import synthetic_fleet

        registry, model_ids = synthetic_fleet(tenants=4, seed=0)
        config = ClusterConfig(shards=2, cache_capacity=2)
        with ClusterService(config, registry=registry) as east:
            with ClusterService(config, registry=registry) as west:
                fed = FederatedBackend(
                    {"east": ClusterBackend(east), "west": ClusterBackend(west)}
                )
                gateway = Gateway(fed)
                rng = np.random.default_rng(0)
                for i in range(12):
                    model_id = model_ids[i % len(model_ids)]
                    response = fed.predict(
                        PredictRequest(model_id, rng.normal(size=(1, 3, 12, 12)),
                                       request_id=f"fed-{i}")
                    )
                    assert response.status == 200
                stats = gateway.stats()
                assert_stats_schema(stats)
                assert stats["latency"]["count"] >= 12
                assert stats["shards"] == 4
                # Shared-registry members both know every id; the union dedups.
                assert fed.model_ids() == sorted(model_ids)
                # Affinity held against the live clusters too.
                homes = fed.homes()
                assert set(homes.values()) <= {"east", "west"}


@pytest.mark.stress
class TestAutoscaledChaosStress:
    def test_shard_killed_mid_flight_under_autoscaling_zero_hangs(self):
        """The satellite stress gate: the shard-failure chaos scenario runs
        against a live cluster while the autoscaler actuates it through the
        telemetry poller — every request resolves, nothing hangs."""
        from repro.experiments.loadgen_cli import LoadgenConfig, run_loadgen

        report, _ = run_loadgen(
            LoadgenConfig(
                scenario="shard-failure",
                shards=2,
                seed=0,
                time_scale=1.0,
                autoscale=True,
                max_shards=4,
                poll_interval_s=0.02,
            )
        )
        assert report.hung == 0
        resolved = report.completed + report.rejected + report.failed
        assert resolved == report.requests
        assert report.autoscale_summary is not None
        assert report.autoscale_summary["ticks"] >= 1
