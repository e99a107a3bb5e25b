"""The serving fault matrix, one table: fault source x worker kind x surface.

Every row provokes one fault and reads the outcome from one serving surface.
A row asserts the typed error the surface hands back, its HTTP projection,
whether it may be retried, what the cluster counted and which event it
emitted.  A new seam or fault is one more row (or one more axis value), not
a new test.

The first rows are admission refusals, from both bounds that refuse:

* ``high_water`` — the frontend's depth check (``ClusterConfig.high_water``);
* ``queue_full`` — the shard's own bound (``max_pending``), reached when the
  depth check loses the race with it (scripted here by making the check read
  an empty shard).

A refusal is one thing on every surface: a
:class:`~repro.cluster.ShardOverloadError` (over the wire, code
``UNAVAILABLE``), HTTP 503, retryable, ``details`` naming the request, a
message naming the bound, ``errors.rejected`` up by exactly one and one
``admission_reject`` event.

The next fault source is a request naming no registered tenant.  It is one
:class:`~repro.errors.NotFoundError` on every surface: code ``NOT_FOUND``,
HTTP 404, not retryable, and the future of every ``submit`` holds it.  The
cluster refuses it at the frontend before any shard sees it, so its worker
axis has one value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoscale import FederatedBackend
from repro.cluster import WORKER_KINDS, ClusterConfig, ClusterService, ShardOverloadError
from repro.errors import ApiError, NotFoundError, UnavailableError
from repro.gateway import (
    ApiRequest,
    ClusterBackend,
    Gateway,
    GatewayClient,
    GatewayConfig,
    LoopbackTransport,
)
from repro.loadgen import FLEET_INPUT_SHAPE, synthetic_fleet
from repro.metrics.events import event_log
from repro.serve import PersonalizationService, PredictRequest

#: fault source (the ``admission_reject`` reason) -> what the message names
SOURCES = {"high_water": "high-water mark", "queue_full": "queue full"}


def _raised(call) -> ApiError:
    with pytest.raises(ApiError) as excinfo:
        call()
    return excinfo.value


def _over_the_wire(cluster, request, status: int = 503) -> ApiError:
    """The gateway over the loopback wire, retries off (one attempt, one
    refusal); the envelope's HTTP status is its error's ``http_status``."""
    gateway = Gateway(cluster, GatewayConfig(max_attempts=1))
    envelope = LoopbackTransport(gateway).send(
        ApiRequest("predict", request.to_dict(), request_id=request.request_id,
                   tenant=request.model_id)
    )
    assert not envelope.ok and envelope.http_status == status
    return envelope.to_error()


#: surface -> the error it hands back for a refused request.
SURFACES = {
    "submit_future": lambda cluster, request: cluster.submit(request).exception(timeout=30),
    "cluster_predict": lambda cluster, request: _raised(
        lambda: cluster.predict(request, timeout=30)),
    "cluster_predict_batch_item": lambda cluster, request: (
        cluster.predict_batch([request], timeout=30)[0]),
    "backend_predict": lambda cluster, request: _raised(
        lambda: ClusterBackend(cluster).predict(request, timeout=30)),
    "backend_predict_batch_item": lambda cluster, request: (
        ClusterBackend(cluster).predict_batch([request], timeout=30)[0]),
    "gateway_loopback": _over_the_wire,
}


@pytest.fixture(scope="module")
def fleet():
    return synthetic_fleet(tenants=1, seed=0)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("workers", WORKER_KINDS)
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_a_refusal_is_one_typed_error_on_every_surface(fleet, source, workers, surface):
    registry, (model_id,) = fleet
    inputs = np.random.default_rng(0).standard_normal((1, *FLEET_INPUT_SHAPE))
    held = PredictRequest(model_id, inputs, request_id="held")
    refused = PredictRequest(model_id, inputs, request_id="refused")
    config = ClusterConfig(shards=1, workers=workers, max_pending=1)
    with ClusterService(config, registry=registry) as cluster:
        assert cluster.stats()["errors"]["rejected"] == 0
        worker = cluster.worker(cluster.shard_ids()[0])
        worker.begin_window()  # the held predict stays pending: the shard is full
        staged = cluster.submit(held)
        if source == "queue_full":
            worker.pending = lambda: 0  # the depth check loses the race
        with event_log() as log:
            error = SURFACES[surface](cluster, refused)
        if source == "queue_full":
            del worker.pending
        worker.end_window()
        assert staged.result(timeout=30).status == 200
        rejected = cluster.stats()["errors"]["rejected"]

    if surface == "gateway_loopback":
        assert type(error) is UnavailableError and error.code == "UNAVAILABLE"
    else:
        assert isinstance(error, ShardOverloadError)
    assert error.http_status == 503
    assert error.retryable
    assert SOURCES[source] in error.message
    assert error.details == {"model_id": model_id, "request_id": "refused", "status": 503}
    assert rejected == 1
    events = log.events("admission_reject")
    assert len(events) == 1
    assert events[0].fields["reason"] == source and events[0].fields["source"] == "cluster"


#: surface -> the error it hands back for a request naming no tenant, given
#: a local service and a cluster over the same registry.
UNKNOWN_ID_SURFACES = {
    "service_predict": lambda service, cluster, request: _raised(
        lambda: service.predict(request)),
    "service_predict_batch": lambda service, cluster, request: _raised(
        lambda: service.predict_batch([request])),
    "service_engine": lambda service, cluster, request: _raised(
        lambda: service.engine(request.model_id)),
    "cluster_predict": lambda service, cluster, request: _raised(
        lambda: cluster.predict(request, timeout=30)),
    "cluster_engine": lambda service, cluster, request: _raised(
        lambda: cluster.engine(request.model_id)),
    "backend_predict": lambda service, cluster, request: _raised(
        lambda: ClusterBackend(cluster).predict(request, timeout=30)),
    "federated_predict": lambda service, cluster, request: _raised(
        lambda: FederatedBackend({"solo": cluster}).predict(request, timeout=30)),
    "gateway_loopback": lambda service, cluster, request: _over_the_wire(
        cluster, request, status=404),
    "service_submit": lambda service, cluster, request: (
        service.submit(request).exception(timeout=30)),
    "federated_submit": lambda service, cluster, request: (
        FederatedBackend({"solo": cluster}).submit(request).exception(timeout=30)),
    "client_submit": lambda service, cluster, request: GatewayClient(
        LoopbackTransport(Gateway(cluster))).submit(request).exception(timeout=30),
}


@pytest.mark.parametrize("surface", sorted(UNKNOWN_ID_SURFACES))
def test_an_unknown_model_id_is_not_found_on_every_surface(fleet, surface):
    registry, _ = fleet
    inputs = np.random.default_rng(0).standard_normal((1, *FLEET_INPUT_SHAPE))
    ghost = PredictRequest("ghost", inputs, request_id="ghost-0")
    service = PersonalizationService(registry=registry)
    with ClusterService(ClusterConfig(shards=1), registry=registry) as cluster:
        error = UNKNOWN_ID_SURFACES[surface](service, cluster, ghost)
        assert cluster.stats()["errors"]["rejected"] == 0

    assert isinstance(error, NotFoundError)
    assert error.code == "NOT_FOUND" and error.http_status == 404
    assert not error.retryable
    assert "ghost" in error.message
