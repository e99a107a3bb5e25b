"""Wire round-trip guarantees of the Serving API v2 envelopes.

Property-style over seeded payloads: every envelope shape (requests,
success / failure / partial-result responses) and every taxonomy error must
survive ``to_json`` / ``from_json`` byte-stably — decode(encode(x)) encodes
to the identical bytes, and the typed objects come back equal.  The same
harness covers the one array codec (``repro.records.pack`` / ``unpack``)
every array field rides: bit-exact for any finite array, the old nested-list
form still decoding to the same bytes, malformed packed objects refused typed.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlineExceededError,
    ERROR_CODES,
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    UnavailableError,
    error_from_dict,
    error_from_exception,
)
from repro.cluster.shard import ShardKilledError, ShardOverloadError
from repro.cluster.telemetry import LatencyHistogram
from repro.gateway import API_VERSION, ApiRequest, ApiResponse, Gateway
from repro.records import canonical_json, pack, unpack
from repro.serve.types import PredictRequest, PredictResponse

SEEDS = range(8)


def _random_predict_payload(rng) -> dict:
    """A seeded PredictRequest wire dict (the payload class envelopes carry)."""
    batch = rng.standard_normal((int(rng.integers(1, 3)), 3, 4, 4))
    request = PredictRequest(
        model_id=f"tenant-{int(rng.integers(0, 16))}",
        inputs=batch,
        request_id=f"req-{int(rng.integers(0, 10**6)):06d}",
    )
    return request.to_dict()


def _random_request(rng) -> ApiRequest:
    method = ["predict", "predict_batch", "stats", "health"][int(rng.integers(0, 4))]
    if method == "predict":
        payload = _random_predict_payload(rng)
    elif method == "predict_batch":
        payload = {"requests": [_random_predict_payload(rng) for _ in range(3)]}
    else:
        payload = {}
    return ApiRequest(
        method=method,
        payload=payload,
        request_id=f"call-{int(rng.integers(0, 10**6)):06d}",
        tenant=f"tenant-{int(rng.integers(0, 4))}",
        deadline_ms=float(rng.integers(1, 5000)) if rng.random() < 0.5 else None,
    )


class TestRequestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_stable(self, seed):
        rng = np.random.default_rng(seed)
        request = _random_request(rng)
        encoded = request.to_json()
        decoded = ApiRequest.from_json(encoded)
        assert decoded == request
        assert decoded.to_json() == encoded  # bytes, not just equality

    def test_defaults_fill_in(self):
        decoded = ApiRequest.from_json(json.dumps({"method": "health"}))
        assert decoded.version == API_VERSION
        assert decoded.tenant == "default"
        assert decoded.payload == {} and decoded.deadline_ms is None

    def test_malformed_json_is_invalid_argument(self):
        with pytest.raises(InvalidArgumentError):
            ApiRequest.from_json("{not json")
        with pytest.raises(InvalidArgumentError):
            ApiRequest.from_json(json.dumps({"payload": {}}))  # no method
        with pytest.raises(InvalidArgumentError):
            ApiRequest.from_json(json.dumps(["an", "array"]))

    def test_negative_deadline_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ApiRequest("predict", deadline_ms=-1)


class TestResponseRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_success_byte_stable(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 5))
        response = PredictResponse(
            request_id="req-000001",
            model_id="tenant-1",
            logits=logits,
            classes=logits.argmax(axis=1),
            batched_with=int(rng.integers(1, 5)),
        )
        envelope = ApiResponse.success(
            ApiRequest("predict", request_id="call-1"),
            {"response": response.to_dict()},
        )
        encoded = envelope.to_json()
        decoded = ApiResponse.from_json(encoded)
        assert decoded == envelope
        assert decoded.to_json() == encoded
        # The carried payload reconstructs the typed response bit-exactly
        # (float64 repr round-trips through JSON losslessly).
        rebuilt = PredictResponse.from_dict(decoded.payload["response"])
        assert np.array_equal(rebuilt.logits, logits)
        assert rebuilt.logits.dtype == logits.dtype

    @pytest.mark.parametrize("code,cls", sorted(ERROR_CODES.items()))
    def test_failure_byte_stable_per_code(self, code, cls):
        error = cls(f"{code} happened", details={"tenant": "t0", "n": 3})
        envelope = ApiResponse.failure(ApiRequest("predict", request_id="x"), error)
        encoded = envelope.to_json()
        decoded = ApiResponse.from_json(encoded)
        assert decoded.to_json() == encoded
        assert decoded.http_status == cls.http_status
        rebuilt = decoded.to_error()
        assert type(rebuilt) is cls
        assert rebuilt.code == code
        assert rebuilt.message == error.message
        assert rebuilt.details == error.details
        assert rebuilt.retryable == cls.retryable

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partial_results_round_trip(self, seed):
        """An error envelope carrying partial batch results loses nothing."""
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((1, 4))
        ok_item = {
            "response": PredictResponse(
                request_id="req-1", model_id="tenant-0",
                logits=logits, classes=logits.argmax(axis=1),
            ).to_dict()
        }
        bad_item = {"error": NotFoundError("ghost tenant").to_dict()}
        envelope = ApiResponse.failure(
            ApiRequest("predict_batch", request_id="batch-1"),
            NotFoundError("ghost tenant"),
            partial={"results": [ok_item, bad_item], "completed": 1, "failed": 1},
        )
        encoded = envelope.to_json()
        decoded = ApiResponse.from_json(encoded)
        assert decoded.to_json() == encoded
        assert not decoded.ok and decoded.payload["completed"] == 1
        rebuilt = PredictResponse.from_dict(decoded.payload["results"][0]["response"])
        assert np.array_equal(rebuilt.logits, logits)
        item_error = error_from_dict(decoded.payload["results"][1]["error"])
        assert isinstance(item_error, NotFoundError)

    def test_raise_for_error(self):
        ok = ApiResponse.success(ApiRequest("health"), {})
        assert ok.raise_for_error() is ok
        bad = ApiResponse.failure(None, UnavailableError("down"))
        with pytest.raises(UnavailableError):
            bad.raise_for_error()
        with pytest.raises(ValueError):
            ok.to_error()


class TestErrorTaxonomy:
    def test_codes_are_stable(self):
        assert set(ERROR_CODES) == {
            "INVALID_ARGUMENT",
            "NOT_FOUND",
            "RESOURCE_EXHAUSTED",
            "UNAVAILABLE",
            "DEADLINE_EXCEEDED",
            "INTERNAL",
        }

    def test_legacy_compatibility_hierarchy(self):
        """The old except clauses keep catching the new taxonomy."""
        assert issubclass(InvalidArgumentError, ValueError)
        assert issubclass(NotFoundError, KeyError)
        assert issubclass(UnavailableError, RuntimeError)
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(ShardOverloadError, UnavailableError)
        assert issubclass(ShardKilledError, UnavailableError)

    def test_not_found_str_is_clean(self):
        # KeyError would repr() the message; the taxonomy keeps it readable.
        assert str(NotFoundError("no such model")) == "no such model"

    def test_error_from_exception_mapping(self):
        assert error_from_exception(KeyError("m")).code == "NOT_FOUND"
        assert error_from_exception(ValueError("v")).code == "INVALID_ARGUMENT"
        assert error_from_exception(TypeError("t")).code == "INVALID_ARGUMENT"
        assert error_from_exception(TimeoutError()).code == "DEADLINE_EXCEEDED"
        assert error_from_exception(RuntimeError("r")).code == "UNAVAILABLE"
        assert error_from_exception(OSError("boom")).code == "INTERNAL"
        # Native taxonomy errors pass through as the same object.
        native = ShardOverloadError("queue full")
        assert error_from_exception(native) is native

    def test_future_timeout_maps_to_deadline(self):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        assert error_from_exception(FutureTimeoutError()).code == "DEADLINE_EXCEEDED"

    def test_unknown_code_decodes_to_internal(self):
        rebuilt = error_from_dict({"code": "SOMETHING_NEW", "message": "hi"})
        assert isinstance(rebuilt, InternalError)
        assert rebuilt.details["original_code"] == "SOMETHING_NEW"


# ---------------------------------------------------------------------------
# The array codec
# ---------------------------------------------------------------------------

_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324,  # signed zeros, the smallest subnormals
    np.finfo(np.float64).tiny, np.finfo(np.float64).max, np.finfo(np.float64).min, 1 / 3,
])


@st.composite
def finite_arrays(draw, ndim: int) -> np.ndarray:
    """Any finite float64 array: batch 0, 1 or 16, axes of length 0..4, and
    values drawn as raw 64-bit patterns (so subnormals and huge magnitudes are
    as likely as anything), with the non-finite patterns replaced by edge values."""
    shape = (draw(st.sampled_from([0, 1, 16])), *draw(st.tuples(*[st.integers(0, 4)] * (ndim - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    return np.where(np.isfinite(values), values, rng.choice(_EDGES, size=shape))


def _same_array(decoded: np.ndarray, original: np.ndarray) -> None:
    assert decoded.dtype == original.dtype and decoded.dtype.isnative
    assert decoded.shape == original.shape
    assert decoded.tobytes() == original.tobytes()  # -0.0 and subnormals included
    assert decoded.flags.writeable and decoded.flags.c_contiguous


def _round_trip(message, envelope_type, wrap):
    """message -> JSON -> message, alone and inside its envelope; the second
    encoding must be the first, byte for byte."""
    encoded = message.to_json()
    alone = type(message).from_json(encoded)
    assert alone.to_json() == encoded
    envelope = wrap(message.to_dict())
    wired = envelope.to_json()
    decoded = envelope_type.from_json(wired)
    assert decoded == envelope and decoded.to_json() == wired
    return alone, decoded


class TestArrayCodec:
    @given(finite_arrays(ndim=4))
    @settings(max_examples=60, deadline=None)
    def test_request_inputs_survive_bit_for_bit(self, inputs):
        request = PredictRequest("tenant-1", inputs, request_id="req-1")
        alone, envelope = _round_trip(
            request, ApiRequest, lambda payload: ApiRequest("predict", payload, request_id="call-1")
        )
        _same_array(alone.inputs, inputs)
        _same_array(PredictRequest.from_dict(envelope.payload).inputs, inputs)
        if inputs.size:  # a nested list cannot say the shape of an empty array
            nested = dict(request.to_dict(), inputs=inputs.tolist())
            _same_array(PredictRequest.from_json(json.dumps(nested)).inputs, inputs)

    @given(finite_arrays(ndim=2), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_response_logits_and_classes_survive_bit_for_bit(self, logits, seed):
        info = np.iinfo(np.int64)
        classes = np.random.default_rng(seed).integers(
            info.min, info.max, size=logits.shape[0], dtype=np.int64, endpoint=True
        )
        response = PredictResponse("req-1", "tenant-1", logits, classes, batched_with=3)
        alone, envelope = _round_trip(
            response,
            ApiResponse,
            lambda payload: ApiResponse.success(ApiRequest("predict"), {"response": payload}),
        )
        rebuilt = PredictResponse.from_dict(envelope.payload["response"])
        for decoded in (alone, rebuilt):
            _same_array(decoded.logits, logits)
            _same_array(decoded.classes, classes)
        if logits.size:
            nested = dict(response.to_dict(), logits=logits.tolist(), classes=classes.tolist())
            old = PredictResponse.from_json(json.dumps(nested))
            _same_array(old.logits, logits)
            _same_array(old.classes, classes)

    def test_encoders_emit_only_the_packed_form(self):
        inputs = np.arange(48, dtype=np.float64).reshape(1, 3, 4, 4)
        wire = PredictRequest("t", inputs).to_dict()["inputs"]
        assert wire == {
            "dtype": "<f8",
            "shape": [1, 3, 4, 4],
            "b64": base64.b64encode(inputs.astype("<f8").tobytes()).decode("ascii"),
        }
        reply = PredictResponse("r", "t", np.zeros((1, 2)), np.array([1])).to_dict()
        assert reply["logits"]["dtype"] == "<f8" and reply["classes"]["dtype"] == "<i8"

    GOOD = pack(np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2), "<f8")
    MALFORMED = {
        "dtype-f4": dict(GOOD, dtype="<f4"),
        "dtype-big-endian": dict(GOOD, dtype=">f8"),
        "dtype-name": dict(GOOD, dtype="float64"),
        "dtype-of-classes": dict(GOOD, dtype="<i8"),
        "dtype-missing": {k: v for k, v in GOOD.items() if k != "dtype"},
        "shape-missing": {k: v for k, v in GOOD.items() if k != "shape"},
        "shape-string": dict(GOOD, shape="[1, 1, 2, 2]"),
        "shape-wildcard": dict(GOOD, shape=[1, 1, 2, -1]),
        "shape-float": dict(GOOD, shape=[1, 1, 2, 2.0]),
        "shape-bool": dict(GOOD, shape=[True, 1, 2, 2]),
        "shape-nested": dict(GOOD, shape=[[1, 1, 2, 2]]),
        "shape-too-large": dict(GOOD, shape=[1, 1, 2, 3]),
        "shape-too-small": dict(GOOD, shape=[1, 1, 1, 2]),
        "shape-overflows": dict(GOOD, shape=[2**62, 2**62, 0, 1]),
        "b64-missing": {k: v for k, v in GOOD.items() if k != "b64"},
        "b64-not-text": dict(GOOD, b64=7),
        "b64-alphabet": dict(GOOD, b64="@" + GOOD["b64"][1:]),
        "b64-newline": dict(GOOD, b64=GOOD["b64"] + "\n"),
        "b64-padding": dict(GOOD, b64=GOOD["b64"][:-1]),
        "b64-non-ascii": dict(GOOD, b64="é" + GOOD["b64"][1:]),
        "bytes-not-whole-elements": dict(GOOD, b64=base64.b64encode(b"x" * 33).decode()),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_packed_array_fails_typed(self, name):
        field = self.MALFORMED[name]
        with pytest.raises(InvalidArgumentError, match="packed array"):
            unpack(field, "<f8")
        # ...and from outside it is a 400 envelope, never a 500.
        gateway = Gateway(None)  # refused before any backend is reached
        payload = {"model_id": "t", "inputs": field}
        for request in (
            ApiRequest("predict", payload),
            ApiRequest("predict_batch", {"requests": [payload]}),
        ):
            response = gateway.handle_envelope(request.to_json().encode("utf-8"))
            assert not response.ok and response.http_status == 400
            assert response.error["code"] == "INVALID_ARGUMENT"

    def test_the_well_formed_object_those_were_cut_from_decodes(self):
        _same_array(unpack(self.GOOD, "<f8"), np.arange(4.0).reshape(1, 1, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arrays_are_refused_at_encode(self, bad):
        """Exactly what ``canonical_json(allow_nan=False)`` said of the decimal
        form: nothing refused before is accepted now."""
        inputs = np.zeros((1, 3, 2, 2))
        inputs[0, 1, 1, 0] = bad
        for encode in (
            lambda: canonical_json({"inputs": inputs.tolist()}),
            PredictRequest("t", inputs).to_dict,
            PredictResponse("r", "t", inputs[0, 1], np.zeros(2)).to_dict,
        ):
            with pytest.raises(ValueError, match="Out of range float values"):
                encode()


class TestHistogramWire:
    """The stats frame ships the latency reservoir through the same codec."""

    @pytest.mark.parametrize("recorded", [0, 1, 8192, 9000])
    def test_reservoir_survives_the_frame_exactly(self, recorded):
        histogram = LatencyHistogram()
        for value in np.random.default_rng(recorded).exponential(0.01, size=recorded):
            histogram.record(value)
        wire = json.loads(canonical_json(histogram.to_wire()))
        assert set(wire["samples"]) == {"dtype", "shape", "b64"}
        old_form = dict(wire, samples=list(histogram.samples()))
        for frame in (wire, json.loads(canonical_json(old_form))):
            rebuilt = LatencyHistogram.from_wire(frame)
            assert rebuilt.samples() == histogram.samples()
            assert len(rebuilt.samples()) == min(recorded, 8192)
            assert (rebuilt.count, rebuilt.total, rebuilt.max) == (
                histogram.count, histogram.total, histogram.max
            )
            assert rebuilt.summary() == histogram.summary()
            assert all(type(sample) is float for sample in rebuilt.samples())
