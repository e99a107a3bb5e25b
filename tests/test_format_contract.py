"""The weight-format contract, stated once for every entry of ``FORMATS``.

``repro.sparsity.formats`` is the only module that knows what a format
stores; everything else (the engine, the shared-memory store, the backends'
kernel tables) is generic over ``WeightFormat``.  These tests pin that
contract per registered format instead of per hand-written branch, and the
last one is its executable form: a format defined *here*, patched into the
two tables, is encoded, published to shared memory, attached and served
without ``src/`` ever having heard of it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np
import pytest

from repro.backend import Engine, get_backend, weight_formats
from repro.errors import InternalError
from repro.nn.models.base import prunable_layers
from repro.serve import EngineSpec, ModelRegistry
from repro.serve.registry import _ALIGN, _MAGIC, _PREFIX, ModelRecord
from repro.shm import SharedModelSource, SharedWeightStore
from repro.sparsity import HybridSparsityConfig, hybrid_mask
from repro.sparsity.formats import (
    DEFAULT_VALUE_BITS,
    FORMATS,
    FormatSummary,
    WeightFormat,
    encode,
)
from repro.sparsity.sparse_ops import check_activation_rows, sparse_matmul
from test_shm import _sparsified_model as sparsified_model

N, M, BLOCK = 2, 4, 8


def hybrid_matrix(rng, rows=40, cols=24):
    """A block-unaligned matrix every format encodes losslessly at 2:4 / B=8."""
    weight = rng.normal(size=(rows, cols))
    mask, _ = hybrid_mask(
        np.abs(weight), HybridSparsityConfig(N, M, BLOCK), keep_blocks_per_row=2
    )
    return weight * mask


#: How each tampered image fails: at load (``ValueError`` naming the file), at
#: the install that parses a segment, or at the build that binds it.
TAMPERED = {
    "swap-layers": "malformed",
    "rename-array": "malformed",
    "unknown-kind": "malformed: unknown format kind 'coo'",
    # Regression: a missing state array used to leave the zoo's seeded init in its place.
    "drop-state-key": "malformed.*'stem_bn.gamma'.*got nothing",
    "truncate-state": r"malformed.*'stem_bn.running_var::buffer'.*got \(11,\)",
    "truncate-file": "malformed: truncated",
    "bad-magic": "malformed: bad magic",
    "header-not-json": "malformed: header is not JSON",
}


def tampered_image(image: bytes, tamper: str) -> bytes:
    """``image`` truncated, with a bad magic or an unparsable header, or with
    its JSON header edited (the array bytes stay where they were)."""
    if tamper == "truncate-file":
        return image[:-100]
    if tamper == "bad-magic":
        return b"NOTANIMG" + image[len(_MAGIC):]
    if tamper == "header-not-json":
        return image[:_PREFIX] + b"x" + image[_PREFIX + 1:]
    end = _PREFIX + int.from_bytes(image[len(_MAGIC):_PREFIX], "little")
    header = json.loads(image[_PREFIX:end])
    blocks, state = header["formats"], header["state"]
    first, last = list(blocks)[0], list(blocks)[-1]
    if tamper == "swap-layers":
        blocks[first], blocks[last] = blocks[last], blocks[first]
    elif tamper == "unknown-kind":
        blocks[first]["kind"] = "coo"
    elif tamper == "drop-state-key":
        del state["stem_bn.gamma"]
    elif tamper == "truncate-state":
        state["stem_bn.running_var::buffer"]["shape"][0] -= 1
    else:
        assert tamper == "rename-array"
        arrays = blocks[first]["arrays"]
        arrays["group_vals"] = arrays.pop("group_values")
    text = json.dumps(header).encode()
    text += b" " * (-(_PREFIX + len(text)) % _ALIGN)
    return image[:len(_MAGIC)] + len(text).to_bytes(8, "little") + text + image[end:]


def read_only(arrays):
    frozen = {name: array.copy() for name, array in arrays.items()}
    for array in frozen.values():
        array.flags.writeable = False
    return frozen


def shipped(fmt):
    """Everything of an encoding that leaves the process, as comparable bytes."""
    return (
        json.dumps(fmt.params(), sort_keys=True),
        {key: (array.dtype.str, array.shape, array.tobytes()) for key, array in fmt.arrays().items()},
        fmt.summary(),
    )


@pytest.mark.parametrize("name", sorted(FORMATS))
class TestEveryFormat:
    def test_declares_exactly_what_it_stores(self, name):
        """A field left out of ``array_names`` / ``param_names`` would be
        dropped, silently, on the way to a process worker."""
        cls = FORMATS[name]
        assert cls.name == name and issubclass(cls, WeightFormat)
        declared = set(cls.array_names) | set(cls.param_names)
        assert len(declared) == len(cls.array_names) + len(cls.param_names)
        assert declared == {f.name for f in fields(cls)}
        # ``shape`` is a stored param or is read off the stored arrays.
        assert "shape" in declared or isinstance(cls.shape, property)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_parts_round_trip(self, name, order, rng):
        matrix = np.asarray(hybrid_matrix(rng), order=order)
        fmt = encode(name, matrix, N, M, BLOCK)
        assert tuple(fmt.shape) == matrix.shape and fmt.is_lossless is True
        np.testing.assert_array_equal(fmt.to_dense(), matrix)
        assert isinstance(fmt.summary(), FormatSummary)

        params, arrays = fmt.params(), fmt.arrays()
        assert list(arrays) == list(fmt.array_names)
        assert json.loads(json.dumps(params)) == params  # rides the image header as is
        rebuilt = FORMATS[name].from_parts(json.loads(json.dumps(params)), read_only(arrays))
        assert rebuilt.params() == params and tuple(rebuilt.shape) == matrix.shape
        np.testing.assert_array_equal(rebuilt.to_dense(), matrix)
        for key, array in rebuilt.arrays().items():
            assert array.dtype == arrays[key].dtype and not array.flags.writeable

    def test_a_matmul_changes_nothing_that_ships(self, name, rng):
        """A kernel keeps nothing on the encoding: the arrays, params, bit cost
        and attributes a tenant image stores stay the encoding's own."""
        if name not in weight_formats("fast"):
            return  # no kernel
        matrix = hybrid_matrix(rng)
        fmt = encode(name, matrix, N, M, BLOCK)
        before = shipped(fmt)
        for width in (1, 7):
            sparse_matmul(fmt, rng.normal(size=(matrix.shape[0], width)), backend="fast")
        assert shipped(fmt) == before
        assert set(vars(fmt)) == {f.name for f in fields(fmt)}

    def test_from_parts_rejects_names_it_does_not_declare(self, name, rng):
        fmt = encode(name, hybrid_matrix(rng), N, M, BLOCK)
        cls = FORMATS[name]
        arrays = fmt.arrays()
        renamed = {f"{key}_v2": value for key, value in arrays.items()}
        with pytest.raises(ValueError, match=name):
            cls.from_parts(fmt.params(), renamed)
        with pytest.raises(ValueError, match=name):
            cls.from_parts({**fmt.params(), "extra": 1}, arrays)

    def test_backends_agree_or_both_refuse(self, name, rng):
        matrix = hybrid_matrix(rng)
        acts = rng.normal(size=(matrix.shape[0], 5))
        fmt = encode(name, matrix, N, M, BLOCK)
        shared = FORMATS[name].from_parts(fmt.params(), read_only(fmt.arrays()))
        if name not in weight_formats():
            for backend in ("reference", "fast"):
                with pytest.raises(TypeError):
                    sparse_matmul(fmt, acts, backend=backend)
            return
        assert name in weight_formats("fast")
        reference = sparse_matmul(fmt, acts, backend="reference")
        np.testing.assert_allclose(reference, matrix.T @ acts, atol=1e-10)
        for operand in (fmt, shared):  # fresh arrays, then read-only views
            fast = sparse_matmul(operand, acts, backend="fast")
            np.testing.assert_allclose(fast, reference, atol=1e-8)
        refusals = []
        for backend in ("reference", "fast"):
            with pytest.raises(ValueError) as caught:
                sparse_matmul(fmt, acts[:-1], backend=backend)
            refusals.append(str(caught.value))
        assert refusals[0] == refusals[1]


# ---------------------------------------------------------------------------
# Engine.install_formats: an encoding that does not fit its layer fails there
# ---------------------------------------------------------------------------

class TestInstallFormats:
    def test_swapped_layers_fail_at_install_naming_the_layer(self):
        model = sparsified_model()
        formats = dict(Engine(model, weight_format="csr").formats)
        first, last = list(formats)[0], list(formats)[-1]
        assert formats[first].shape != formats[last].shape
        formats[first], formats[last] = formats[last], formats[first]
        with pytest.raises(ValueError, match=repr(first)):
            Engine(model, weight_format="csr", formats=formats)

    def test_formats_is_a_read_only_view(self):
        engine = Engine(sparsified_model(), weight_format="csr")
        assert list(engine.formats) == list(prunable_layers(engine.module))
        with pytest.raises(TypeError):
            engine.formats["stem"] = None

    @pytest.mark.parametrize("tamper", list(TAMPERED))
    def test_a_tampered_image_fails_typed_at_load_install_or_build(self, tamper, tmp_path, monkeypatch):
        message = TAMPERED[tamper]
        registry = ModelRegistry()
        model_id = registry.register(
            sparsified_model(), spec=EngineSpec(weight_format="crisp", block_size=8), model_id="t"
        )
        image = tampered_image(bytes(registry.get(model_id).to_image()), tamper)

        path = registry.save(tmp_path) / f"{model_id}.img"
        path.write_bytes(image)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{message}"):
            ModelRegistry.load(tmp_path)

        monkeypatch.setattr(ModelRecord, "to_image", lambda record: image)
        store = SharedWeightStore(registry)
        source = SharedModelSource()  # what a process shard installs into
        try:
            entry, _ = store.ensure(model_id)  # the parent copies the image, parsing nothing
            with pytest.raises(InternalError, match=message):
                source.install(entry)
                source.build_engine(model_id)
        finally:
            source.close()
            store.close()
        assert store.segment_names(live_only=False)
        assert not [name for name in store.segment_names(live_only=False)
                    if os.path.exists(f"/dev/shm/{name}")]

    def test_a_root_in_the_record_json_layout_is_refused_not_read_as_empty(self, tmp_path):
        old = tmp_path / "resnet_tiny-u0-0123abcd"
        old.mkdir()
        (old / "record.json").write_text("{}")
        with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path))} holds per-model directories"):
            ModelRegistry.load(tmp_path)

    @pytest.mark.parametrize("tamper", ["drop-state-key", "truncate-state"])
    def test_a_record_with_bad_state_fails_at_build_naming_the_key(self, tamper):
        registry = ModelRegistry()
        model_id = registry.register(sparsified_model(), spec=EngineSpec(weight_format="csr"))
        state = registry.get(model_id).state
        if tamper == "drop-state-key":
            del state["stem_bn.gamma"]
        else:
            state["stem_bn.gamma"] = state["stem_bn.gamma"][:-1]
        with pytest.raises(ValueError, match="'stem_bn.gamma'"):
            registry.build_engine(model_id)

    def test_a_record_missing_a_state_key_fails_every_decode(self):
        # Regression: materialize used to load the zoo's init in place of the missing array.
        registry = ModelRegistry()
        model_id = registry.register(sparsified_model(), spec=EngineSpec(weight_format="csr"))
        del registry.get(model_id).state["stem_bn.gamma"]
        for build in (registry.build_engine, registry.materialize):
            with pytest.raises(ValueError, match="state 'stem_bn.gamma' must be a .* got nothing"):
                build(model_id)


# ---------------------------------------------------------------------------
# "One module knows": a format src/ has never heard of, served end to end
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class TransposedFormat(WeightFormat):
    """Toy format: the ``(cols, rows)`` transpose, C-contiguous, plus a sign flip."""

    name = "transposed"
    array_names = ("rows_t",)
    param_names = ("shape", "negated", "value_bits")

    shape: Tuple[int, int]
    rows_t: np.ndarray
    negated: bool
    value_bits: int = DEFAULT_VALUE_BITS

    @classmethod
    def from_dense(cls, matrix, value_bits=DEFAULT_VALUE_BITS):
        matrix = np.asarray(matrix, dtype=np.float64)
        return cls(matrix.shape, np.ascontiguousarray(-matrix.T), True, value_bits)

    def to_dense(self):
        return (-self.rows_t if self.negated else self.rows_t).T.copy()

    def summary(self):
        return FormatSummary(self.name, self.shape, int(np.count_nonzero(self.rows_t)),
                             self.rows_t.size * self.value_bits, 1)


def transposed_matmul_loop(fmt, activations):
    check_activation_rows(fmt, activations)
    sign = -1.0 if fmt.negated else 1.0
    return np.stack([sign * (row @ activations) for row in fmt.rows_t])


def transposed_matmul_gemm(fmt, activations):
    check_activation_rows(fmt, activations)
    out = fmt.rows_t @ activations
    return -out if fmt.negated else out


@pytest.fixture
def transposed_format(monkeypatch):
    monkeypatch.setitem(FORMATS, "transposed", TransposedFormat)
    monkeypatch.setitem(get_backend("reference").kernels, "transposed", transposed_matmul_loop)
    monkeypatch.setitem(get_backend("fast").kernels, "transposed", transposed_matmul_gemm)


def test_a_format_defined_outside_src_is_served_end_to_end(transposed_format, rng):
    batch = rng.normal(size=(2, 3, 12, 12))
    dense = Engine(sparsified_model(), backend="fast", weight_format="dense").predict(batch)

    assert "transposed" in weight_formats() and "transposed" in weight_formats("fast")
    spec = EngineSpec(backend="fast", weight_format="transposed")
    assert EngineSpec.from_json(spec.to_json()) == spec
    registry = ModelRegistry()
    model_id = registry.register(sparsified_model(), spec=spec, model_id="toy")

    local = registry.build_engine(model_id)
    assert {type(fmt) for fmt in local.formats.values()} == {TransposedFormat}
    assert local.total_weight_bits() == sum(
        fmt.rows_t.size * DEFAULT_VALUE_BITS + 1 for fmt in local.formats.values()
    )
    np.testing.assert_allclose(local.predict(batch), dense, atol=1e-10)
    oracle = Engine(sparsified_model(), backend="reference", weight_format="transposed")
    np.testing.assert_allclose(oracle.predict(batch), dense, atol=1e-8)

    with SharedWeightStore(registry) as store:
        entry, _ = store.ensure(model_id)
        entry = json.loads(json.dumps(entry))  # as it crosses the control pipe
        source = SharedModelSource()
        try:
            source.install(entry)
            installed = source._models[model_id].record
            assert {fmt.name for fmt in installed.formats.values()} == {"transposed"}
            attached = source.build_engine(model_id)
            for fmt in attached.formats.values():
                assert isinstance(fmt, TransposedFormat) and not fmt.rows_t.flags.writeable
            np.testing.assert_array_equal(attached.predict(batch), local.predict(batch))
        finally:
            source.close()
