"""The engine's compiled plan: one parity table, and what compiling promises.

* **Parity, as a table** — architecture x weight format x backend x batch
  width, batch-norm statistics randomised: the plan (BN folded into the
  encoded weights, ReLU fused, residual adds in place) agrees with
  ``module.eval()``'s own forward to round-off.
* **The fold keeps the pattern** — scaling output channels scales columns of
  the ``(reduction, out)`` matrix, so the folded encoding has the ``nnz`` and
  the bit counts of the unfolded one: no storage, FLOP or hardware-model
  number can move.
* **The engine never touches the module**, so predicts are re-entrant.
* **What the op table cannot express fails at build**, naming the layer.
* **A dropped engine is freed by reference counting** — no cycle through the
  plan — which is what keeps ``cold-churn``'s peak RSS flat.
"""

from __future__ import annotations

import copy
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.backend import Engine, get_backend
from repro.backend.fast import Operand
from repro.backend.plan import compile_plan
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.nn.models.vgg import VGG
from repro.nn.module import Module, Sequential
from repro.serve import EngineCache, EngineSpec, ModelRegistry
from repro.serve import registry as registry_module
from repro.shm import SharedModelSource, SharedWeightStore
from repro.sparsity import HybridSparsityConfig, hybrid_mask
from repro.sparsity.formats import FORMATS as FORMAT_CLASSES
from repro.sparsity.formats import WeightFormat, encode

ARCHS = ["resnet_tiny", "mobilenet_tiny", "vgg_tiny"]
FORMATS = ["dense", "csr", "blocked-ellpack", "crisp"]
PATTERN = dict(n=2, m=4, block_size=8)
TOLERANCE = 1e-9


def _randomise_batchnorm(model, rng, zero_gamma_channel=False):
    """Non-unit variance, non-zero mean and beta, gamma of either sign."""
    for module in (m for _, m in model.named_modules() if isinstance(m, BatchNorm2d)):
        channels = module.channels
        module.running_mean[:] = rng.normal(size=channels)
        module.running_var[:] = rng.uniform(0.3, 3.0, size=channels)
        module.gamma.data = rng.uniform(0.5, 1.5, size=channels) * rng.choice([-1, 1], channels)
        module.beta.data = rng.normal(size=channels)
        if zero_gamma_channel:
            module.gamma.data[0] = 0.0
    return model


def _pruned(arch, rng, block_size=8, padding_slot=False, **bn):
    """A zoo model in the hybrid 2:4 x ``block_size`` pattern with randomised BN;
    ``padding_slot``: block-row 0 of every layer keeps one block fewer."""
    model = build_model(arch, num_classes=5, input_size=8, seed=0)
    for layer in prunable_layers(model).values():
        mask, _ = hybrid_mask(
            np.abs(layer.reshaped_weight()), HybridSparsityConfig(2, 4, block_size),
            target_sparsity=0.7,
        )
        if padding_slot:  # drop block-row 0's first kept block
            first = np.flatnonzero(mask[:block_size].any(axis=0))[0] // block_size * block_size
            mask[:block_size, first:first + block_size] = False
        layer.set_reshaped_mask(mask)
    return _randomise_batchnorm(model, rng, **bn)


def _unfolded(engine):
    """What an engine that did not fold would have encoded, per layer."""
    return {
        name: encode(
            engine.weight_format,
            layer.weight.effective().reshape(layer.weight.data.shape[0], -1).T,
            engine.n, engine.m, engine.block_size,
        )
        for name, layer in prunable_layers(engine.module).items()
    }


def operands(engine):
    """A fast engine's placed GEMM operand of each layer, by layer name."""
    return {op.name: op.fmt for op in engine._plan if isinstance(getattr(op, "fmt", None), Operand)}


def operand_bytes(operand):
    return [part.tobytes() for part in (operand.dense_t, operand.row_tiles, operand.scatter)
            if part is not None]


def _tile_stack(dense, fmt):
    """The ``(block_rows, slots * B, B)`` tile stack of the matrix ``dense`` over
    ``fmt``'s block map: each stored tile transposed in its slot, padding slots zero."""
    block, (block_rows, slots) = fmt.block_size, fmt.block_cols.shape
    padded = np.zeros((block_rows * block, -(-dense.shape[1] // block) * block))
    padded[:dense.shape[0], :dense.shape[1]] = dense
    stack = np.zeros((block_rows, slots, block, block))
    for r, s in zip(*np.nonzero(np.arange(slots) < fmt.blocks_per_row[:, None])):
        c = fmt.block_cols[r, s]
        stack[r, s] = padded[r * block:(r + 1) * block, c * block:(c + 1) * block].T
    return stack.reshape(block_rows, slots * block, block)


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("weight_format", FORMATS)
@pytest.mark.parametrize("arch", ARCHS)
def test_plan_matches_the_module_and_keeps_the_pattern(arch, weight_format, backend, width, rng):
    model = _pruned(arch, rng)
    engine = Engine(model, backend=backend, weight_format=weight_format, **PATTERN)
    batch = rng.normal(size=(width, 3, 8, 8))

    model.eval()
    np.testing.assert_allclose(engine.predict(batch), model(batch), rtol=0, atol=TOLERANCE)

    assert engine.is_lossless
    assert list(engine.formats) == list(prunable_layers(model))
    for name, plain in _unfolded(engine).items():
        folded, plain = engine.formats[name].summary(), plain.summary()
        assert (folded.nnz, folded.total_bits, folded.metadata_bits) == (
            plain.nnz, plain.total_bits, plain.metadata_bits
        ), name


@pytest.mark.parametrize("weight_format", FORMATS)
def test_a_zero_gamma_channel_folds_to_a_zero_column(weight_format, rng):
    model = _pruned("resnet_tiny", rng, zero_gamma_channel=True)
    engine = Engine(model, backend="fast", weight_format=weight_format, **PATTERN)
    batch = rng.normal(size=(2, 3, 8, 8))
    model.eval()
    np.testing.assert_allclose(engine.predict(batch), model(batch), rtol=0, atol=TOLERANCE)
    assert engine.is_lossless
    dropped = 0
    for name, plain in _unfolded(engine).items():
        folded, plain = engine.formats[name].summary(), plain.summary()
        assert folded.nnz <= plain.nnz and folded.total_bits <= plain.total_bits, name
        dropped += plain.nnz - folded.nnz
    assert dropped > 0


@pytest.mark.parametrize("weight_format", ["crisp", "blocked-ellpack", "csr"])
@pytest.mark.parametrize("arch", ARCHS)
def test_each_operand_placed_at_bind_is_the_folded_encodings_byte_for_byte(arch, weight_format, rng):
    """The operand oracle: what the fast backend places at bind, straight from
    the unfolded encoding, is the dense transpose of
    ``fmt.scale_columns(scale).to_dense()``, or the tile stack and 0/1
    selection matrix rebuilt from it — with a zero-gamma channel, rows short
    of a block multiple, an edge block's padding columns and a padding slot.
    A tile stack holds every stored entry of the folded tiles (a
    Blocked-Ellpack zero keeps its sign), so its bytes are those tiles'."""
    block = 16
    model = _pruned(arch, rng, block_size=block, padding_slot=True, zero_gamma_channel=True)
    engine = Engine(model, backend="fast", weight_format=weight_format, n=2, m=4, block_size=block)
    seen = set()
    for name, operand in operands(engine).items():
        folded = engine.formats[name]  # fmt.scale_columns(scale), folded on this read
        dense, (rows, cols) = folded.to_dense(), folded.shape
        if operand.scatter is None:
            assert operand_bytes(operand) == [np.ascontiguousarray(dense.T).tobytes()], name
            seen.add("dense_t")
            continue
        stack = _tile_stack(dense, folded)
        np.testing.assert_array_equal(operand.row_tiles, stack)
        stored = stack if weight_format == "crisp" else folded.blocks.transpose(0, 1, 3, 2)
        assert operand.row_tiles.tobytes() == stored.tobytes(), name
        scatter = np.zeros((-(-cols // block), folded.block_cols.size))
        scatter[folded.block_cols.reshape(-1), np.arange(folded.block_cols.size)] = 1.0
        assert operand.scatter.tobytes() == scatter.tobytes(), name
        features = {"tiles": True, "rows": rows % block, "cols": cols % block,
                    "slot": (folded.blocks_per_row < folded.block_cols.shape[1]).any()}
        seen |= {feature for feature, present in features.items() if present}
    if arch == "resnet_tiny":  # CSR has no tiles; the rest meets every case
        expected = {"dense_t"} if weight_format == "csr" else {"dense_t", "tiles", "rows", "cols", "slot"}
        assert seen == expected


@pytest.mark.parametrize("weight_format", ["crisp", "blocked-ellpack", "csr"])
def test_a_fast_engine_is_built_and_serves_without_folding_an_encoding(weight_format, rng, monkeypatch):
    spec = EngineSpec(backend="fast", weight_format=weight_format, **PATTERN)
    registry = ModelRegistry()
    model_id = registry.register(_pruned("resnet_tiny", rng), spec=spec)
    expected = registry.build_engine(model_id).predict(batch := rng.normal(size=(2, 3, 8, 8)))

    def refuse(self, scale):
        raise AssertionError(f"{type(self).__name__}.scale_columns called")

    for cls in {WeightFormat, *FORMAT_CLASSES.values()}:
        monkeypatch.setattr(cls, "scale_columns", refuse)
    engine = registry.build_engine(model_id)
    assert engine.predict(batch).tobytes() == expected.tobytes()
    with pytest.raises(AssertionError, match="scale_columns called"):
        engine.formats  # folded only when something reads them


def _folded_by_hand(model):
    """``model`` with every BN's scale multiplied into the weight before it and
    each BN left an exact identity plus shift: an engine over it encodes the
    folded matrix itself, the order engines folded in before records held
    encodings."""
    model = copy.deepcopy(model)
    modules = dict(model.named_modules())
    plan = compile_plan(model, get_backend("fast"))
    folds = {op.name: getattr(op, "folds", ()) for op in plan.ops}
    for name, layer in prunable_layers(model).items():
        scale = np.ones(len(layer.weight.data))
        for bn, eps in folds[name]:
            scale = scale * modules[bn].gamma.data / np.sqrt(modules[bn].running_var + eps)
        shape = (-1,) + (1,) * (layer.weight.data.ndim - 1)
        layer.weight.data = layer.weight.effective() * scale.reshape(shape)
    for bn in (m for _, m in model.named_modules() if isinstance(m, BatchNorm2d)):
        bn.beta.data = bn.beta.data - bn.running_mean * bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        bn.gamma.data[:], bn.running_mean[:], bn.running_var[:], bn.eps = 1.0, 0.0, 1.0, 0.0
    return model


@pytest.mark.parametrize("weight_format", FORMATS)
def test_a_zero_gamma_channel_served_from_a_record_matches_folding_before_encoding(
    weight_format, rng
):
    """Encoding first keeps the values a zero scale then zeroes; folding first
    never stored them.  The two serve the same logits to 1e-12."""
    model = _pruned("resnet_tiny", rng, zero_gamma_channel=True)
    spec = EngineSpec(backend="fast", weight_format=weight_format, **PATTERN)
    registry = ModelRegistry()
    model_id = registry.register(model, spec=spec)
    batch = rng.normal(size=(2, 3, 8, 8))
    folded_first = Engine(_folded_by_hand(model), **spec.to_dict()).predict(batch)
    np.testing.assert_allclose(
        registry.build_engine(model_id).predict(batch), folded_first, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("weight_format", FORMATS)
@pytest.mark.parametrize("arch", ARCHS)
def test_record_module_and_segment_built_engines_agree_bit_for_bit(arch, weight_format, rng, tmp_path):
    """One tenant, five builds: from its module (the experiments), from its
    registry record (a cache miss) twice — the second from the plan the first
    compiled — from a shared-memory segment attached by name (a process
    shard's miss) and from the registry saved and loaded back (one tenant
    image, two readers).  Folded arrays, the bytes of the GEMM operands each
    layer multiplies as, the ops' folded biases and logits are identical."""
    model = _pruned(arch, rng)
    spec = EngineSpec(backend="fast", weight_format=weight_format, **PATTERN)
    registry = ModelRegistry()
    model_id = registry.register(model, spec=spec)
    reloaded = ModelRegistry.load(registry.save(tmp_path))
    batch = rng.normal(size=(3, 3, 8, 8))

    with SharedWeightStore(registry) as store:
        entry, _ = store.ensure(model_id)
        source = SharedModelSource()
        try:
            source.install(entry)
            engines = [Engine(model, **spec.to_dict()), registry.build_engine(model_id),
                       registry.build_engine(model_id), source.build_engine(model_id),
                       reloaded.build_engine(model_id)]
            served = [
                (e.predict(batch).tobytes(),
                 {name: {key: array.tobytes() for key, array in fmt.arrays().items()}
                  for name, fmt in e.formats.items()},
                 {name: operand_bytes(operand) for name, operand in operands(e).items()},
                 [None if op.bias is None else op.bias.tobytes() for op in e._plan])
                for e in engines
            ]
        finally:
            source.close()
    assert weight_format == "dense" or all(placed for _, _, placed, _ in served)
    assert all(build == served[0] for build in served[1:])
    assert engines[1]._plan[0] is not engines[2]._plan[0]  # one plan, two bindings


@pytest.fixture
def fresh_plans(monkeypatch):
    """An empty plan cache, and the list of walks made through it."""
    walks = []

    def counted(module, backend):
        walks.append(type(module).__name__)
        return compile_plan(module, backend)

    monkeypatch.setattr(registry_module, "_PLANS", {})
    monkeypatch.setattr(registry_module, "compile_plan", counted)
    return walks


def test_record_builds_of_one_architecture_walk_once_and_construct_no_module(
    fresh_plans, monkeypatch, rng
):
    spec = EngineSpec(backend="fast", weight_format="crisp", **PATTERN)
    registry = ModelRegistry()
    ids = [registry.register(_pruned("resnet_tiny", rng), spec=spec, model_id=f"tenant-{i}")
           for i in range(3)]
    first = registry.build_engine(ids[0])
    constructed, init = [], Module.__init__

    def counted(self, *args, **kwargs):
        constructed.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Module, "__init__", counted)
    batch = rng.normal(size=(1, 3, 8, 8))
    for model_id in ids * 2:
        registry.build_engine(model_id).predict(batch)
    assert fresh_plans == ["ResNet"] and constructed == []
    assert list(registry_module._PLANS) == [("resnet_tiny", 5, 8, "fast")]
    first.module  # built from the record on its first read, and only then
    assert "ResNet" in constructed


def test_layers_outside_the_zoo_blocks_compile_through_the_same_table(rng):
    """Flatten (NCHW feature order), average pooling, a conv bias under BN, a
    linear with no BN behind it, and dropout as the identity."""
    model = Sequential(
        Conv2d(3, 8, 3, padding=1, bias=True, seed=1),
        BatchNorm2d(8),
        ReLU(),
        AvgPool2d(2),
        Conv2d(8, 8, 1, stride=2, bias=False, seed=2),
        MaxPool2d(2, stride=1, padding=1),
        Flatten(),
        Linear(8 * 3 * 3, 4, seed=3),
    )
    model[0].bias.data = rng.normal(size=8)
    _randomise_batchnorm(model, rng)
    batch = rng.normal(size=(3, 3, 8, 8))
    model.eval()
    expected = model(batch)
    for backend in ("reference", "fast"):
        engine = Engine(model, backend=backend, weight_format="csr")
        np.testing.assert_allclose(engine.predict(batch), expected, rtol=0, atol=TOLERANCE)

    vgg = VGG([8, "M", 8, "M"], num_classes=4, input_size=8, classifier_width=8,
              dropout=0.5, seed=0)
    _randomise_batchnorm(vgg, rng)
    engine = Engine(vgg, weight_format="dense")
    vgg.eval()
    np.testing.assert_allclose(engine.predict(batch), vgg(batch), rtol=0, atol=TOLERANCE)


def test_kernels_are_looked_up_on_the_backend_at_call_time(rng):
    """crispbench's tracer wraps ``im2col`` / ``sparse_matmul`` as instance
    attributes of the backend singleton after engines exist."""
    fast = get_backend("fast")
    engine = Engine(_pruned("resnet_tiny", rng), backend=fast, weight_format="crisp", **PATTERN)
    batch = rng.normal(size=(1, 3, 8, 8))
    expected = engine.predict(batch)
    calls = {"im2col": 0, "sparse_matmul": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    try:
        for name in calls:
            setattr(fast, name, counted(name, getattr(fast, name)))
        np.testing.assert_array_equal(engine.predict(batch), expected)
    finally:
        for name in calls:
            delattr(fast, name)
    layers = prunable_layers(engine.module).values()
    assert calls["sparse_matmul"] == len(layers)
    # Only the k x k convolutions unfold; a 1x1 feeds the GEMM as it is.
    assert calls["im2col"] == sum(getattr(l, "kernel_size", 1) > 1 for l in layers)


# ---------------------------------------------------------------------------
# The engine never touches the module
# ---------------------------------------------------------------------------

def _module_snapshot(model):
    return {
        name: (dict(module.__dict__), dict(getattr(module, "_cache", {})))
        for name, module in model.named_modules()
    }


def test_concurrent_predicts_are_serial_predicts_and_leave_the_module_alone(rng):
    """Regression: ``predict`` used to flip ``eval()`` / ``train()`` on the
    shared module, so a thread could read ``was_training`` inside another's
    eval window (module left in eval mode) or run BN in training mode."""
    model = _pruned("resnet_tiny", rng)
    model.train(True)
    before = _module_snapshot(model)
    state_before = {key: value.tobytes() for key, value in model.state_dict().items()}

    engine = Engine(model, backend="fast", weight_format="crisp", **PATTERN)
    batches = [rng.normal(size=(1 + i % 3, 3, 8, 8)) for i in range(6)]
    serial = [engine.predict(batch) for batch in batches]

    results = [[None] * len(batches) for _ in range(4)]

    def worker(slot):
        for _ in range(5):
            for index, batch in enumerate(batches):
                results[slot][index] = engine.predict(batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    for per_thread in results:
        for got, want in zip(per_thread, serial):
            np.testing.assert_array_equal(got, want)

    assert model.training and all(m.training for _, m in model.named_modules())
    for name, module in model.named_modules():
        attributes, cache = before[name]
        assert module.__dict__.keys() == attributes.keys(), name  # no planted forward
        assert all(module.__dict__[key] is attributes[key] for key in attributes), name
        assert getattr(module, "_cache", {}) == cache, name  # no _cache write
    state_after = {key: value.tobytes() for key, value in model.state_dict().items()}
    assert state_after == state_before


# ---------------------------------------------------------------------------
# Fail at build, typed
# ---------------------------------------------------------------------------

class _Swish(Module):
    def forward(self, x):
        return x / (1.0 + np.exp(-x))


class _Net(Module):
    """conv -> bn, then whatever ``tail`` does with the two of them."""

    def __init__(self, tail):
        super().__init__()
        self.conv = Conv2d(3, 4, 3, padding=1, bias=False, seed=0)
        self.bn = BatchNorm2d(4)
        self.pool = MaxPool2d(2)
        self.extra = _Swish()
        self.tail = tail

    def forward(self, x):
        return self.tail(self, x)


@pytest.mark.parametrize(
    "tail, names",
    [
        (lambda net, x: net.extra(net.bn(net.conv(x))), ["'extra'", "_Swish"]),
        (lambda net, x: net.bn(net.pool(net.conv(x))), ["'bn'"]),  # producer is a pool
        (lambda net, x: net.bn(x), ["'bn'"]),  # producer is the input
        (lambda net, x: net.conv(net.conv(x)), ["'conv'", "twice"]),  # one weight, two folds
        (lambda net, x: [y := net.conv(x), net.pool(y), net.bn(y)][-1], ["'bn'"]),  # read before
        (lambda net, x: [y := net.conv(x), net.bn(y), net.pool(y)][-1], ["'pool'"]),  # read after
        (lambda net, x: [y := net.conv(x), net.bn(y) + y][-1], ["residual add"]),
        (lambda net, x: net.bn(net.conv(x)) * 2.0, ["'<root>'", "_Net"]),  # array maths
    ],
)
def test_what_the_plan_cannot_express_fails_in_the_constructor(tail, names):
    with pytest.raises(ValueError) as raised:
        Engine(_Net(tail), weight_format="dense")
    assert all(name in str(raised.value) for name in names), str(raised.value)


def test_an_unknown_layer_is_named_by_its_qualified_name(rng):
    model = build_model("resnet_tiny", num_classes=4, input_size=8, seed=0)
    model.stages[1].relu2 = _Swish()
    with pytest.raises(ValueError, match=r"'stages\.1\.relu2'.*_Swish"):
        Engine(model, weight_format="dense")
    engine = Engine(build_model("resnet_tiny", num_classes=4, input_size=8, seed=0))
    engine.module.stages[1].relu2 = _Swish()
    with pytest.raises(ValueError, match=r"'stages\.1\.relu2'"):
        engine.refresh_formats()
    # A failed recompile leaves the engine on the plan it had.
    assert engine.predict(rng.normal(size=(1, 3, 8, 8))).shape == (1, 4)


# ---------------------------------------------------------------------------
# A dropped engine is freed by reference counting
# ---------------------------------------------------------------------------

@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_dropped_engine_is_freed_without_the_cycle_collector(no_gc, rng):
    engine = Engine(_pruned("resnet_tiny", rng), backend="fast", weight_format="crisp", **PATTERN)
    engine.predict(rng.normal(size=(1, 3, 8, 8)))
    operand = operands(engine)["stages.0.conv2"]  # the GEMM operand: the bytes that must not linger
    fmt = engine.formats["stages.0.conv2"]
    refs = [weakref.ref(engine), weakref.ref(operand), weakref.ref(fmt), weakref.ref(engine.module)]
    del engine, operand, fmt
    assert [ref() for ref in refs] == [None, None, None, None]


def test_an_evicted_engine_is_freed_without_the_cycle_collector(fresh_plans, no_gc, rng):
    """The plan cache outlives every engine, so it must pin none of a tenant's
    arrays: its ops' biases, formats and (mobilenet) depthwise weights."""
    spec = EngineSpec(backend="fast", weight_format="crisp", **PATTERN)
    for arch in ("resnet_tiny", "mobilenet_tiny"):
        registry = ModelRegistry()
        ids = [
            registry.register(_pruned(arch, rng), spec=spec, model_id=f"tenant-{i}")
            for i in range(2)
        ]
        cache = EngineCache(registry, capacity=1)
        cache.get(ids[0]).predict(rng.normal(size=(1, 3, 8, 8)))
        bound = [x for op in cache.get(ids[0])._plan for x in (op.bias, getattr(op, "fmt", None))
                 if x is not None]
        depthwise = [x for x in bound if isinstance(x, np.ndarray) and x.shape[1:] == (3 * 3,)]
        assert bool(depthwise) == (arch == "mobilenet_tiny")
        refs = [weakref.ref(cache.get(ids[0]))] + [weakref.ref(x) for x in bound]
        del bound, depthwise
        cache.get(ids[1])  # capacity 1: evicts tenant-0
        assert cache.cached_ids() == [ids[1]]
        assert all(ref() is None for ref in refs), arch
        plan = registry_module._PLANS[(arch, 5, 8, "fast")]
        assert all(op.bias is None and getattr(op, "fmt", None) is None for op in plan.ops)
