"""Microbenchmarks for the core kernels, mask generators and compute backends.

Not tied to a specific paper figure: these track the cost of the substrate
operations (im2col convolution, mask generation, format encoding, the sparse
GEMMs on both backends) so regressions in the building blocks are visible.

Run under pytest-benchmark for the tracked numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py --benchmark-only

or as a script for a quick reference-vs-fast speedup report, the
``crisp_encode`` row (loop oracle vs ``CRISPFormat.from_dense``), one
whole-model row — a pruned ``resnet_tiny`` forward through the module itself
(``eval()``, batch-norm unfolded) and on a ``dense`` and a ``crisp`` engine
(the compiled plan), beside the accelerator model's predicted speedup — and
two tenant rows, ``cold_build`` (a registry cache miss, then the first
forward) and ``tenant_bytes`` (record, saved ``.img`` image, shared-memory segment),
and two kernel rows, ``im2col_gather`` (the fast ``im2col`` vs ``F.im2col``
per k x k conv and width, with the tap index's KiB) and ``operand_choice``
(each layer's operand, dense or tiles, and both timings) (the CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --json BENCH_kernels.json
"""

import numpy as np
import pytest

from repro.backend import Engine, get_backend
from repro.hw import compare_accelerators, workloads_from_engine
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.sparsity import (
    BlockedEllpackFormat,
    CRISPFormat,
    CSRFormat,
    HybridSparsityConfig,
    hybrid_mask,
    nm_mask,
    sparse_matmul,
    uniform_block_mask,
)

#: Representative GEMM sizes for the backend comparison: a late-network
#: 3x3 conv (128 -> 256 channels) after im2col lowering ((K, S) weight), with
#: the activation column count of the paper's personalized-edge setting —
#: batch-1 inference over a small late-stage feature map.
BENCH_ROWS, BENCH_COLS, BENCH_BATCH = 1152, 256, 8
BENCH_N, BENCH_M, BENCH_BLOCK = 2, 4, 16


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def _bench_operands(rng, rows=BENCH_ROWS, cols=BENCH_COLS, batch=BENCH_BATCH):
    weight = rng.normal(size=(rows, cols))
    mask, _ = hybrid_mask(
        np.abs(weight),
        HybridSparsityConfig(BENCH_N, BENCH_M, BENCH_BLOCK),
        target_sparsity=0.85,
    )
    sparse = weight * mask
    activations = rng.normal(size=(rows, batch))
    return sparse, activations


@pytest.mark.benchmark(group="kernels")
def test_conv2d_forward_kernel(benchmark, rng):
    x = rng.normal(size=(8, 16, 16, 16))
    weight = rng.normal(size=(32, 16, 3, 3))
    bias = rng.normal(size=32)
    out, _ = benchmark(F.conv2d_forward, x, weight, bias, 1, 1)
    assert out.shape == (8, 32, 16, 16)


@pytest.mark.benchmark(group="kernels")
def test_conv2d_backward_kernel(benchmark, rng):
    x = rng.normal(size=(8, 16, 16, 16))
    weight = rng.normal(size=(32, 16, 3, 3))
    out, cache = F.conv2d_forward(x, weight, None, 1, 1)
    grad_out = rng.normal(size=out.shape)
    grad_x, grad_w, _ = benchmark(F.conv2d_backward, grad_out, weight, cache)
    assert grad_x.shape == x.shape and grad_w.shape == weight.shape


@pytest.mark.benchmark(group="kernels")
def test_nm_mask_kernel(benchmark, rng):
    scores = rng.random((1152, 256))
    mask = benchmark(nm_mask, scores, 2, 4, 0)
    assert mask.mean() == pytest.approx(0.5)


@pytest.mark.benchmark(group="kernels")
def test_uniform_block_mask_kernel(benchmark, rng):
    scores = rng.random((1152, 256))
    mask = benchmark(uniform_block_mask, scores, 16, 8)
    assert 0.0 < mask.mean() < 1.0


@pytest.mark.benchmark(group="kernels")
def test_hybrid_mask_kernel(benchmark, rng):
    scores = rng.random((1152, 256))
    config = HybridSparsityConfig(2, 4, 16)
    mask, info = benchmark(hybrid_mask, scores, config, 0.9)
    assert info.achieved_sparsity == pytest.approx(0.9, abs=0.03)


@pytest.mark.benchmark(group="kernels")
def test_crisp_format_encode_kernel(benchmark, rng):
    weight = rng.normal(size=(256, 64))
    mask, _ = hybrid_mask(np.abs(weight), HybridSparsityConfig(2, 4, 16), target_sparsity=0.85)
    sparse = weight * mask
    fmt = benchmark(CRISPFormat.from_dense, sparse, 2, 4, 16)
    assert fmt.is_lossless


@pytest.mark.benchmark(group="kernels")
def test_crisp_matmul_kernel(benchmark, rng):
    weight = rng.normal(size=(128, 64))
    mask, _ = hybrid_mask(np.abs(weight), HybridSparsityConfig(2, 4, 16), target_sparsity=0.85)
    sparse = weight * mask
    fmt = CRISPFormat.from_dense(sparse, 2, 4, 16)
    activations = rng.normal(size=(128, 8))
    out = benchmark(sparse_matmul, fmt, activations)
    np.testing.assert_allclose(out, sparse.T @ activations, atol=1e-8)


# ---------------------------------------------------------------------------
# Backend comparison: reference loops vs vectorized fast kernels
# ---------------------------------------------------------------------------

@pytest.mark.benchmark(group="sparse-backends")
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_csr_matmul_backend(benchmark, rng, backend):
    sparse, acts = _bench_operands(rng)
    fmt = CSRFormat.from_dense(sparse)
    be = get_backend(backend)
    out = benchmark(be.sparse_matmul, fmt, acts)
    np.testing.assert_allclose(out, sparse.T @ acts, atol=1e-8)


@pytest.mark.benchmark(group="sparse-backends")
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_blocked_ellpack_matmul_backend(benchmark, rng, backend):
    sparse, acts = _bench_operands(rng)
    fmt = BlockedEllpackFormat.from_dense(sparse, BENCH_BLOCK)
    be = get_backend(backend)
    out = benchmark(be.sparse_matmul, fmt, acts)
    np.testing.assert_allclose(out, sparse.T @ acts, atol=1e-8)


@pytest.mark.benchmark(group="sparse-backends")
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_crisp_matmul_backend(benchmark, rng, backend):
    sparse, acts = _bench_operands(rng)
    fmt = CRISPFormat.from_dense(sparse, BENCH_N, BENCH_M, BENCH_BLOCK)
    be = get_backend(backend)
    out = benchmark(be.sparse_matmul, fmt, acts)
    np.testing.assert_allclose(out, sparse.T @ acts, atol=1e-8)


@pytest.mark.benchmark(group="engine")
def test_engine_predict_kernel(benchmark, rng):
    model = build_model("resnet_tiny", num_classes=10, input_size=16, seed=0)
    engine = Engine(model, backend="fast", weight_format="dense")
    batch = rng.normal(size=(8, 3, 16, 16))
    logits = benchmark(engine.predict, batch)
    assert logits.shape == (8, 10)


# ---------------------------------------------------------------------------
# Script mode: the CI smoke run (reference vs fast speedup report)
# ---------------------------------------------------------------------------

def _pruned_resnet_tiny(num_classes, input_size):
    """``resnet_tiny`` at 2:4 in 16x16 blocks, 80 % sparse (crispbench's pattern)."""
    model = build_model("resnet_tiny", num_classes=num_classes, input_size=input_size, seed=0)
    config = HybridSparsityConfig(BENCH_N, BENCH_M, BENCH_BLOCK)
    for layer in prunable_layers(model).values():
        mask, _ = hybrid_mask(np.abs(layer.reshaped_weight()), config, target_sparsity=0.8)
        layer.set_reshaped_mask(mask)
    return model


def _tenant_rows(rng, repeat):
    """What a crispbench-shaped tenant (3 classes, 12x12 inputs) costs to bring
    back and to keep: ``registry.build_engine`` on a cache miss (which places
    the kernels' GEMM operands, batch-norm folded in) and the first forward
    after it, medians; and
    the KiB of the registry record's arrays, its saved tenant image
    (``<model_id>.img``) and its published shared-memory segment."""
    import os
    import tempfile
    import time

    from repro.serve import EngineSpec, ModelRegistry
    from repro.shm import SharedWeightStore, attach_segment

    registry = ModelRegistry()
    spec = EngineSpec("fast", "crisp", BENCH_N, BENCH_M, BENCH_BLOCK)
    model_id = registry.register(_pruned_resnet_tiny(3, 12), spec=spec, model_id="tenant")
    image = rng.normal(size=(1, 3, 12, 12))
    build_s, forward_s = [], []
    for _ in range(20 * repeat):
        started = time.perf_counter()
        engine = registry.build_engine(model_id)
        built = time.perf_counter()
        engine.predict(image)
        build_s.append(built - started)
        forward_s.append(time.perf_counter() - built)
    build, forward = float(np.median(build_s)), float(np.median(forward_s))
    print(f"{'cold build':>16} | {build * 1e3:9.2f}ms | {forward * 1e3:9.2f}ms |"
          "  (registry.build_engine, then the first forward)")

    record = registry.get(model_id)
    stored = [*record.state.values(), *(a for f in record.formats.values() for a in f.arrays().values())]
    kib = {"record": sum(a.nbytes for a in stored) / 1024}
    with tempfile.TemporaryDirectory() as root:
        registry.save(root)
        kib["image"] = os.path.getsize(os.path.join(root, f"{model_id}.img")) / 1024
    with SharedWeightStore(registry) as store:
        segment = attach_segment(store.ensure(model_id)[0]["segment"])
        kib["segment"] = segment.size / 1024
        segment.close()
    print(f"{'tenant bytes':>16} | " + " | ".join(f"{k} {v:.1f} KiB" for k, v in kib.items()))
    return [
        {"name": "cold_build", "unit": "s", "build": build, "first_forward": forward,
         "value": build, "backend": "fast"},
        {"name": "tenant_bytes", "unit": "KiB", **kib, "value": kib["record"], "backend": "fast"},
    ]


def _im2col_gather_row(rng, repeat):
    """The fast backend's ``im2col`` (one gather through a cached tap index)
    against ``F.im2col`` on ``resnet_tiny``'s k x k convs at crispbench's 12x12
    input, widths 1, 3 and 16, in microseconds, with the tap index's KiB.
    Outputs are asserted byte-equal; nothing is gated."""
    from benchlib import best_of

    from repro.backend import FastBackend
    from repro.nn.models.base import conv_input_sizes

    model = build_model("resnet_tiny", num_classes=3, input_size=12, seed=0)
    sizes = conv_input_sizes(model)
    backend = FastBackend()
    layers = {}
    for name, layer in prunable_layers(model).items():
        kernel = getattr(layer, "kernel_size", 1)
        if kernel == 1:
            continue
        per_width = layers[name] = {}
        for width in (1, 3, 16):
            x = rng.normal(size=(width, layer.in_channels, *sizes[name]))
            args = (x, kernel, kernel, layer.stride, layer.padding)
            columns = backend.im2col(*args)
            assert columns.tobytes() == F.im2col(*args).tobytes()
            per_width[width] = {
                "gather_us": best_of(backend.im2col, *args, repeat=50 * repeat) * 1e6,
                "functional_us": best_of(F.im2col, *args, repeat=50 * repeat) * 1e6,
                "index_kib": columns.shape[0] * kernel * kernel * np.intp(0).nbytes / 1024,
            }
        print(f"{'im2col gather':>16} | {name:<15} " + " | ".join(
            f"w{w} {r['gather_us']:5.1f} vs {r['functional_us']:5.1f}us, index {r['index_kib']:.1f} KiB"
            for w, r in per_width.items()
        ))
    total = {w: sum(layer[w]["gather_us"] for layer in layers.values()) for w in (1, 3, 16)}
    return {"name": "im2col_gather", "unit": "us", "layers": layers, "value": total[1],
            "per_width_total_us": total, "backend": "fast"}


def _operand_choice_row(rng, repeat):
    """Every layer of a crispbench-shaped CRISP tenant at batch 1: the operand
    the fast kernel picks by size, and the microseconds of both candidates."""
    from unittest import mock

    from benchlib import best_of

    from repro.backend import fast as fast_module
    from repro.nn.models.base import conv_input_sizes

    model = _pruned_resnet_tiny(3, 12)
    sizes = conv_input_sizes(model)
    engine = Engine(model, backend="fast", weight_format="crisp",
                    n=BENCH_N, m=BENCH_M, block_size=BENCH_BLOCK)
    fast = get_backend("fast")
    chosen = fast_module.DENSE_OPERAND_MAX_ENTRIES
    layers = {}
    for name, layer in prunable_layers(model).items():
        fmt = engine.formats[name]
        rows, cols = fmt.shape
        positions = 1
        if name in sizes:
            k, s, p = layer.kernel_size, layer.stride, layer.padding
            positions = int(np.prod([F.conv_output_size(e, k, s, p) for e in sizes[name]]))
        acts = rng.normal(size=(rows, positions))
        timings = {}
        # The rule is a module constant: patch it per candidate while the
        # (folded) encoding is placed, so each candidate gets its own operand.
        for candidate, limit in (("dense_t", rows * cols), ("tile_gemm", 0)):
            with mock.patch.object(fast_module, "DENSE_OPERAND_MAX_ENTRIES", limit):
                (operand,) = fast.bind_weights([(fmt, np.ones(cols))])
            assert (operand.dense_t is not None) == (candidate == "dense_t")
            timings[candidate] = best_of(fast.sparse_matmul, operand, acts, repeat=50 * repeat) * 1e6
        pick = "dense_t" if rows * cols <= chosen else "tile_gemm"
        layers[name] = {"shape": [rows, cols], "positions": positions, "operand": pick,
                        **{f"{k}_us": v for k, v in timings.items()}}
        print(f"{'operand choice':>16} | {name:<21} {rows:>4}x{cols:<4} x{positions:<3} "
              f"-> {pick:<9} | dense {timings['dense_t']:6.1f}us | tiles {timings['tile_gemm']:6.1f}us")
    return {"name": "operand_choice", "unit": "us", "layers": layers,
            "value": sum(l[f"{l['operand']}_us"] for l in layers.values()), "backend": "fast"}


def _resnet_tiny_forward_row(rng, repeat):
    """Model vs measured, in one line: the same pruned ``resnet_tiny`` and the
    same single image through ``module.eval()``'s own forward, on a ``dense``
    and on a ``crisp`` engine, beside what the accelerator model predicts the
    sparsity is worth on CRISP-STC."""
    from benchlib import best_of

    model = _pruned_resnet_tiny(8, 16)
    image = rng.normal(size=(1, 3, 16, 16))
    pattern = {"backend": "fast", "n": BENCH_N, "m": BENCH_M, "block_size": BENCH_BLOCK}
    model.eval()
    forward_s, logits = {"module": best_of(model, image, repeat=10 * repeat)}, {"module": model(image)}
    for weight_format in ("dense", "crisp"):
        engine = Engine(model, weight_format=weight_format, **pattern)
        logits[weight_format] = engine.predict(image)  # also the one-time decode
        forward_s[weight_format] = best_of(engine.predict, image, repeat=10 * repeat)
    report = compare_accelerators(workloads_from_engine(engine, batch=1))
    np.testing.assert_allclose(logits["crisp"], logits["dense"], atol=1e-8)
    np.testing.assert_allclose(logits["crisp"], logits["module"], atol=1e-9)
    crisp_stc = next(n for n in report.accelerator_names if n.startswith("crisp-stc"))
    predicted = report.overall_speedup(crisp_stc)
    speedup = forward_s["dense"] / forward_s["crisp"]
    print(
        f"{'resnet_tiny fwd':>16} | {forward_s['dense'] * 1e3:9.2f}ms | "
        f"{forward_s['crisp'] * 1e3:9.2f}ms | {speedup:6.1f}x  "
        f"(dense vs crisp engine; hw model predicts {predicted:.1f}x; "
        f"module.eval() forward {forward_s['module'] * 1e3:.2f}ms)"
    )
    return {"name": "resnet_tiny_forward", "unit": "s", "module": forward_s["module"],
            "dense": forward_s["dense"], "crisp": forward_s["crisp"],
            "value": forward_s["crisp"], "speedup": speedup,
            "hw_speedup_vs_dense": predicted, "backend": "fast"}


def main(argv=None) -> int:
    import argparse
    import os
    import sys

    from benchlib import best_of, write_records

    # The loop encoder lives with the tests, as the oracle of from_dense.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
    from crisp_loop_oracle import assert_same_encoding, crisp_from_dense_loop

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if CSR / blocked-ELLPACK speedups fall below the "
        "5x target, fast CRISP is slower than 2x fast blocked-ELLPACK, or the "
        "crisp engine's resnet_tiny forward is slower than module.eval()'s "
        "(timing-sensitive; off by default so smoke runs on loaded CI "
        "machines don't flake)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single timing repeat (fast CI sanity run)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write machine-readable BENCH_*.json records to PATH",
    )
    args = parser.parse_args(argv)
    repeat = 1 if args.smoke else 3

    rng = np.random.default_rng(0)
    sparse, acts = _bench_operands(rng)
    reference = get_backend("reference")
    fast = get_backend("fast")

    cases = [
        ("csr", CSRFormat.from_dense(sparse)),
        ("blocked-ellpack", BlockedEllpackFormat.from_dense(sparse, BENCH_BLOCK)),
        ("crisp", CRISPFormat.from_dense(sparse, BENCH_N, BENCH_M, BENCH_BLOCK)),
    ]

    print(
        f"sparse GEMM {BENCH_ROWS}x{BENCH_COLS} weight, batch {BENCH_BATCH}, "
        f"{BENCH_N}:{BENCH_M} in {BENCH_BLOCK}x{BENCH_BLOCK} blocks, ~85% sparse"
    )
    print(f"{'format':>16} | {'reference':>11} | {'fast':>11} | speedup")
    failures = []
    records = []
    for name, fmt in cases:
        ref_fn = reference.sparse_matmul
        fast_fn = fast.sparse_matmul
        # An engine places each operand once, at bind; time the multiply over it.
        (operand,) = fast.bind_weights([(fmt, np.ones(fmt.shape[1]))])
        np.testing.assert_allclose(fast_fn(operand, acts), ref_fn(fmt, acts), atol=1e-8)
        np.testing.assert_allclose(fast_fn(fmt, acts), ref_fn(fmt, acts), atol=1e-8)
        t_ref = best_of(ref_fn, fmt, acts, repeat=repeat)
        # Sub-millisecond calls: a single sample right after the loop kernel
        # has emptied the caches would time the cache, not the kernel.
        t_fast = best_of(fast_fn, operand, acts, repeat=10 * repeat)
        speedup = t_ref / t_fast
        print(f"{name:>16} | {t_ref * 1e3:9.2f}ms | {t_fast * 1e3:9.2f}ms | {speedup:6.1f}x")
        records.append(
            # value is the fast-backend timing, so the record says so
            # explicitly rather than inheriting the process default.
            {"name": f"{name}_matmul", "unit": "s", "reference": t_ref, "fast": t_fast,
             "value": t_fast, "speedup": speedup, "backend": "fast"}
        )
        if name in ("csr", "blocked-ellpack") and speedup < 5.0:
            failures.append(f"{name}: {speedup:.1f}x < 5x target")
    # Both formats run the same tile GEMM once their operands are placed.
    fast_ms = {record["name"]: record["fast"] * 1e3 for record in records}
    if fast_ms["crisp_matmul"] > 2.0 * fast_ms["blocked-ellpack_matmul"]:
        failures.append(
            f"fast crisp {fast_ms['crisp_matmul']:.2f}ms > 2x fast blocked-ellpack "
            f"{fast_ms['blocked-ellpack_matmul']:.2f}ms"
        )

    # The cold-build cost of serving: one encode of the bench operand, loop
    # oracle vs CRISPFormat.from_dense.  Tracked, not gated by --check.
    encode_args = (sparse, BENCH_N, BENCH_M, BENCH_BLOCK)
    assert_same_encoding(CRISPFormat.from_dense(*encode_args), crisp_from_dense_loop(*encode_args))
    t_loop = best_of(crisp_from_dense_loop, *encode_args, repeat=repeat)
    t_encode = best_of(CRISPFormat.from_dense, *encode_args, repeat=repeat)
    speedup = t_loop / t_encode
    print(
        f"{'crisp encode':>16} | {t_loop * 1e3:9.2f}ms | {t_encode * 1e3:9.2f}ms | "
        f"{speedup:6.1f}x  (loop oracle vs from_dense)"
    )
    records.append(
        {"name": "crisp_encode", "unit": "s", "reference": t_loop, "fast": t_encode,
         "value": t_encode, "speedup": speedup, "backend": "fast"}
    )

    forward = _resnet_tiny_forward_row(rng, repeat)
    records.append(forward)
    # The compiled plan (BN folded, no Module in the loop) reads ~0.5x the module.
    if forward["crisp"] > forward["module"]:
        failures.append(
            f"crisp engine forward {forward['crisp'] * 1e3:.2f}ms > module.eval() forward "
            f"{forward['module'] * 1e3:.2f}ms"
        )
    records.extend(_tenant_rows(rng, repeat))  # tracked, not gated by --check
    records.append(_im2col_gather_row(rng, repeat))  # tracked, not gated by --check
    records.append(_operand_choice_row(rng, repeat))  # tracked, not gated by --check

    if args.json:
        write_records(
            args.json,
            "sparse_kernels",
            {
                "rows": BENCH_ROWS, "cols": BENCH_COLS, "batch": BENCH_BATCH,
                "n": BENCH_N, "m": BENCH_M, "block_size": BENCH_BLOCK,
                "target_sparsity": 0.85, "smoke": args.smoke,
            },
            records,
        )

    if failures:
        print(("FAIL: " if args.check else "below target (not enforced): ") + "; ".join(failures))
        return 1 if args.check else 0
    print(
        "ok: fast backend meets the >=5x target on CSR and blocked-ELLPACK, "
        "crisp is within 2x of blocked-ELLPACK, and the crisp engine's forward "
        "is no slower than the module's"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
