"""Tests for :mod:`repro.blas`: one BLAS thread in every process.

Every process that imports ``repro`` runs one BLAS thread — the test process,
a shard child from :func:`repro.cluster.procworker.mp_context` (``fork`` here:
it inherits the count) and a ``spawn`` child (it re-imports ``repro`` and sets
it again).  On a BLAS the module does not recognise it does nothing.
"""

from __future__ import annotations

import ctypes
import multiprocessing

import numpy as np
import pytest

from repro import blas
from repro.cluster.procworker import mp_context


def _numpy_blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # a build that cannot say: assume OpenBLAS, run the tests
        return "openblas"


pytestmark = pytest.mark.skipif(
    "openblas" not in _numpy_blas_name().lower(),
    reason="NumPy is linked against a BLAS other than OpenBLAS",
)


def _report_state(conn) -> None:
    import repro.blas

    conn.send(repro.blas.state())
    conn.close()


def _state_in_child(ctx) -> dict:
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_report_state, args=(sender,))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "child sent no BLAS state"
        return receiver.recv()
    finally:
        child.join(60)
        assert child.exitcode == 0


def test_import_repro_sets_one_thread():
    state = blas.state()
    assert "openblas" in state["library"]
    assert state["threads"] == blas.THREADS == 1


def test_shard_child_runs_one_thread():
    state = _state_in_child(mp_context())
    assert "openblas" in state["library"]
    assert state["threads"] == 1


def test_spawn_child_runs_one_thread():
    state = _state_in_child(multiprocessing.get_context("spawn"))
    assert "openblas" in state["library"]
    assert state["threads"] == 1


def test_engine_stats_report_blas():
    from repro.backend import Engine
    from repro.nn.models import resnet_tiny

    engine = Engine(resnet_tiny(num_classes=4, input_size=16, seed=0), weight_format="dense")
    assert engine.stats()["blas"] == blas.state()


def test_unrecognised_blas_is_a_silent_no_op(monkeypatch):
    _, get_threads = blas._bound
    set_threads = getattr(
        ctypes.CDLL(blas._library_path()), get_threads.__name__.replace("get_", "set_")
    )
    set_threads.argtypes = [ctypes.c_int]
    monkeypatch.setattr(blas, "_bound", blas._bound)  # restored on teardown
    monkeypatch.setattr(blas, "_library_path", lambda: None)
    set_threads(2)
    try:
        blas.apply()
        assert get_threads() == 2
        assert blas.state() == {"library": None, "threads": None}
    finally:
        set_threads(blas.THREADS)
    assert get_threads() == 1
