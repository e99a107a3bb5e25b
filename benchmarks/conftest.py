"""Shared configuration for what pytest collects under ``benchmarks/``: the
kernel benchmarks, the paper's ablations and crispbench's own tests."""

from __future__ import annotations

import pytest

from repro.experiments import clear_model_cache


@pytest.fixture(scope="session", autouse=True)
def _clear_cache_at_end():
    yield
    clear_model_cache()
