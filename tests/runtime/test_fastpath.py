"""Fast-path precedence: explicit arg > scoped switch > config mode > env.

Primitives follow :func:`resolve_fast` with no size rule; the per-algorithm
crossover is applied once, by ``color_with`` (``tests/kernels/test_dispatch.py``).
"""

import math

import numpy as np
import pytest

import repro.runtime.fastpath as fastpath
from repro.core.algorithms.registry import REGISTRY, color_with
from repro.core.problem import IVCInstance
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, set_default_context
from repro.runtime.fastpath import (
    fast_path_mode,
    fast_paths,
    fast_paths_enabled,
    resolve_fast,
    set_fast_paths,
)


@pytest.fixture(autouse=True)
def _no_override(monkeypatch):
    """Each test starts with no legacy switch and a fresh default context."""
    monkeypatch.setattr(fastpath, "_override", None)
    set_default_context(None)
    yield
    set_default_context(None)


def _ctx(mode):
    return ExecutionContext(RuntimeConfig(fast_paths=mode))


def _dispatched_fast(n, ctx):
    """Whether ``color_with(GLL, fast=None)`` on an ``n x n`` grid took the
    kernel under ``ctx``."""
    inst = IVCInstance.from_grid_2d(np.ones((n, n), dtype=np.int64))
    color_with(inst, "GLL", context=ctx)
    return ctx.metrics.snapshot()["counters"].get("registry.dispatch_fast", 0) == 1


class TestExplicitArgument:
    def test_beats_everything(self):
        set_fast_paths(False)
        assert resolve_fast(True, context=_ctx("off")) is True
        set_fast_paths(True)
        assert resolve_fast(False, context=_ctx("on")) is False

    def test_resolve_fast_normalizes(self):
        assert resolve_fast(True, context=_ctx("off")) is True
        assert resolve_fast(False, context=_ctx("on")) is False


class TestLegacySwitch:
    def test_beats_config_mode(self):
        set_fast_paths(False)
        assert resolve_fast(None, context=_ctx("on")) is False
        set_fast_paths(True)
        assert resolve_fast(None, context=_ctx("off")) is True

    def test_true_keeps_auto_size_threshold(self):
        """set_fast_paths(True) restores auto mode (the per-algorithm
        crossover in color_with), not force-on."""
        set_fast_paths(True)
        assert fast_path_mode(_ctx("on")) == "auto"
        below = math.isqrt(REGISTRY.get("GLL").crossover[2] - 1)
        assert _dispatched_fast(below, _ctx("on")) is False
        assert _dispatched_fast(below + 1, _ctx("on")) is True

    def test_scoped_override_restores_previous_state(self):
        ctx = _ctx("on")
        with fast_paths(False):
            assert resolve_fast(None, context=ctx) is False
        # no override before the block -> back to following the config
        assert fastpath._override is None
        assert resolve_fast(None, context=ctx) is True

    def test_scoped_override_nests(self):
        set_fast_paths(True)
        with fast_paths(False):
            assert fast_paths_enabled() is False
        assert fastpath._override is True


class TestConfigMode:
    def test_off_on_auto(self):
        assert resolve_fast(None, context=_ctx("off")) is False
        assert resolve_fast(None, context=_ctx("on")) is True
        # Primitives apply no size rule: auto means kernel where one applies.
        assert resolve_fast(None, context=_ctx("auto")) is True
        assert _dispatched_fast(2, _ctx("on")) is True
        assert _dispatched_fast(2, _ctx("auto")) is False
        assert _dispatched_fast(64, _ctx("off")) is False

    def test_enabled_means_not_off(self):
        assert fast_paths_enabled(_ctx("off")) is False
        assert fast_paths_enabled(_ctx("on")) is True
        assert fast_paths_enabled(_ctx("auto")) is True


class TestEnvironmentLayer:
    def test_ambient_context_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "off")
        set_default_context(None)  # force a rebuild under the patched env
        assert resolve_fast(None) is False
        monkeypatch.setenv("REPRO_FAST_PATHS", "on")
        set_default_context(None)
        assert resolve_fast(None) is True

    def test_explicit_context_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "off")
        assert resolve_fast(None, context=_ctx("on")) is True
