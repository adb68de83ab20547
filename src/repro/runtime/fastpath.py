"""Fast-path resolution: per-call arg > scoped decision > config mode.

The vectorized kernels in :mod:`repro.kernels` are differentially tested to
produce *identical* colorings to the reference Python loops.  Whether a call
takes them is decided once per algorithm, by
:func:`~repro.core.algorithms.registry.color_with`: in ``"auto"`` mode it
compares the instance's vertex count with the algorithm's measured
crossover (:attr:`~repro.core.algorithms.registry.AlgorithmSpec.crossover`)
and scopes the decision over the call with :func:`fast_paths`.

The primitives underneath (first fit, the recolor pass, the BDP order, BD)
apply no size rule of their own; :func:`resolve_fast` gives them, highest
first:

1. an explicit per-call ``fast=True``/``False`` argument;
2. the scoped decision or legacy process switch (:func:`fast_paths`,
   :func:`set_fast_paths`);
3. the current :class:`~repro.runtime.config.RuntimeConfig` ``fast_paths``
   mode: ``"off"`` → reference, ``"on"``/``"auto"`` → kernel where one
   applies.

The legacy boolean switch maps onto the tri-state as ``True`` → auto and
``False`` → off.  This module lives in ``repro.runtime`` so :mod:`repro.core`
can resolve fast-path decisions without a core→kernels import (the kernels
themselves are bound lazily by the registry).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.runtime.config import FastPathMode
from repro.runtime.context import ExecutionContext, get_context

__all__ = [
    "fast_path_mode",
    "fast_paths_enabled",
    "set_fast_paths",
    "resolve_fast",
    "fast_paths",
]

# The legacy process-wide switch. None = no override, follow the config mode.
# A plain global (not a ContextVar) to preserve the pre-runtime semantics of
# set_fast_paths being visible process-wide, threads included.
_override: Optional[bool] = None


def fast_path_mode(context: Optional[ExecutionContext] = None) -> FastPathMode:
    """The effective tri-state mode: the switch (``True`` → ``"auto"``,
    ``False`` → ``"off"``) if set, else the context's config mode."""
    if _override is not None:
        return "auto" if _override else "off"
    ctx = context if context is not None else get_context()
    return ctx.config.fast_paths


def fast_paths_enabled(context: Optional[ExecutionContext] = None) -> bool:
    """Whether the vectorized kernels are currently enabled."""
    return fast_path_mode(context) != "off"


def set_fast_paths(enabled: bool) -> None:
    """Legacy process-wide switch: ``True`` ≈ auto mode, ``False`` = off.

    Overrides the config mode for the rest of the process (or until the
    next call).  ``True`` keeps each algorithm's auto-mode crossover in
    :func:`~repro.core.algorithms.registry.color_with`; use
    ``RuntimeConfig(fast_paths="on")`` or per-call ``fast=True`` to force.
    """
    global _override
    _override = bool(enabled)


def resolve_fast(
    fast: Optional[bool], context: Optional[ExecutionContext] = None
) -> bool:
    """A primitive's fast decision: ``None`` follows the switch, then the mode."""
    return fast_paths_enabled(context) if fast is None else bool(fast)


@contextmanager
def fast_paths(enabled: bool) -> Iterator[None]:
    """Scoped override of the fast-path switch (restores the previous state).

    Restores to *no override* if none was active before, so a scoped block
    does not permanently detach the process from its config mode.
    """
    global _override
    previous = _override
    _override = bool(enabled)
    try:
        yield
    finally:
        _override = previous
