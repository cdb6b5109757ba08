"""The engine backend seam: one registry under every campaign run.

:class:`~repro.specs.model.EngineSpec` names its evaluation backend
(``backend=`` field, validated against
:data:`~repro.specs.model.ENGINE_BACKENDS`); this package maps those
names onto engine factories so :mod:`repro.specs.dispatch` and the CLI
route every campaign through one seam instead of hard-wiring
:class:`~repro.faults.masks.MaskCampaignEngine`:

* ``numpy`` — the reference in-process engine (bitwise-stable float64
  results, the baseline every other tier is measured against);
* ``threaded`` — tiles chunk evaluation over a thread pool
  (:class:`~repro.backends.threaded.ThreadedMaskEngine`; the GEMM +
  segment-sum path releases the GIL);
* ``quantized-int8`` / ``float16`` — reduced-precision probe tiers
  (:class:`~repro.backends.quantized.QuantizedMaskEngine`) that round
  every layer's emissions to the wire precision of Theorem 5's
  quantisation model before faults corrupt them.

Every factory shares one signature::

    factory(injector, x, *, chunk_size, reduction, dtype, workers)

and returns an engine exposing the :class:`MaskCampaignEngine`
evaluation contract (``evaluate`` / ``outputs`` / ``nominal`` plus the
``network`` / ``injector`` / ``xb64`` / ``chunk_size`` attributes the
campaign runners guard on, and the ``profile`` charge point they set
from ``obs.profile`` for an observed run) — so a backend engine drops
straight into ``sampled_campaign_errors(engine=...)``.

The adaptive layer (:mod:`repro.faults.adaptive`) rides the same
contract: confidence-sequence stopping and the stratified estimator
consume engines exclusively through ``evaluate`` on
:data:`~repro.faults.masks.SAMPLE_BLOCK` boundaries, so every backend
tier composes with early stopping unchanged — a ``StoppingSpec`` on a
``quantized-int8`` campaign stops on exactly the blocks the numpy tier
would, just cheaper per block.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "available_backends",
    "build_engine",
    "get_backend",
    "register_backend",
]

#: backend name -> engine factory, filled by :func:`register_backend`.
_BACKENDS: Dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> Callable:
    """Register ``factory`` under ``name`` (last registration wins).

    Factories take ``(injector, x, *, chunk_size, reduction, dtype,
    workers)`` and return an engine with the
    :class:`~repro.faults.masks.MaskCampaignEngine` evaluation
    contract.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _BACKENDS[name] = factory
    return factory


def get_backend(name: str) -> Callable:
    """The factory registered under ``name``; ``KeyError`` with the
    available names otherwise."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown engine backend {name!r}; available: "
            f"{available_backends()}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def build_engine(
    name: str,
    injector,
    x,
    *,
    chunk_size: int = 1024,
    reduction: str = "max",
    dtype: "str | np.dtype" = np.float64,
    workers: int = 0,
):
    """Build the engine for backend ``name`` — THE seam entry point.

    ``workers`` is advisory: the ``threaded`` backend sizes its pool
    from it, the in-process backends ignore it (their process fan-out
    is the campaign runners' job, not the engine's).
    """
    return get_backend(name)(
        injector,
        x,
        chunk_size=chunk_size,
        reduction=reduction,
        dtype=dtype,
        workers=workers,
    )


def _numpy_engine(injector, x, *, chunk_size, reduction, dtype, workers):
    """The reference backend: a plain :class:`MaskCampaignEngine`."""
    from ..faults.masks import MaskCampaignEngine

    return MaskCampaignEngine(
        injector, x, chunk_size=chunk_size, reduction=reduction, dtype=dtype
    )


register_backend("numpy", _numpy_engine)

# Importing the tier modules registers "threaded", "quantized-int8"
# and "float16" (they call register_backend at import time).
from . import quantized, threaded  # noqa: E402,F401  (registration imports)
