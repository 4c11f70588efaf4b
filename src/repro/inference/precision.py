"""Precision tiers for compiled inference kernels.

A *precision tier* names the one dtype a compiled kernel stores its weights
in and computes at, together with the error budget the parity gate enforces
for it:

``float64``
    Weights and arithmetic in double precision — bit-equal to graph mode
    (a SelNet's ``model.predict``, any other estimator's ``estimate``); a
    SelNet's ``estimate`` is this tier's kernel.  The budget is the seed's
    absolute parity bound.
``float32``
    Weights and arithmetic in single precision.  Matmuls dispatch to BLAS
    ``sgemm`` on half the bytes, which is where the batch-throughput win
    comes from; estimates agree with graph mode to single precision.

The float32 budget is a *relative* deviation against the float64 graph
answer, ``|compiled - graph| / max(|graph|, 1)``; float64 is gated on the
absolute bit-parity bound.  ``repro infer-bench --dtype ...``
fails beyond them, so a tier's accuracy claim is enforced, not
aspirational.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: per-tier deviation budgets enforced by the infer-bench parity gate.
#: float64 is absolute (bit parity); float32 is relative to the float64
#: ``estimate`` with scale ``max(|reference|, 1)``, chosen with ~10x headroom
#: over deviations observed on trained SelNet models.
DEFAULT_ERROR_BUDGETS = {
    "float64": 1e-12,
    "float32": 1e-3,
}

#: tier order used by reports (widest to narrowest)
TIER_NAMES = tuple(DEFAULT_ERROR_BUDGETS)


@dataclass(frozen=True)
class Precision:
    """One resolved precision tier: its name and its weight/compute dtype."""

    name: str
    dtype: np.dtype

    @property
    def budget(self) -> float:
        return DEFAULT_ERROR_BUDGETS[self.name]

    @property
    def relative(self) -> bool:
        """Whether the budget is a relative bound (float32, not float64)."""
        return self.name != "float64"


#: each tier, keyed by its dtype
_TIERS = {np.dtype(name): Precision(name, np.dtype(name)) for name in TIER_NAMES}


def resolve_precision(dtype=np.float64) -> Precision:
    """The :class:`Precision` tier for a kernel dtype (float64 or float32)."""
    try:
        return _TIERS[np.dtype(dtype)]
    except (TypeError, KeyError):
        raise ValueError(f"unknown precision tier {dtype!r}; available: {TIER_NAMES}") from None


def parse_tier(token: str) -> Precision:
    """Resolve a CLI/config tier token (``float64`` or ``float32``)."""
    return resolve_precision(str(token).strip().lower())


# ---------------------------------------------------------------------- #
# Deviation measurement (the gate's yardstick)
# ---------------------------------------------------------------------- #
def relative_deviation(estimates: np.ndarray, reference: np.ndarray) -> float:
    """Max relative deviation with the parity gate's scale ``max(|ref|, 1)``.

    Selectivities are counts (often large); the ``max(|ref|, 1)`` floor
    keeps tiny absolute wobble on near-zero answers from dominating.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if estimates.size == 0:
        return 0.0
    scale = np.maximum(np.abs(reference), 1.0)
    return float(np.max(np.abs(estimates - reference) / scale))
