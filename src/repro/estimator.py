"""The common estimator interface shared by SelNet and every baseline.

Every selectivity estimator in this library — the paper's SelNet variants and
the nine comparison methods — implements :class:`SelectivityEstimator`, so the
evaluation harness, the benchmarks, the serving layer and the examples can
treat them uniformly.

Beyond ``fit`` / ``estimate``, the interface covers the full lifecycle:

* :meth:`SelectivityEstimator.save` / :meth:`SelectivityEstimator.load`
  round-trip any fitted estimator across processes (network weights go
  through :mod:`repro.nn.serialization`, everything else is pickled next to a
  JSON config sidecar — see :mod:`repro.persistence`);
* :meth:`SelectivityEstimator.update` is the data-update protocol: estimators
  that implement incremental maintenance (``supports_updates = True``, e.g.
  the incremental SelNet of Section 5.4) apply insert/delete batches, all
  others raise :class:`UpdateNotSupportedError` so callers can introspect the
  capability instead of silently serving stale estimates.
"""

from __future__ import annotations

import abc
import os
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .data.workload import WorkloadSplit

PathLike = Union[str, "os.PathLike[str]"]


class UpdateNotSupportedError(NotImplementedError):
    """Raised when ``update`` is called on an estimator without update support."""


class SelectivityEstimator(abc.ABC):
    """Abstract base class for selectivity estimators.

    Attributes
    ----------
    name:
        Human-readable name used in reports (e.g. ``"SelNet"``, ``"KDE"``).
    guarantees_consistency:
        True when the estimator is monotonically non-decreasing in the
        threshold by construction (the models marked ``*`` in the paper's
        tables).
    supports_updates:
        True when the estimator implements the ``update`` protocol (applies
        insert/delete batches and keeps itself accurate, Section 5.4).
    """

    name: str = "estimator"
    guarantees_consistency: bool = False
    supports_updates: bool = False

    #: query dimensionality learned during ``fit`` (None until known); used to
    #: give clear shape errors instead of cryptic numpy broadcast failures
    _input_dim: Optional[int] = None

    #: cached compiled inference kernels, one per precision tier (see
    #: :meth:`compiled`); never pickled, so unpickled, copied and freshly
    #: constructed instances start without any
    _compiled_kernels: Optional[Dict[np.dtype, Any]] = None

    #: bumped by every weight change (:meth:`_invalidate_compiled`), so a
    #: cache of answers can tell whether the estimator it filled from is
    #: still the one serving
    generation: int = 0

    @abc.abstractmethod
    def fit(self, split: WorkloadSplit) -> "SelectivityEstimator":
        """Train / build the estimator from a workload split.

        Estimators are free to use ``split.train`` and ``split.validation``
        (and the database itself via ``split.dataset`` / ``split.oracle``),
        but must never look at ``split.test``.
        """

    @abc.abstractmethod
    def estimate(self, queries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Estimate selectivities for aligned query / threshold arrays.

        Returns a float array of shape ``(len(queries),)``; values are
        clipped to be non-negative by callers that need counts.
        """

    # ------------------------------------------------------------------ #
    # Input validation
    # ------------------------------------------------------------------ #
    @property
    def expected_input_dim(self) -> Optional[int]:
        """Query dimensionality this estimator was fitted on (None if unknown)."""
        return self._input_dim

    def _validate_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError(
                f"expected a single 1-D query vector, got an array of shape {query.shape}; "
                "use estimate() for batches of queries"
            )
        expected = self.expected_input_dim
        if expected is not None and query.shape[0] != expected:
            raise ValueError(
                f"query has {query.shape[0]} dimensions but {self.name} was fitted on "
                f"{expected}-dimensional vectors"
            )
        return query

    # ------------------------------------------------------------------ #
    # Compiled inference
    # ------------------------------------------------------------------ #
    def compiled(self, dtype=np.float64, refresh: bool = False):
        """The frozen pure-NumPy inference kernel for this estimator.

        Compiles lazily on first use and caches one kernel per precision
        tier, so a float64 caller and a float32 service over one estimator
        each keep their own; ``refresh=True`` (or an intervening
        :meth:`fit`, persistence ``load`` or an :meth:`update` that changed
        the weights, which call :meth:`_invalidate_compiled` and so bump
        :attr:`generation`) drops every tier and rebuilds this one from the
        current weights.  An :meth:`update` that left the weights alone
        (``selnet-inc`` without a fine-tune) keeps the kernels.  The SelNet
        family's :meth:`estimate` *is* the default ``float64`` kernel's
        ``predict``, which is bit-equal to the graph-mode ``model.predict``;
        for every other estimator the kernel's ``predict`` is
        :meth:`estimate` itself.  ``float32`` trades that equality for batch
        throughput under an enforced error budget.  See
        :mod:`repro.inference`.
        """
        if refresh:
            self._invalidate_compiled()
        dtype = np.dtype(dtype)
        kernels = self.__dict__.setdefault("_compiled_kernels", {})
        kernel = kernels.get(dtype)
        if kernel is None:
            from .inference import compile_estimator

            kernel = kernels[dtype] = compile_estimator(self, dtype=dtype)
        return kernel

    def _invalidate_compiled(self) -> None:
        """Drop every cached kernel (weights changed: refit, fine-tune, reload)."""
        self.__dict__.pop("_compiled_kernels", None)
        self.generation += 1

    def __getstate__(self) -> Dict[str, Any]:
        # Kernels are derived from the weights: a pickle, a deep copy or a
        # saved ``state.pkl`` recompiles instead of carrying them, at every
        # depth (``selnet-inc`` holds a SelNet estimator of its own).
        state = dict(self.__dict__)
        state.pop("_compiled_kernels", None)
        return state

    # ------------------------------------------------------------------ #
    # Convenience helpers
    # ------------------------------------------------------------------ #
    def estimate_one(self, query: np.ndarray, threshold: float) -> float:
        """Estimate the selectivity of a single query / threshold pair."""
        query = self._validate_query(query)
        if np.ndim(threshold) != 0:
            raise ValueError(
                f"threshold must be a scalar, got an array of shape {np.shape(threshold)}"
            )
        result = self.estimate(query[None, :], np.asarray([threshold], dtype=np.float64))
        return float(result[0])

    def selectivity_curve(self, query: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Estimated selectivity of one query across many thresholds."""
        query = self._validate_query(query)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.ndim != 1:
            raise ValueError(
                f"thresholds must be a 1-D array, got shape {thresholds.shape}"
            )
        queries = np.repeat(query[None, :], len(thresholds), axis=0)
        return self.estimate(queries, thresholds)

    # ------------------------------------------------------------------ #
    # Data-update protocol (Section 5.4)
    # ------------------------------------------------------------------ #
    def update(
        self,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[Sequence[int]] = None,
    ) -> List[Any]:
        """Apply a batch of database inserts and/or deletes.

        ``inserts`` is a ``(n, dim)`` array of new vectors; ``deletes`` is a
        sequence of row indices into the *current* database.  Estimators with
        ``supports_updates = True`` refresh themselves (fine-tuning only when
        accuracy has drifted) and return a list of per-operation reports; all
        others raise :class:`UpdateNotSupportedError`.
        """
        raise UpdateNotSupportedError(
            f"{type(self).__name__} ({self.name!r}) does not support incremental data "
            "updates; pick an estimator whose spec has supports_updates=True "
            "(see repro.available_estimators()), e.g. 'selnet-inc'"
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def get_params(self) -> Dict[str, Any]:
        """Constructor parameters of this estimator, for the JSON sidecar.

        The default implementation mirrors the scikit-learn convention: every
        ``__init__`` argument whose value is stored under an attribute of the
        same name is reported.  Values only need to be JSON-able for the
        sidecar; the pickled state is what actually restores the estimator.
        """
        import inspect

        params: Dict[str, Any] = {}
        try:
            signature = inspect.signature(type(self).__init__)
        except (TypeError, ValueError):  # pragma: no cover - exotic classes
            return params
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            if hasattr(self, name):
                params[name] = getattr(self, name)
        return params

    def save(self, path: PathLike, metadata: Optional[Dict[str, Any]] = None):
        """Persist this (fitted) estimator to a directory.

        Writes a JSON config sidecar (``estimator.json``), the parameters of
        every owned network as an ``.npz`` checkpoint (``weights.npz``, via
        :mod:`repro.nn.serialization`) and the remaining fitted state as a
        pickle — see :func:`repro.persistence.save_estimator`.  ``metadata``
        is merged into the sidecar (the CLI stores the training setting /
        scale / seed there so ``repro estimate`` can rebuild the workload).
        """
        from .persistence import save_estimator

        return save_estimator(self, path, extra_metadata=metadata)

    @classmethod
    def load(cls, path: PathLike) -> "SelectivityEstimator":
        """Load an estimator saved with :meth:`save`.

        Called on a subclass, the loaded estimator must be an instance of
        that subclass; called on :class:`SelectivityEstimator` itself, any
        estimator type is accepted.
        """
        from .persistence import load_estimator

        estimator = load_estimator(path)
        if cls is not SelectivityEstimator and not isinstance(estimator, cls):
            raise TypeError(
                f"{path!r} holds a {type(estimator).__name__}, not a {cls.__name__}"
            )
        return estimator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        consistent = "consistent" if self.guarantees_consistency else "unconstrained"
        return f"{type(self).__name__}(name={self.name!r}, {consistent})"
