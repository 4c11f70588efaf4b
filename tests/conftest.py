"""Shared pytest fixtures: tiny datasets, workload splits and golden numbers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SelNetConfig
from repro.data import build_workload_split, make_dataset

#: the tiny-scale values of every table and figure that the tests reproduce
GOLDEN_PATH = Path(__file__).with_name("golden_tiny.json")
#: a float matches its golden value within this relative tolerance (and
#: within pytest.approx's 1e-12 absolute floor, for values at zero)
GOLDEN_RELATIVE_TOLERANCE = 1e-6
#: wall-clock fields of a table row, which no two runs share
_TIMING_FIELDS = ("fit_seconds", "estimation_ms")


def golden_values(value):
    """The JSON form of a table's rows or a figure's series, without timing
    fields."""
    if isinstance(value, dict):
        return {
            str(key): golden_values(item)
            for key, item in value.items()
            if key not in _TIMING_FIELDS
        }
    if isinstance(value, (list, tuple, np.ndarray)):
        return [golden_values(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _assert_matches(measured, expected, path: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(measured, dict) and sorted(measured) == sorted(expected), path
        for key, item in expected.items():
            _assert_matches(measured[key], item, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(measured, list) and len(measured) == len(expected), path
        for index, item in enumerate(expected):
            _assert_matches(measured[index], item, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert measured == pytest.approx(expected, rel=GOLDEN_RELATIVE_TOLERANCE), path
    else:
        assert measured == expected, path


@pytest.fixture(scope="session")
def golden():
    """``golden(key, value)`` checks a table's rows or a figure's series
    against ``golden_tiny.json``.

    On a mismatch the message carries the measured entry as JSON: a change
    that moves the numbers on purpose replaces the entry with it.
    """
    recorded = json.loads(GOLDEN_PATH.read_text())

    def check(key: str, value) -> None:
        measured = golden_values(value)
        try:
            _assert_matches(measured, recorded[key], key)
        except (AssertionError, KeyError) as error:
            raise AssertionError(
                f"{key} differs from {GOLDEN_PATH.name} at {error}; measured:\n"
                + json.dumps(measured)
            ) from None

    return check


@pytest.fixture(scope="session")
def tiny_face_dataset():
    """A small normalised clustered dataset (cosine distance)."""
    return make_dataset("face_like", num_vectors=600, dim=10, num_clusters=12, seed=5)


@pytest.fixture(scope="session")
def tiny_fasttext_dataset():
    """A small unnormalised dataset (cosine and Euclidean distance)."""
    return make_dataset("fasttext_like", num_vectors=600, dim=12, num_clusters=10, seed=5)


@pytest.fixture(scope="session")
def tiny_cosine_split(tiny_face_dataset):
    """Workload split on the tiny cosine dataset."""
    return build_workload_split(
        tiny_face_dataset, "cosine", num_queries=40, thresholds_per_query=10, seed=3
    )


@pytest.fixture(scope="session")
def tiny_euclidean_split(tiny_fasttext_dataset):
    """Workload split on the tiny Euclidean dataset."""
    return build_workload_split(
        tiny_fasttext_dataset, "euclidean", num_queries=40, thresholds_per_query=10, seed=3
    )


@pytest.fixture(scope="session")
def fast_selnet_config():
    """A SelNet configuration small enough for unit tests."""
    return SelNetConfig(
        num_control_points=6,
        latent_dim=4,
        tau_hidden_sizes=(16,),
        p_hidden_sizes=(24, 16),
        embedding_dim=6,
        ae_hidden_sizes=(16,),
        epochs=8,
        pretrain_epochs=3,
        ae_pretrain_epochs=3,
        batch_size=64,
        learning_rate=5e-3,
        early_stopping_patience=None,
        seed=1,
    )


@pytest.fixture()
def rng():
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)
