"""Save/load round-trips: every registered estimator must reproduce its
estimates bit-for-bit after being persisted and reloaded in a fresh object."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import SelectivityEstimator, create_estimator, load_estimator, read_metadata
from repro.autodiff import Tensor
from repro.core import SelNetEstimator
from repro.core.control_points import PGenerator
from repro.nn import Linear
from repro.persistence import FORMAT_VERSION, SIDECAR_FILE, STATE_FILE, WEIGHTS_FILE
from repro.registry import available_estimators

#: fast fitting parameters per registry name (tiny split, a couple of epochs)
_FAST_SELNET = dict(
    num_control_points=4,
    latent_dim=3,
    tau_hidden_sizes=(8,),
    p_hidden_sizes=(12, 8),
    embedding_dim=4,
    ae_hidden_sizes=(8,),
    epochs=2,
    pretrain_epochs=1,
    ae_pretrain_epochs=1,
    batch_size=64,
    early_stopping_patience=None,
)

FAST_PARAMS = {
    "lsh": dict(num_samples=128),
    "kde": dict(num_samples=64),
    "lightgbm": dict(num_trees=6),
    "lightgbm-m": dict(num_trees=6),
    "dnn": dict(epochs=2),
    "moe": dict(epochs=2),
    "rmi": dict(epochs=2),
    "dln": dict(epochs=2),
    "umnn": dict(epochs=2, num_quadrature_points=8),
    "isotonic-dnn": dict(epochs=2),
    "selnet": dict(_FAST_SELNET, num_partitions=2),
    "selnet-ct": dict(_FAST_SELNET),
    "selnet-ad-ct": dict(_FAST_SELNET),
    "selnet-inc": dict(_FAST_SELNET, update_max_epochs=2),
}


@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_roundtrip_is_bit_exact(name, tiny_cosine_split, tmp_path):
    params = dict(FAST_PARAMS[name])
    params["seed"] = 0
    estimator = create_estimator(name, **params).fit(tiny_cosine_split)

    queries = tiny_cosine_split.test.queries
    thresholds = tiny_cosine_split.test.thresholds
    reference = estimator.estimate(queries, thresholds)

    path = tmp_path / name
    estimator.save(path, metadata={"setting": "unit-test"})
    loaded = load_estimator(path)

    assert type(loaded) is type(estimator)
    assert loaded.name == estimator.name
    assert loaded.guarantees_consistency == estimator.guarantees_consistency
    assert loaded.supports_updates == estimator.supports_updates
    assert loaded.expected_input_dim == queries.shape[1]
    np.testing.assert_array_equal(np.asarray(loaded.estimate(queries, thresholds)), reference)


def test_all_registered_estimators_are_covered():
    assert set(available_estimators()) == set(FAST_PARAMS)


class TestSidecar:
    @pytest.fixture(scope="class")
    def saved_kde(self, tiny_cosine_split, tmp_path_factory):
        path = tmp_path_factory.mktemp("models") / "kde"
        estimator = create_estimator("kde", num_samples=64, seed=5).fit(tiny_cosine_split)
        estimator.save(path, metadata={"setting": "face-cos", "scale": "tiny"})
        return path

    def test_sidecar_contents(self, saved_kde):
        metadata = read_metadata(saved_kde)
        assert metadata["format"] == "repro-estimator"
        assert metadata["registry_name"] == "kde"
        assert metadata["class"].endswith("KDEEstimator")
        assert metadata["guarantees_consistency"] is True
        assert metadata["supports_updates"] is False
        assert metadata["params"]["num_samples"] == 64
        assert metadata["params"]["seed"] == 5
        assert metadata["metadata"] == {"setting": "face-cos", "scale": "tiny"}

    def test_sidecar_is_valid_json_on_disk(self, saved_kde):
        with open(saved_kde / SIDECAR_FILE) as handle:
            json.load(handle)

    def test_load_via_base_class_and_subclass(self, saved_kde):
        from repro.baselines import KDEEstimator

        assert isinstance(SelectivityEstimator.load(saved_kde), KDEEstimator)
        assert isinstance(KDEEstimator.load(saved_kde), KDEEstimator)
        with pytest.raises(TypeError):
            SelNetEstimator.load(saved_kde)

    def test_missing_sidecar_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_estimator(tmp_path)


class TestNetworkCheckpoints:
    def test_selnet_weights_go_through_npz(self, tiny_cosine_split, tmp_path):
        params = dict(FAST_PARAMS["selnet-ct"], seed=0)
        estimator = create_estimator("selnet-ct", **params).fit(tiny_cosine_split)
        path = tmp_path / "selnet-ct"
        estimator.save(path)
        assert (path / WEIGHTS_FILE).is_file()
        assert (path / STATE_FILE).is_file()

        with np.load(path / WEIGHTS_FILE) as archive:
            keys = list(archive.files)
        assert keys and all(key.startswith("model::") for key in keys)
        assert len(keys) == len(estimator.model.state_dict())

    def test_mmap_load_is_bit_exact(self, tiny_cosine_split, tmp_path):
        """``load_estimator(mmap=True)`` maps weights.npz instead of reading
        it eagerly, with identical estimates — and the raw mapped views it
        loads from are byte-equal to the eager arrays."""
        from repro.nn.serialization import load_state

        params = dict(FAST_PARAMS["selnet-ct"], seed=0)
        estimator = create_estimator("selnet-ct", **params).fit(tiny_cosine_split)
        path = tmp_path / "model"
        estimator.save(path)

        eager = load_state(path / WEIGHTS_FILE)
        mapped = load_state(path / WEIGHTS_FILE, mmap=True)
        assert sorted(mapped) == sorted(eager)
        for key, array in eager.items():
            view = mapped[key]
            assert not view.flags.writeable  # read-only pages, never a copy
            np.testing.assert_array_equal(view, array)

        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        reference = np.asarray(load_estimator(path).estimate(queries, thresholds))
        via_mmap = load_estimator(path, mmap=True)
        np.testing.assert_array_equal(
            np.asarray(via_mmap.estimate(queries, thresholds)), reference
        )

    def test_corrupted_weights_are_detected(self, tiny_cosine_split, tmp_path):
        params = dict(FAST_PARAMS["selnet-ct"], seed=0)
        estimator = create_estimator("selnet-ct", **params).fit(tiny_cosine_split)
        path = tmp_path / "model"
        estimator.save(path)

        state = dict(np.load(path / WEIGHTS_FILE))
        first = next(iter(state))
        state[first] = np.zeros((1, 1))  # wrong shape
        np.savez(path / WEIGHTS_FILE.replace(".npz", ""), **state)
        with pytest.raises(ValueError):
            load_estimator(path)


def _downgrade_to_format1(path):
    """Rewrite a saved SelNet directory the way format 1 stored it: every
    shared tensor under each of its paths, and one Linear(E, 1) per decoder."""
    with open(path / STATE_FILE, "rb") as handle:
        state = pickle.load(handle)
    # selnet-inc keeps its network inside the pickled update state only.
    model = state["model"] if "model" in state else state["state"].estimator.model
    legacy = {}
    if (path / WEIGHTS_FILE).is_file():
        with np.load(path / WEIGHTS_FILE) as archive:
            weights = {key: archive[key] for key in archive.files}
        for key, array in weights.items():
            prefix, _, kind = key.rpartition("decoder_")
            if kind in ("weight", "bias") and prefix.endswith("p_generator."):
                for index, slot in enumerate(array):  # weight (E, 1), bias (1,)
                    legacy_key = f"{prefix}decoders.{index}.{kind}"
                    legacy[legacy_key] = slot if kind == "weight" else slot[0]
            else:
                legacy[key] = array
        for alias, canonical in model.parameter_aliases().items():
            legacy[f"model::{alias}"] = weights[f"model::{canonical}"]
        np.savez(path / WEIGHTS_FILE, **legacy)

    for module in model.modules():
        if isinstance(module, PGenerator):
            weight = vars(module).pop("decoder_weight").data
            bias = vars(module).pop("decoder_bias").data
            decoders = []
            for index in range(module.num_outputs):
                decoder = Linear(module.embedding_dim, 1)
                decoder.weight = Tensor(weight[index], requires_grad=True, name="weight")
                decoder.bias = Tensor(bias[index, 0], requires_grad=True, name="bias")
                decoders.append(decoder)
            module.decoders = decoders
    with open(path / STATE_FILE, "wb") as handle:
        pickle.dump(state, handle)

    metadata = json.loads((path / SIDECAR_FILE).read_text())
    metadata["format_version"] = 1
    (path / SIDECAR_FILE).write_text(json.dumps(metadata))
    return legacy


class TestFormatVersions:
    @pytest.mark.parametrize("name", ["selnet", "selnet-ct", "selnet-inc"])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_format1_checkpoint_loads_bit_identically(
        self, name, mmap, tiny_cosine_split, tmp_path
    ):
        params = dict(FAST_PARAMS[name], seed=0)
        if name == "selnet":
            params["num_partitions"] = 3
        estimator = create_estimator(name, **params).fit(tiny_cosine_split)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        reference = estimator.estimate(queries, thresholds)
        compiled = estimator.compiled().predict(queries, thresholds)

        path = tmp_path / name
        estimator.save(path)
        legacy = _downgrade_to_format1(path)
        if name != "selnet-inc":
            assert any(".decoders.0.weight" in key for key in legacy)
        if name == "selnet":
            assert any(".autoencoder." in key for key in legacy)

        loaded = load_estimator(path, mmap=mmap)
        np.testing.assert_array_equal(loaded.estimate(queries, thresholds), reference)
        np.testing.assert_array_equal(loaded.compiled().predict(queries, thresholds), compiled)

        resaved = tmp_path / f"{name}-resaved"
        loaded.save(resaved)
        assert read_metadata(resaved)["format_version"] == FORMAT_VERSION == 2
        if name != "selnet-inc":
            with np.load(resaved / WEIGHTS_FILE) as archive:
                keys = list(archive.files)
            assert not any(".decoders." in key for key in keys)
            assert not any(".autoencoder." in key for key in keys)

    def test_unknown_format_version_rejected(self, tiny_cosine_split, tmp_path):
        path = tmp_path / "kde"
        create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split).save(path)
        metadata = json.loads((path / SIDECAR_FILE).read_text())
        metadata["format_version"] = FORMAT_VERSION + 1
        (path / SIDECAR_FILE).write_text(json.dumps(metadata))
        with pytest.raises(ValueError, match="format version"):
            load_estimator(path)
