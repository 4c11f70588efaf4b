"""Each path imports only the modules it runs.

Every test runs its path in a fresh interpreter and lists the modules that
path must not load: scipy (only KDE's ``estimate`` needs it), ``urllib``'s
HTTP client (only the HTTP client helpers and ``repro top`` use it), the
pipeline and the evaluation harness (only experiments use them) and the
saturation driver (only ``repro saturate`` uses it).  A heavy import at the
top of a module that one of these paths reaches fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import create_estimator

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules no SelNet build, model load or server may load
FORBIDDEN = ("scipy", "urllib.request", "repro.pipeline", "repro.eval", "repro.net.saturate")

#: a tiny split and SelNet configuration, built inside the child interpreter
_TINY_SPLIT = """
from repro import build_workload_split, make_dataset
dataset = make_dataset("face_like", num_vectors=300, dim=8, num_clusters=6, seed=5)
split = build_workload_split(dataset, "cosine", num_queries=20, thresholds_per_query=5, seed=3)
tiny = dict(
    epochs=1, pretrain_epochs=1, ae_pretrain_epochs=1, num_control_points=4, latent_dim=3,
    tau_hidden_sizes=(8,), p_hidden_sizes=(8,), embedding_dim=4, ae_hidden_sizes=(8,),
    batch_size=64,
)
"""


def _loaded_after(code: str, watch=FORBIDDEN) -> list:
    """The modules of ``watch`` loaded once ``code`` ran in a fresh interpreter."""
    report = f"print(json.dumps([m for m in {tuple(watch)!r} if m in sys.modules]))"
    probe = f"{code}\nimport json, sys\n{report}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def saved_selnet(tiny_cosine_split, fast_selnet_config, tmp_path_factory):
    """A model directory holding one fitted partitioned SelNet."""
    directory = tmp_path_factory.mktemp("footprint-models")
    params = asdict(fast_selnet_config)
    params.update(epochs=1, pretrain_epochs=1, ae_pretrain_epochs=1, num_partitions=2)
    create_estimator("selnet", **params).fit(tiny_cosine_split).save(directory / "selnet")
    return directory


class TestImportFootprint:
    @pytest.mark.parametrize("name", ["selnet", "selnet-ct", "selnet-inc"])
    def test_a_selnet_build_loads_none_of_them(self, name):
        code = _TINY_SPLIT + f"""
from repro import create_estimator
estimator = create_estimator({name!r}, **tiny).fit(split)
estimator.estimate(split.test.queries, split.test.thresholds)
"""
        assert _loaded_after(code) == []

    def test_loading_and_serving_a_saved_selnet_loads_none_of_them(
        self, saved_selnet, tiny_cosine_split
    ):
        queries = tiny_cosine_split.test.queries[:4].tolist()
        thresholds = tiny_cosine_split.test.thresholds[:4].tolist()
        code = f"""
import numpy as np
from repro import load_estimator
from repro.serving import EstimationService
load_estimator({str(saved_selnet / "selnet")!r})
service = EstimationService({str(saved_selnet)!r})
service.estimate("selnet", np.array({queries!r}), np.array({thresholds!r}))
"""
        assert _loaded_after(code) == []

    def test_the_serve_path_loads_none_of_them(self):
        code = "import repro.cli\nimport repro.net.server\nrepro.cli.build_parser()"
        assert _loaded_after(code) == []

    def test_a_kde_loads_scipy_at_its_first_estimate(self):
        code = _TINY_SPLIT + """
import sys
from repro import create_estimator
kde = create_estimator("kde", num_samples=32).fit(split)
assert "scipy" not in sys.modules
kde.estimate(split.test.queries[:2], split.test.thresholds[:2])
"""
        assert _loaded_after(code, watch=("scipy", "scipy.special")) == [
            "scipy",
            "scipy.special",
        ]

    def test_lazy_exports_still_resolve(self):
        code = """
import repro, repro.net
from repro import PipelineRunner, use_store
from repro.net import build_server, run_saturation_benchmark, NetworkShardBackend
from repro.obs import run_top
from repro.pipeline import PipelineRunner as Runner
assert PipelineRunner is Runner
for package in (repro, repro.net):
    for name in package.__all__:
        getattr(package, name)
    assert not hasattr(package, "no_such_export")
"""
        assert _loaded_after(code, watch=("repro.pipeline", "repro.net.saturate")) == [
            "repro.pipeline",
            "repro.net.saturate",
        ]
