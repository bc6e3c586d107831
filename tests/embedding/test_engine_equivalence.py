"""Downstream equivalence of the vectorized and reference engines.

The promise of the alias-sampled engine is "same model, faster":
swapping the pre-training implementation must not change what the
pre-trained matrices are *for*.  These tests check the two consumer-facing
properties — cluster geometry of the embeddings themselves, and the test
MAE of a DeepOD trained on top of each engine's initialisation.

``embed_graph`` always runs the vectorized engine through the module
globals of ``repro.embedding.api``; the reference runs swap the
``*_reference`` oracles in there.
"""

import numpy as np
import pytest

from repro.core import DeepODConfig, DeepODTrainer, build_deepod
from repro.datagen import DatasetSpec, build, strip_trajectories
from repro.embedding import (
    EmbeddingConfig, embed_graph, generate_node2vec_walks_reference,
    generate_walks_reference, train_skipgram_reference,
)
from repro.embedding import api
from repro.roadnet import WeightedDigraph

REFERENCE = {
    "generate_node2vec_walks": generate_node2vec_walks_reference,
    "generate_walks": generate_walks_reference,
    "train_skipgram": train_skipgram_reference,
}


def use_engine(monkeypatch, engine: str) -> None:
    """Route ``embed_graph`` through ``engine``'s walks and SGNS."""
    if engine == "reference":
        for name, oracle in REFERENCE.items():
            monkeypatch.setattr(api, name, oracle)


def two_cliques(k=5):
    g = WeightedDigraph(2 * k)
    for base in (0, k):
        for i in range(k):
            for j in range(k):
                if i != j:
                    g.add_edge(base + i, base + j, 1.0)
    g.add_edge(0, k, 0.1)
    g.add_edge(k, 0, 0.1)
    return g


def clique_margin(method: str, seed: int = 0) -> float:
    emb = embed_graph(two_cliques(), EmbeddingConfig(
        method=method, dim=16, num_walks=12, walk_length=10,
        epochs=3, seed=seed))
    emb = emb / (np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12)
    intra = np.mean([emb[i] @ emb[j]
                     for i in range(5) for j in range(5) if i != j])
    inter = np.mean([emb[i] @ emb[j + 5]
                     for i in range(5) for j in range(5)])
    return float(intra - inter)


class TestEmbeddingGeometryParity:
    @pytest.mark.parametrize("method", ["deepwalk", "node2vec"])
    def test_vectorized_separates_clusters(self, method):
        assert clique_margin(method) > 0

    @pytest.mark.parametrize("method", ["deepwalk", "node2vec"])
    def test_reference_separates_clusters(self, method, monkeypatch):
        use_engine(monkeypatch, "reference")
        assert clique_margin(method) > 0


class TestDownstreamDeepOD:
    """Same seed, same data, same model — only the embedding engine
    differs.  Test MAE must be statistically indistinguishable (the
    engines are different RNG consumers, so bitwise equality is not
    expected; a loose relative band is)."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return build(DatasetSpec("mini-chengdu", num_trips=120, num_days=14))

    def _test_mae(self, dataset, engine: str) -> float:
        config = DeepODConfig(
            d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8, d5_m=16,
            d6_m=8, d7_m=16, d9_m=16, d_h=16, d_traf=8, batch_size=16,
            epochs=2, use_external_features=False, seed=0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_engine(monkeypatch, engine)
            model = build_deepod(dataset, config)
        trainer = DeepODTrainer(model, dataset, eval_every=0)
        trainer.fit(track_validation=False)
        test = strip_trajectories(dataset.split.test)
        preds = trainer.predict(test)
        actual = np.array([t.travel_time for t in test])
        return float(np.mean(np.abs(preds - actual)))

    def test_same_seed_mae_within_band(self, dataset):
        mae_vec = self._test_mae(dataset, "vectorized")
        mae_ref = self._test_mae(dataset, "reference")
        rel = abs(mae_vec - mae_ref) / mae_ref
        assert rel < 0.25, (
            f"vectorized MAE {mae_vec:.2f}s vs reference {mae_ref:.2f}s "
            f"(rel diff {rel:.1%})")
