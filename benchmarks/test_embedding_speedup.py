"""Embedding-engine speedup: alias-sampled lockstep vs scalar reference.

The paper's efficiency study (Section 5.1 / Tables 5-6) charges embedding
pre-training to DeepOD's offline cost; this bench measures the tentpole
rewrite directly.  Both engines run the full pre-training pipeline —
node2vec walks, pair harvest, SGNS — on the line graph of a grid city.
One engine's run is timed in process CPU time, which counts the BLAS
threads and not the time the process waits for a shared CPU.  The
engines run in ``PAIRS`` interleaved pairs, alternating which goes
first, and the median of the per-pair ratios must clear the floor:
>= 10x at the default ``REPRO_BENCH_SCALE`` (>= 3x when the scale is
reduced, where fixed overheads eat into the ratio).

Results, with every pair's ratio, land in ``BENCH_embedding.json`` at
the repo root (checked by ``benchmarks.benchfile``).
"""

import time
from pathlib import Path

import numpy as np

from repro.embedding import (
    SkipGramConfig, generate_node2vec_walks,
    generate_node2vec_walks_reference, train_skipgram,
    train_skipgram_reference,
)
from repro.roadnet import grid_city
from repro.roadnet.linegraph import build_line_graph

from .benchfile import write
from .conftest import bench_scale, print_header

NUM_WALKS = 4
WALK_LENGTH = 20
P, Q = 1.0, 2.0
SG = SkipGramConfig(dim=32, window=5, negatives=5, epochs=2)
PAIRS = 5
STAGES = ("walks_s", "sgns_s", "total_s")

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_embedding.json"


def _bench_engine(graph, walk_fn, train_fn, seed=0):
    """Time walk generation and SGNS training (which includes the pair
    harvest and noise-table build of its own engine) for one engine."""
    rng = np.random.default_rng(seed)
    t0 = time.process_time()
    walks = walk_fn(graph, NUM_WALKS, WALK_LENGTH, p=P, q=Q, rng=rng)
    t1 = time.process_time()
    emb = train_fn(walks, graph.num_nodes, SG, rng)
    t2 = time.process_time()
    assert emb.shape == (graph.num_nodes, SG.dim)
    assert np.isfinite(emb).all()
    return {"walks_s": t1 - t0, "sgns_s": t2 - t1,
            "total_s": t2 - t0, "num_walks": len(walks)}


def test_embedding_engine_speedup():
    scale = bench_scale()
    side = max(8, int(round(22 * np.sqrt(min(scale, 4.0)))))
    net = grid_city(side, side)
    graph = build_line_graph(net)
    csr = graph.to_csr()
    floor = 10.0 if scale >= 1.0 else 3.0

    engines = {
        "reference": (generate_node2vec_walks_reference,
                      train_skipgram_reference),
        "vectorized": (generate_node2vec_walks, train_skipgram),
    }
    runs = {name: [] for name in engines}
    for pair in range(PAIRS):
        order = list(engines) if pair % 2 == 0 else list(engines)[::-1]
        for name in order:
            runs[name].append(_bench_engine(graph, *engines[name]))
    ratios = [r["total_s"] / v["total_s"]
              for r, v in zip(runs["reference"], runs["vectorized"])]
    speedup = float(np.median(ratios))
    ref, vec = ({stage: float(np.median([run[stage] for run in runs[name]]))
                 for stage in STAGES}
                for name in engines)

    print_header("Embedding engine — alias-sampled lockstep vs reference")
    print(f"line graph: {csr.num_nodes} nodes, {csr.num_edges} edges "
          f"(scale {scale:g})")
    print(f"median CPU seconds over {PAIRS} interleaved pairs")
    print(f"{'stage':10s}{'reference(s)':>14}{'vectorized(s)':>15}"
          f"{'ratio':>8}")
    for stage in STAGES:
        r, v = ref[stage], vec[stage]
        print(f"{stage[:-2]:10s}{r:14.3f}{v:15.3f}"
              f"{r / max(v, 1e-9):8.1f}")
    print(f"per-pair speedups: {' '.join(f'{x:.1f}' for x in ratios)}")
    print(f"median speedup: {speedup:.1f}x (floor {floor:.0f}x)")

    assert speedup >= floor, (
        f"median speedup {speedup:.1f}x below the {floor:.0f}x floor "
        f"(per pair: {', '.join(f'{x:.1f}' for x in ratios)})")
    write(RESULTS_PATH, {
        "bench": "embedding_engine_speedup",
        "scale": scale,
        "graph": {"nodes": csr.num_nodes, "edges": csr.num_edges},
        "workload": {"num_walks": NUM_WALKS, "walk_length": WALK_LENGTH,
                     "p": P, "q": Q, "dim": SG.dim, "window": SG.window,
                     "negatives": SG.negatives, "epochs": SG.epochs},
        "timer": "process_time",
        "pairs": PAIRS,
        "ratios": ratios,
        "spread": {"min": min(ratios), "max": max(ratios)},
        "reference": ref,
        "vectorized": vec,
        "speedup": speedup,
        "floor": floor,
    })
