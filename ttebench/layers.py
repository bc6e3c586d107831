"""Which public entry points the traced run wraps, and the span table.

Each row of :data:`WRAPS` names a function at the place its caller
looks it up, and the layer key its time is booked under.  The key's
first segment is the ``repro`` package doing the work (``roadnet``,
``mapmatching``, ``datagen``, ``embedding``, ``core``, ``nn``,
``serving``).
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from probe import Probe

# (module, class or None, attribute, layer key)
WRAPS: List[Tuple[str, object, str, str]] = [
    # roadnet, split by consumer where two layers call the same function
    ("repro.mapmatching.hmm", None, "dijkstra_sssp", "roadnet.sssp"),
    ("repro.mapmatching.hmm", None, "dijkstra", "roadnet.route.hmm"),
    ("repro.datagen.trips", None, "perturbed_route", "roadnet.route.trips"),
    ("repro.roadnet.spatial_index", "SpatialIndex", "edges_within",
     "roadnet.spatial"),
    ("repro.roadnet.spatial_index", "SpatialIndex", "k_nearest_edges",
     "roadnet.spatial"),
    ("repro.roadnet.spatial_index", "SpatialIndex", "nearest_edge",
     "roadnet.spatial"),
    # mapmatching
    ("repro.mapmatching.hmm", None, "candidates_for_trajectory",
     "mapmatching.candidates"),
    ("repro.mapmatching.hmm", "HMMMapMatcher", "match", "mapmatching.match"),
    # datagen
    ("repro.datagen.speed_matrix", "SpeedMatrixAccumulator", "add",
     "datagen.speed_matrix"),
    ("repro.datagen.speed_matrix", "SpeedMatrixAccumulator", "add_trips",
     "datagen.speed_matrix"),
    ("repro.datagen.speed_matrix", "SpeedMatrixAccumulator", "finalize",
     "datagen.speed_matrix"),
    ("repro.datagen.storage", "DatasetDirWriter", "write_chunk",
     "datagen.write"),
    ("repro.datagen.storage", "DatasetDirWriter", "finish", "datagen.write"),
    ("repro.datagen.storage", None, "stamp_fingerprint", "datagen.write"),
    ("repro.datagen.storage", None, "open_dataset_dir", "datagen.open"),
    ("repro.datagen.pipeline", None, "dataset_fingerprint",
     "datagen.fingerprint"),
    ("repro.serving.artifact", None, "dataset_fingerprint",
     "datagen.fingerprint"),
    # embedding
    ("repro.embedding.api", None, "generate_node2vec_walks",
     "embedding.walks"),
    ("repro.embedding.api", None, "train_skipgram", "embedding.sgns"),
    # core / nn
    ("repro.core.trainer", None, "build_deepod", "core.pretrain"),
    ("repro.core.trainer", "DeepODTrainer", "fit", "core.fit"),
    ("repro.core.model", "DeepOD", "training_losses", "core.forward"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.optimizer"),
    ("repro.core.predictor", "TravelTimePredictor", "__init__",
     "core.calibrate"),
    # serving
    ("repro.serving.artifact", None, "save_artifact",
     "serving.save_artifact"),
    ("repro.serving.artifact", None, "build",
     "serving.load_artifact.dataset"),
    ("repro.serving.artifact", None, "build_deepod",
     "serving.load_artifact.model"),
    ("repro.serving.cache", "ODMatchCache", "nearest_edge", "serving.match"),
    ("repro.serving.cache", "SpeedSliceCache", "normalized_matrix_before",
     "serving.speed_slices"),
    ("repro.serving.service", "TravelTimeService", "apply_live_speeds",
     "serving.apply_speeds"),
]

# Functions wrapped with an observer (the caller passes the callback).
PREDICT = ("repro.core.predictor", "TravelTimePredictor",
           "estimate_from_ods", "core.predict")
MATCH_MANY = ("repro.mapmatching.batch", None, "match_many",
              "mapmatching.match_many")
GENERATE = ("repro.datagen.trips", "TripGenerator", "generate_chunks",
            "datagen.generate")


def owner_of(module: str, cls) -> object:
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(probe: Probe, on_match_many, on_predict) -> None:
    """Wrap every entry point of :data:`WRAPS` plus the observed ones."""
    for module, cls, attr, key in WRAPS:
        probe.wrap(owner_of(module, cls), attr, key)
    module, cls, attr, key = GENERATE
    probe.wrap(owner_of(module, cls), attr, key, generator=True)
    module, cls, attr, key = MATCH_MANY
    probe.wrap(owner_of(module, cls), attr, key, observe=on_match_many)
    module, cls, attr, key = PREDICT
    probe.wrap(owner_of(module, cls), attr, key, observe=on_predict)


# ----------------------------------------------------------------------
# The program's own spans beside the outside-in numbers
# ----------------------------------------------------------------------
# (outside-in key, program span name, why the two may disagree)
RECONCILE: List[Tuple[str, str, str]] = [
    ("mapmatching.match_many", "datagen.match",
     "known: the span opens only after match_many returns "
     "(src/repro/datagen/pipeline.py:169-171)"),
    ("datagen.speed_matrix", "datagen.speed_matrix",
     "known: on disk builds the span also covers reading the paths back "
     "(DatasetDirWriter.iter_paths)"),
    ("embedding.walks", "embed.walks", ""),
    ("embedding.sgns", "embed.sgns", ""),
    ("core.fit", "train.fit", ""),
    ("core.forward", "forward", ""),
    ("nn.backward", "backward", ""),
    ("nn.optimizer", "optimizer", ""),
    ("serving.match", "serve.match",
     "known: the span also covers depart-time clamping, the weather "
     "lookup and building each ODInput"),
    ("serving.speed_slices", "serve.speed_slices",
     "known: the span also covers stacking the slices"),
    ("core.predict", "serve.predict", ""),
]

# Relative disagreement beyond which a row is flagged.
DISAGREE_SHARE = 0.2


def span_totals(tracers: Iterable) -> Dict[str, Tuple[int, float]]:
    """``{span name: (count, seconds)}`` over every span of the tracers."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])

    def walk(span):
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += span.duration_s
        for child in span.children:
            walk(child)

    for tracer in tracers:
        for root in list(tracer.roots):
            walk(root)
    return {name: (int(n), s) for name, (n, s) in totals.items()}


def reconcile_rows(probe: Probe, phase: str,
                   spans: Dict[str, Tuple[int, float]]
                   ) -> List[Tuple[str, float, str, float, str]]:
    """Rows ``(key, outside_s, span, span_s, flag)`` with data in
    ``phase``; ``flag`` is ``ok``, ``DISAGREE`` or the known note."""
    rows = []
    for key, span, note in RECONCILE:
        outside = probe.get(phase, key).incl_s
        inside = spans.get(span, (0, 0.0))[1]
        if outside == 0.0 and inside == 0.0:
            continue
        if inside == 0.0:
            flag = "no span: no tracer= reaches this call"
        elif abs(outside - inside) / max(outside, inside) > DISAGREE_SHARE:
            flag = "DISAGREE; " + note if note else "DISAGREE"
        else:
            flag = "ok"
        rows.append((key, outside, span, inside, flag))
    return rows
