"""Offline training and online estimation (paper Algorithm 1).

``build_deepod`` performs lines 1-5: pre-train Ws over the line graph of
the road network (with trajectory co-occurrence weights), build the
temporal graph and pre-train Wt, initialise the remaining parameters.
``DeepODTrainer.fit`` performs lines 6-7 / the ModelTrain function: shuffle,
mini-batch, forward both encoders, combine the weighted losses, Adam step,
with the paper's step learning-rate decay; it also tracks validation error
per step for the convergence experiments (Fig 10 / Table 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datagen.dataset import TaxiDataset
from ..datagen.speed_matrix import SpeedMatrixStore
from ..nn import Adam, StepDecay
from ..obs.instrument import Instrumented
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.tracing import NULL_TRACER, Tracer
from ..trajectory.model import TripRecord
from .config import DeepODConfig
from .embeddings import RoadSegmentEmbedding, TimeSlotEmbedding
from .model import DeepOD


def build_deepod(dataset: TaxiDataset, config: Optional[DeepODConfig] = None,
                 tracer: Optional[Tracer] = None) -> DeepOD:
    """Algorithm 1 lines 1-5: construct and initialise the model."""
    config = config or DeepODConfig()
    tracer = tracer or NULL_TRACER
    rng = np.random.default_rng(config.seed)
    # Only a pre-trained Ws reads trajectories: a 'onehot' build (the
    # artifact loader's) must not touch the trip side at all.
    train_trajs = ([] if config.init_road_embedding == "onehot" else
                   [t.trajectory.edge_ids for t in dataset.split.train
                    if t.trajectory is not None])
    with tracer.span("pretrain.road_embedding",
                     method=config.init_road_embedding, dim=config.d_s):
        road_emb = RoadSegmentEmbedding.pretrained(
            dataset.net, train_trajs, config.d_s,
            method=config.init_road_embedding, seed=config.seed,
            rng=rng, tracer=tracer)
    with tracer.span("pretrain.slot_embedding",
                     method=config.init_slot_embedding,
                     graph=config.temporal_graph, dim=config.d_t):
        slot_emb = TimeSlotEmbedding.pretrained(
            dataset.slot_config, config.d_t,
            graph_kind=config.temporal_graph,
            method=config.init_slot_embedding, seed=config.seed,
            rng=rng, tracer=tracer)
    return DeepOD(config, road_emb, slot_emb, rng=rng)


@dataclass
class TrainingHistory:
    """Per-step validation errors and timing for Fig 10 / Table 3."""

    steps: List[int] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    train_loss: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    def convergence_step(self, tolerance: float = 0.02,
                         patience: int = 3) -> int:
        """First step after which val MAE stays within ``tolerance`` of its
        final best for ``patience`` consecutive evaluations."""
        if not self.val_mae:
            return 0
        best = min(self.val_mae)
        threshold = best * (1.0 + tolerance)
        run = 0
        for i, v in enumerate(self.val_mae):
            run = run + 1 if v <= threshold else 0
            if run >= patience:
                return self.steps[i]
        return self.steps[-1]


class DeepODTrainer(Instrumented):
    """ModelTrain (offline) + Estimation (online) of Algorithm 1.

    ``tracer`` (default: the shared null tracer) receives per-epoch
    spans with aggregated forward/backward/optimizer phase children —
    the per-epoch training-time breakdown of Table 5.  ``metrics``
    (default: the process-global registry) receives ``train.steps`` /
    ``train.epochs`` counters and a ``train.step_ms`` histogram.
    """

    def __init__(self, model: DeepOD, dataset: TaxiDataset,
                 eval_every: int = 20, max_eval_batch: int = 256,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.model = model
        self.dataset = dataset
        self.eval_every = eval_every
        self.max_eval_batch = max_eval_batch
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else global_registry()
        cfg = model.config
        self.optimizer = Adam(list(model.parameters()),
                              lr=cfg.learning_rate,
                              clip_norm=cfg.grad_clip)
        self.scheduler = StepDecay(self.optimizer,
                                   step_epochs=cfg.lr_decay_epochs,
                                   factor=cfg.lr_decay_factor)
        self.history = TrainingHistory()
        self._rng = np.random.default_rng(cfg.seed + 1)
        self._step = 0
        # Resumable position in the training stream: completed epochs,
        # the current epoch's shuffle order and the cursor into it.
        # ``_order is None`` means "draw a fresh permutation next".
        self._epoch = 0
        self._order: Optional[np.ndarray] = None
        self._cursor = 0
        # Normalisation statistics from the training targets.
        times = np.array([t.travel_time for t in dataset.split.train])
        model.set_target_stats(float(times.mean()),
                               float(max(times.std(), 1e-6)))

    # ------------------------------------------------------------------
    def speed_matrices(self, trips: Sequence[TripRecord]
                       ) -> Optional[np.ndarray]:
        """The trips' normalised speed-matrix slices, stacked (``None``
        when the model has no external features)."""
        if not self.model.config.use_external_features:
            return None
        store = self.dataset.speed_store
        return np.stack([
            store.normalized_matrix_before(t.od.depart_time)
            for t in trips])

    def train_step(self, batch: Sequence[TripRecord]) -> Dict[str, float]:
        """One forward/backward/update over a mini-batch.

        The three phases are individually timed; with an enabled tracer
        the durations accumulate as counters on the enclosing span (one
        aggregate child span per phase is materialised at epoch end —
        never a span per step, keeping trace size bounded).
        """
        model = self.model
        ods = [t.od for t in batch]
        trajs = [t.trajectory for t in batch]
        times = np.array([t.travel_time for t in batch])
        mats = self.speed_matrices(batch)
        self.optimizer.zero_grad()
        t0 = time.perf_counter()
        losses = model.training_losses(ods, trajs, times, mats)
        t1 = time.perf_counter()
        losses.total.backward()
        t2 = time.perf_counter()
        self.optimizer.step()
        t3 = time.perf_counter()
        self._step += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.add("forward_s", t1 - t0)
            tracer.add("backward_s", t2 - t1)
            tracer.add("optimizer_s", t3 - t2)
            tracer.add("steps", 1)
        self.metrics.counter("train.steps").inc()
        self.metrics.histogram("train.step_ms").observe((t3 - t0) * 1e3)
        return {"loss": losses.total.item(), "main": losses.main,
                "aux": losses.auxiliary}

    def fit(self, epochs: Optional[int] = None,
            max_steps: Optional[int] = None,
            track_validation: bool = True,
            checkpoint_every: int = 0,
            checkpoint_dir: Optional[str] = None,
            keep_checkpoints: int = 3,
            checkpoint_fn: Optional[Callable] = None,
            on_eval: Optional[Callable[[int, float, float], None]] = None
            ) -> TrainingHistory:
        """Full offline training loop (Algorithm 1 lines 6-7).

        ``epochs`` is the *total* epoch target: a trainer restored from a
        checkpoint continues from its saved position until the target is
        reached, so ``fit(epochs=E)`` after a resume replays exactly the
        tail of an uninterrupted ``fit(epochs=E)``.

        ``checkpoint_every`` > 0 writes a full training checkpoint (model,
        optimiser, scheduler, RNG, shuffle position, history) into
        ``checkpoint_dir`` every that-many steps via ``checkpoint_fn``
        (signature of :func:`repro.experiments.checkpoint.save_checkpoint`,
        which callers inject — the trainer sits below the experiments
        layer and must not import upward); ``keep_checkpoints`` bounds
        how many are retained.  ``on_eval`` is invoked after every
        validation evaluation with ``(step, val_mae, lr)`` — the run
        registry uses it to stream metrics to disk.
        """
        cfg = self.model.config
        epochs = epochs if epochs is not None else cfg.epochs
        if checkpoint_every > 0 and not checkpoint_dir:
            raise ValueError("checkpoint_every > 0 requires checkpoint_dir")
        if checkpoint_every > 0 and checkpoint_fn is None:
            raise ValueError(
                "checkpoint_every > 0 requires checkpoint_fn (pass "
                "repro.experiments.checkpoint.save_checkpoint)")
        save_checkpoint = checkpoint_fn if checkpoint_every > 0 else None
        train = list(self.dataset.split.train)
        base_wall = self.history.wall_seconds
        start = time.perf_counter()
        done = max_steps is not None and self._step >= max_steps
        tracer = self.tracer
        with tracer.span("train.fit", epochs=epochs,
                         batch_size=cfg.batch_size,
                         train_size=len(train)):
            while self._epoch < epochs and not done:
                with tracer.span("train.epoch",
                                 epoch=self._epoch) as epoch_span:
                    try:
                        if self._order is None:
                            self._order = self._rng.permutation(len(train))
                            self._cursor = 0
                        while self._cursor < len(train):
                            idx = self._order[self._cursor:
                                              self._cursor + cfg.batch_size]
                            batch = [train[i] for i in idx]
                            self._cursor += cfg.batch_size
                            stats = self.train_step(batch)
                            self.history.train_loss.append(stats["loss"])
                            if track_validation and self.eval_every > 0 \
                                    and self._step % self.eval_every == 0:
                                self._record_eval(on_eval)
                            if save_checkpoint is not None and \
                                    self._step % checkpoint_every == 0:
                                self.history.wall_seconds = (
                                    base_wall + time.perf_counter() - start)
                                with tracer.span("train.checkpoint",
                                                 step=self._step):
                                    save_checkpoint(self, checkpoint_dir,
                                                    keep=keep_checkpoints)
                            if max_steps is not None and \
                                    self._step >= max_steps:
                                done = True
                                break
                    finally:
                        # Runs before the span closes, so the aggregate
                        # phase children land inside the epoch span.
                        self._materialise_phases(epoch_span)
                if self._cursor >= len(train):
                    # The epoch actually completed: only then does the
                    # paper's step decay advance.  A ``max_steps``
                    # truncation mid-epoch must NOT decay, or a resumed
                    # run and a fresh run would follow different LR
                    # schedules.
                    self._epoch += 1
                    self._order = None
                    self._cursor = 0
                    self.scheduler.epoch_end()
                    self.metrics.counter("train.epochs").inc()
            # Always record a final validation point.
            if track_validation and (not self.history.steps or
                                     self.history.steps[-1] != self._step):
                self._record_eval(on_eval)
        self.history.wall_seconds = base_wall + time.perf_counter() - start
        return self.history

    def _record_eval(self, on_eval) -> None:
        """One validation evaluation: history + span + callback."""
        with self.tracer.span("train.validate", step=self._step):
            val_mae = self.validation_mae()
        self.history.steps.append(self._step)
        self.history.val_mae.append(val_mae)
        if on_eval is not None:
            on_eval(self._step, val_mae, self.optimizer.lr)

    def _materialise_phases(self, epoch_span) -> None:
        """Turn the accumulated per-phase second counters of an epoch
        span into one aggregate child span per training phase."""
        if epoch_span is None:
            return
        steps = int(epoch_span.counters.pop("steps", 0))
        for phase in ("forward", "backward", "optimizer"):
            seconds = epoch_span.counters.pop(f"{phase}_s", 0.0)
            self.tracer.record(phase, seconds, steps=steps)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Complete resumable training state.

        Covers everything :meth:`fit` reads: model parameters and buffers,
        Adam moments, scheduler epoch, the shuffle RNG's bit-generator
        state, the in-flight epoch permutation/cursor and the history so
        far.  Restoring it into a fresh trainer (same model config, same
        dataset) and calling ``fit`` reproduces an uninterrupted run
        bitwise.
        """
        return {
            "step": self._step,
            "epoch": self._epoch,
            "cursor": self._cursor,
            "order": None if self._order is None else self._order.copy(),
            "rng": self._rng.bit_generator.state,
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": self.scheduler.state_dict(),
            "history": {
                "steps": list(self.history.steps),
                "val_mae": list(self.history.val_mae),
                "train_loss": list(self.history.train_loss),
                "wall_seconds": self.history.wall_seconds,
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._step = int(state["step"])
        self._epoch = int(state["epoch"])
        self._cursor = int(state["cursor"])
        order = state["order"]
        self._order = None if order is None else np.asarray(order, dtype=int)
        self._rng.bit_generator.state = state["rng"]
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.scheduler.load_state_dict(state["scheduler"])
        hist = state["history"]
        self.history = TrainingHistory(
            steps=[int(s) for s in hist["steps"]],
            val_mae=[float(v) for v in hist["val_mae"]],
            train_loss=[float(v) for v in hist["train_loss"]],
            wall_seconds=float(hist["wall_seconds"]))

    # ------------------------------------------------------------------
    def predict(self, trips: Sequence[TripRecord]) -> np.ndarray:
        """Online estimation for a set of trips (uses only the OD inputs)."""
        preds = []
        for lo in range(0, len(trips), self.max_eval_batch):
            chunk = trips[lo:lo + self.max_eval_batch]
            mats = self.speed_matrices(chunk)
            preds.append(self.model.predict([t.od for t in chunk], mats))
        return np.concatenate(preds)

    def validation_mae(self) -> float:
        val = self.dataset.split.validation
        if not val:
            return float("nan")
        preds = self.predict(val)
        actual = np.array([t.travel_time for t in val])
        return float(np.mean(np.abs(preds - actual)))
