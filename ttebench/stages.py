"""The three stages every run drives: build, train and serve.

Every run sets up all three stages, runs one untimed warm-up unit per
phase, then measures in *rounds*. A round runs the same units of every
phase (``ROUND``: ``sparse``, ``dense`` builds; ``train`` jobs;
``batch``, ``burst`` and ``online`` serving), interleaved in ``STEPS``
steps, so each phase's units are spread over the run's whole time. A
shared 2-vCPU host drifts in speed by tens of percent over tens of
seconds (the same build took 2.4 to 4.1 s across processes run back to
back), so a phase measured in one block would report the drift rather
than the program. Units follow the rounds' order until the first unit
boundary after ``--seconds`` (at least one whole round). The workload
names the *primary* stage (``build`` or ``serve``; ``train`` is a
companion in both): its set-up is repeated after every round, and the
median is the run's ``setup_s``.

Within and between runs the host's speed still varies; an untraced run
therefore times :mod:`hostspeed`'s reference loop right before and after
every unit and reports the closed-loop throughputs per reference second
(each unit's wall over its host factor).

With tracing on, each primary closed-loop unit runs twice with the same
work, untraced then traced (their ratio is the trace overhead), and
every other unit runs traced.  Only public entry points of ``repro`` are
called; what the traced run measures inside the program comes from
:mod:`layers` wrapping them from outside.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import json
import math
import os
import shutil
import sys
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import wait as wait_futures
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import DeepODConfig, DeepODTrainer, TravelTimePredictor
from repro.core import trainer as trainer_mod
from repro.core.predictor import normalize_depart_time
from repro.datagen import PRESETS, DatasetSpec, TaxiDataset, preset_network
from repro.datagen import pipeline, storage
from repro.datagen.dataset import dataset_fingerprint
from repro.obs import MetricsRegistry, Tracer
from repro.serving import ServiceConfig, TravelTimeService
from repro.serving import artifact as artifact_mod
from repro.trajectory.model import Query

import hostspeed
import layers
import stats
from probe import Probe

clock = time.perf_counter
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

# ----------------------------------------------------------------------
# Fixed sizes (the pins in pins.json hold only for these)
# ----------------------------------------------------------------------
BUILD_PHASES = {              # phase -> (base preset, trips per build)
    "sparse": ("mega-beijing", 16),
    "dense": ("mega-chengdu", 16),
}
# Per-build cost differs between city variants, so the builds of a phase
# cycle through the variants 0..BUILD_VARIANTS-1 (the seed only rotates
# their order) and every run has the same variant mix.
BUILD_VARIANTS = 2
WARMUP_TRIPS = 4
# Build phases with an end-to-end throughput.  ``sparse`` builds slowed
# about twice as much as the host-speed reference when other tenants got
# busy (a 10-run set that crossed such a change spread 0.27 per
# reference second), so their throughput is only noted in the report;
# the traced run still gives sparse's per-layer metrics.
E2E_BUILD_PHASES = ("dense",)
TRAIN_CITY = "mini-beijing"
TRAIN_TRIPS = 800
TRAIN_EPOCHS = 2
BATCH_SET = 48                # held-out ODs repeated by the batch phase
BATCH_CALLS = 20              # query_batch calls per batch unit
# Offered load of the online phase, q/s: one query per 10 ms, twice the
# micro-batcher's 5 ms max wait, keeps the batcher busy about a sixth of
# the time on a 2-vCPU host, so p50 stays below the knee even when the
# host runs at half speed (at 200 q/s it rose from 8 to 13 ms as a shared
# host slowed) and never measures the generator's GIL waits instead.
ONLINE_RATE = 100.0
WRITE_EVERY_S = 0.25          # apply_live_speeds period in online
JITTER_M = 8.0                # GPS jitter of online/burst coordinates
BURST = 1000                  # queries enqueued at once per burst unit

PHASES = ("sparse", "dense", "train", "batch", "burst", "online")
STAGE_OF = {"sparse": "build", "dense": "build", "train": "train",
            "batch": "serve", "burst": "serve", "online": "serve"}
# Units per round, the same in every workload; ``online`` is seconds of
# open loop.  A unit runs at the host's speed of its second or two,
# which flips between states about 1.7x apart, so a phase is steady only
# when it gets a few seconds a round; online p50 stays steady on fewer
# samples.
ROUND = {"sparse": 2 * BUILD_VARIANTS, "dense": 2 * BUILD_VARIANTS,
         "train": 1, "batch": 8, "burst": 4, "online": 1.5}
# A round's units run in this many interleaved steps (stats.spread_units).
STEPS = 2


def variant_name(base: str, variant: int) -> str:
    return f"{base}-v{variant}"


def register_variants() -> None:
    """Register the seeded city variants in the preset registry.

    A variant changes only the preset's seed, so network, weather,
    traffic and trips are redrawn at the base city's scale.
    """
    for base, _ in BUILD_PHASES.values():
        preset = PRESETS[base]
        for v in range(BUILD_VARIANTS):
            name = variant_name(base, v)
            PRESETS[name] = dataclasses.replace(
                preset, name=name, seed=preset.seed + 1009 * (v + 1))


def sizes() -> Dict:
    """The sizes a pin file was made for (JSON-normalised)."""
    return json.loads(json.dumps({
        "build": BUILD_PHASES, "build_variants": BUILD_VARIANTS,
        "train": [TRAIN_CITY, TRAIN_TRIPS, TRAIN_EPOCHS],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}))


def load_pins() -> Dict:
    """Pinned references, or ``{}`` (every pin check then fails) when
    the file is missing or was made for other sizes."""
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH) as handle:
        pins = json.load(handle)
    return pins if pins.get("sizes") == sizes() else {}


def collect() -> None:
    """Collect garbage and hand freed heap back (before each unit)."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def path_digest(directory: str) -> str:
    """sha256 of a dataset dir's matched paths (lengths, edges, times)."""
    digest = hashlib.sha256()
    for name in ("path_len.bin", "path_edges.bin", "path_times.bin"):
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
class Run:
    """Everything one benchmark process measures and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: str, primary: Optional[str] = None):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.primary = primary
        self.pins = load_pins()
        self.attempted = 0
        self.failed = 0
        self.rounds_done = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.e2e: Dict[str, Tuple[float, str]] = {}
        self.report: List[str] = []
        self.probe = Probe() if trace else None
        self.tracers: Dict[str, List[Tracer]] = defaultdict(list)
        # phase -> "plain"/"traced" -> [(work, wall)]
        self.units: Dict[str, Dict[str, List[Tuple[float, float]]]] = \
            defaultdict(lambda: {"plain": [], "traced": []})
        self.obs: Dict[str, Dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self.samples: Dict[str, Dict[str, List[float]]] = \
            defaultdict(lambda: defaultdict(list))
        self.unrestored: List[str] = []
        self._matchers: Dict[int, Tuple[str, object]] = {}
        # phase -> host factor of each untraced unit (hostspeed), or
        # None when the run takes no host-speed samples.
        self.host_factors: Optional[Dict[str, List[float]]] = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def note(self, line: str) -> None:
        self.report.append(line)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    # -- traced units ------------------------------------------------------
    def _on_match_many(self, args, kwargs, results) -> None:
        phase = self.probe.phase
        obs = self.obs[phase]
        obs["trips"] += len(results)
        obs["matched"] += sum(1 for r in results if r.ok)
        obs["distinct"] += sum(1 for r in results if r.duplicate_of is None)
        matcher = args[0]
        # A matcher's cache counters are cumulative: keep its latest.
        self._matchers[id(matcher)] = (phase, matcher.cache_stats())

    def _on_predict(self, args, kwargs, result) -> None:
        self.obs[self.probe.phase]["predicted"] += len(args[1])

    def _fold_matcher_stats(self) -> None:
        for phase, cache in self._matchers.values():
            obs = self.obs[phase]
            for name in ("sssp", "route"):
                obs[f"{name}_hits"] += cache[name]["hits"]
                obs[f"{name}_misses"] += cache[name]["misses"]
        self._matchers.clear()

    @contextlib.contextmanager
    def traced(self, phase: str, extra: Callable[[Probe], None] = None):
        """Wrap the layers for one traced unit of ``phase``; yield the
        :class:`Tracer` the unit passes to ``tracer=`` parameters."""
        tracer = Tracer()
        layers.install(self.probe, self._on_match_many, self._on_predict)
        if extra is not None:
            extra(self.probe)
        self.probe.phase = phase
        try:
            yield tracer
        finally:
            self.probe.phase = None
            self.unrestored += self.probe.restore()
            self._fold_matcher_stats()
            self.tracers[phase].append(tracer)

    def unit(self, phase: str, fn: Callable, traced: bool,
             extra: Callable[[Probe], None] = None) -> None:
        """Run one unit: ``fn(tracer) -> (work, wall, verify)``.

        ``verify()`` runs after the wrappers are gone.  A unit that
        raises counts as one failed operation.  With ``host_factors``
        set, an untraced unit is bracketed by host-speed samples.
        """
        factors = None if traced else self.host_factors
        try:
            if traced:
                with self.traced(phase, extra) as tracer:
                    work, wall, verify = fn(tracer)
            elif factors is None:
                work, wall, verify = fn(None)
            else:
                before = hostspeed.sample()
                work, wall, verify = fn(None)
                factors[phase].append(
                    hostspeed.unit_factor(before, hostspeed.sample()))
        except Exception:
            self.attempted += 1
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            self.note(f"  {phase}: a unit raised (counted as failed)")
            return
        self.units[phase]["traced" if traced else "plain"].append(
            (work, wall))
        if verify is not None:
            verify()

    def rounds(self, makers: Dict[str, Callable],
               extras: Dict[str, Callable],
               short: Dict[str, Callable[[], bool]],
               between: Callable[[], None]) -> None:
        """Measure: rounds of every phase's units until ``seconds``.

        ``makers[phase](index, twin)`` returns the phase's unit
        ``index`` (``twin``: the traced repeat of a primary pair).
        ``between()`` runs after each whole round (the repeated
        set-ups).  Stops at the first unit boundary after ``seconds``,
        but never before one whole round, so the measured time does not
        jump by a round with the host's speed; then, while
        ``short[phase]()`` says a phase has too few samples for its
        percentiles (a slow host fits fewer units), runs more of its
        units.
        """
        index = defaultdict(int)
        order = stats.spread_units(
            {phase: 1 if phase == "online" else ROUND[phase]
             for phase in PHASES}, STEPS)
        plan = [phase for step in order for phase in step]
        start = clock()
        done = 0
        while self.rounds_done == 0 or clock() - start < self.seconds:
            phase = plan[done % len(plan)]
            # Garbage left by the previous unit is collected here, not
            # by a pause inside this unit's timing.
            collect()
            pair = (self.trace and STAGE_OF[phase] == self.primary
                    and phase != "online")
            i = index[phase]
            index[phase] += 1
            self.unit(phase, makers[phase](i, False),
                      self.trace and not pair, extras.get(phase))
            if pair:
                collect()
                self.unit(phase, makers[phase](i, True), True,
                          extras.get(phase))
            done += 1
            if done % len(plan) == 0:
                self.rounds_done += 1
                collect()
                between()
        for phase, too_few in short.items():
            failed = self.failed
            while too_few() and self.failed == failed:
                collect()
                self.unit(phase, makers[phase](index[phase], False),
                          self.trace, extras.get(phase))
                index[phase] += 1

    def throughput(self, phase: str) -> float:
        """Work per wall second over the phase's untraced units."""
        units = self.units[phase]["plain"]
        if not units:
            raise RuntimeError(f"phase {phase} completed no unit")
        return stats.throughput([w for w, _ in units],
                                [t for _, t in units])

    def ref_throughput(self, phase: str, unit: str) -> float:
        """Work per reference second over the phase's untraced units
        (see :mod:`hostspeed`); notes the wall throughput beside it."""
        units = self.units[phase]["plain"]
        factors = self.host_factors[phase]
        ref = stats.ref_throughput([w for w, _ in units],
                                   [t for _, t in units], factors)
        self.note(f"  {phase}: {ref:.4g} {unit}/ref-s, wall "
                  f"{self.throughput(phase):.4g} {unit}/s, mean host "
                  f"factor {sum(factors) / len(factors):.4f}")
        return ref


# ----------------------------------------------------------------------
# Build stage
# ----------------------------------------------------------------------
class BuildStage:
    """Disk-backed, re-matched dataset builds of seeded city variants."""

    name = "build"

    def __init__(self, run: Run):
        self.run = run

    def setup(self) -> float:
        """City registration and every variant's network; returns the
        wall (repeatable, for the median of set-ups)."""
        t0 = clock()
        register_variants()
        for base, _ in BUILD_PHASES.values():
            for variant in range(BUILD_VARIANTS):
                preset_network(PRESETS[variant_name(base, variant)])
        return clock() - t0

    def build(self, phase: str, variant: int, trips: int, tag: str,
              tracer: Optional[Tracer]):
        """One timed disk build; returns (out dir, dataset, wall)."""
        base, _ = BUILD_PHASES[phase]
        out = os.path.join(self.run.workdir, f"{phase}-{tag}")
        spec = DatasetSpec(city=variant_name(base, variant),
                           num_trips=trips, storage="disk", out_dir=out,
                           rematch=True, matcher_jobs=1)
        t0 = clock()
        dataset = pipeline.build(spec, tracer=tracer)
        return out, dataset, clock() - t0

    def maker(self, phase: str) -> Callable:
        run = self.run
        trips = BUILD_PHASES[phase][1]

        def make(index: int, twin: bool):
            variant = (run.seed + index) % BUILD_VARIANTS

            def fn(tracer):
                out, dataset, wall = self.build(
                    phase, variant, trips, f"{index}-{int(twin)}", tracer)
                run.attempted += 1

                def verify():
                    dataset.close()
                    self.verify(phase, variant, out)
                return trips, wall, verify
            return fn
        return make

    def verify(self, phase: str, variant: int, out: str) -> None:
        run = self.run
        fingerprint = storage.read_meta(out)["fingerprint"]
        actual = {"fingerprint": fingerprint, "path_digest": path_digest(out)}
        with TaxiDataset.open(out) as reopened:
            reopen_fp = dataset_fingerprint(reopened)
        run.check(f"{phase} build reopens to the same fingerprint",
                  reopen_fp == fingerprint, f"variant {variant}")
        pinned = run.pins.get("build", {}).get(phase, {}).get(str(variant), {})
        bad = stats.pin_mismatches(actual, pinned)
        run.check(f"{phase} build equals pinned fingerprint and path digest",
                  not bad, f"variant {variant}: {', '.join(bad)}")
        shutil.rmtree(out, ignore_errors=True)

    def warmup(self) -> None:
        for phase in BUILD_PHASES:
            out, dataset, _ = self.build(phase, 0, WARMUP_TRIPS, "warmup",
                                         None)
            dataset.close()
            shutil.rmtree(out, ignore_errors=True)

    def report(self) -> None:
        for phase, (base, trips) in BUILD_PHASES.items():
            ref = self.run.ref_throughput(phase, "trips")
            if phase in E2E_BUILD_PHASES:
                self.run.e2e[f"{phase}_trips_per_s"] = (ref, "trips/ref-s")
            self.run.note(f"  {phase}: {base} variants, {trips} trips per "
                          f"build, {len(self.run.units[phase]['plain'])} "
                          f"timed builds")


# ----------------------------------------------------------------------
# Train stage
# ----------------------------------------------------------------------
class TrainStage:
    """build_deepod -> fit -> calibration -> save_artifact, repeated on
    one RAM dataset of ``mini-beijing`` (the same in every run, so runs
    differ by the program's noise, not by their city)."""

    name = "train"

    def __init__(self, run: Run):
        self.run = run
        self.dataset = None
        self.maes: List[float] = []
        self.artifact_dir: Optional[str] = None
        self.warmup_dir: Optional[str] = None
        self.predictor = None

    def build_dataset(self, tracer: Optional[Tracer]):
        spec = DatasetSpec(city=TRAIN_CITY, num_trips=TRAIN_TRIPS)
        t0 = clock()
        dataset = pipeline.build(spec, tracer=tracer)
        return dataset, clock() - t0

    def setup(self) -> float:
        """The RAM dataset build; returns its wall."""
        run = self.run
        walls = []

        def rep(tracer):
            self.dataset, wall = self.build_dataset(tracer)
            walls.append(wall)
            return 1, wall, None
        run.unit("setup", rep, run.trace)
        if self.dataset is None:
            raise RuntimeError("train set-up failed")
        return walls[0]

    def job(self, out: str, tracer: Optional[Tracer]):
        """One timed training job; returns (wall, val MAE, predictor)."""
        config = DeepODConfig(epochs=TRAIN_EPOCHS, seed=0)
        t0 = clock()
        model = trainer_mod.build_deepod(self.dataset, config, tracer=tracer)
        trainer = DeepODTrainer(model, self.dataset, eval_every=0,
                                tracer=tracer, metrics=MetricsRegistry())
        history = trainer.fit(epochs=TRAIN_EPOCHS)
        predictor = TravelTimePredictor(trainer)
        artifact_mod.save_artifact(out, predictor)
        wall = clock() - t0
        return wall, history.val_mae[-1], predictor

    def keep(self, out: str, mae: float, predictor) -> None:
        """Record a finished job; its artifact replaces the previous."""
        self.maes.append(mae)
        if self.artifact_dir is not None:
            shutil.rmtree(self.artifact_dir, ignore_errors=True)
        self.artifact_dir = out
        self.predictor = predictor

    def maker(self) -> Callable:
        run = self.run

        def make(index: int, twin: bool):
            work = len(self.dataset.split.train) * TRAIN_EPOCHS

            def fn(tracer):
                out = os.path.join(run.workdir,
                                   f"artifact-{index}-{int(twin)}")
                wall, mae, predictor = self.job(out, tracer)
                run.attempted += 1
                return work, wall, lambda: self.keep(out, mae, predictor)
            return fn
        return make

    def warmup(self) -> None:
        """An untimed job; its artifact is the one the serve stage
        loads (load_artifact reads it at set-up)."""
        out = os.path.join(self.run.workdir, "artifact-warmup")
        wall, mae, predictor = self.job(out, None)
        self.maes.append(mae)
        self.warmup_dir = out

    def report(self) -> None:
        run = self.run
        run.e2e["trip_epochs_per_s"] = (
            run.ref_throughput("train", "tripepochs"), "tripepochs/ref-s")
        run.note(f"  train: {TRAIN_CITY}, "
                 f"{len(self.dataset.split.train)} training trips x "
                 f"{TRAIN_EPOCHS} epochs per job, "
                 f"{len(run.units['train']['plain'])} timed jobs")

    def verify(self) -> None:
        run = self.run
        run.check("val MAE identical across every job of the run",
                  len(set(self.maes)) == 1,
                  ", ".join(repr(m) for m in sorted(set(self.maes))))
        pinned = run.pins.get("train", {})
        bad = stats.pin_mismatches({"val_mae": self.maes[0]}, pinned)
        run.check("val MAE equals the pin", not bad,
                  f"got {self.maes[0]!r}, pinned {pinned.get('val_mae')!r}")
        # The last artifact round-trips and predicts identically.
        loaded = artifact_mod.load_artifact(self.artifact_dir,
                                            dataset=self.dataset)
        queries = held_out_queries(self.dataset)[:32]
        a = self.predictor.estimate_batch(queries)
        b = loaded.estimate_batch(queries)
        same = len(a) == len(b) == len(queries) and all(
            (x.seconds, x.lower, x.upper) == (y.seconds, y.lower, y.upper)
            for x, y in zip(a, b))
        run.check("artifact round-trips through load_artifact and "
                  "predicts identically", same)


def held_out_queries(dataset) -> List[Query]:
    return [Query(origin_xy=tuple(t.od.origin_xy),
                  destination_xy=tuple(t.od.destination_xy),
                  depart_time=float(t.od.depart_time))
            for t in dataset.split.test]


# ----------------------------------------------------------------------
# Serve stage
# ----------------------------------------------------------------------
def valid(response) -> bool:
    return (response.source == "model" and not response.degraded
            and math.isfinite(response.seconds)
            and response.lower <= response.seconds <= response.upper)


class ServeStage:
    """An in-process TravelTimeService over a loaded artifact."""

    name = "serve"

    def __init__(self, run: Run):
        self.run = run
        self.artifact_dir: Optional[str] = None
        self.service: Optional[TravelTimeService] = None
        self.queries: List[Query] = []
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.writes = 0
        # id(query) -> due time, read by the traced handler wrapper.
        self.due: Dict[int, float] = {}

    # -- set-up ------------------------------------------------------------
    def setup(self) -> float:
        """load_artifact plus service start; returns the wall.  The
        first service serves the run; a repeat (for the median of
        set-ups) stops the service it started."""
        run = self.run
        walls = []

        def rep(tracer):
            t0 = clock()
            predictor = artifact_mod.load_artifact(self.artifact_dir)
            service = TravelTimeService(predictor,
                                        config=ServiceConfig()).start()
            walls.append(clock() - t0)
            if self.service is None:
                self.service = service
            else:
                service.stop()
            return 1, walls[0], None
        run.unit("load", rep, run.trace)
        if not walls:
            raise RuntimeError("serve set-up failed")
        self.queries = held_out_queries(self.service.dataset)
        return walls[0]

    def stop(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def warmup(self) -> None:
        """Untimed units of each phase; the batch one doubles as the
        check that cached answers equal the uncached predictor's (no
        live-speed write has happened yet)."""
        svc = self.service
        working = self.queries[:BATCH_SET]
        svc.query_batch(working)
        self.same("batch answers equal uncached estimate_batch to 1e-9",
                  svc.query_batch(working),
                  svc.predictor.estimate_batch(working))
        rng = np.random.default_rng([self.run.seed, 5])
        wait_futures([svc.submit(q) for q in self.jittered(BURST, rng)],
                     timeout=60)
        self.open_loop(0.5, rng)

    # -- helpers -------------------------------------------------------
    def jittered(self, count: int, rng) -> List[Query]:
        picks = rng.integers(len(self.queries), size=count)
        noise = rng.normal(0.0, JITTER_M, size=(count, 4))
        out = []
        for k, i in enumerate(picks):
            q = self.queries[int(i)]
            out.append(Query(
                origin_xy=(q.origin_xy[0] + noise[k, 0],
                           q.origin_xy[1] + noise[k, 1]),
                destination_xy=(q.destination_xy[0] + noise[k, 2],
                                q.destination_xy[1] + noise[k, 3]),
                depart_time=q.depart_time))
        return out

    def cache_counts(self) -> Tuple[float, ...]:
        svc = self.service
        od, sl = svc.od_cache.stats(), svc.slice_cache.stats()
        return (od["hits"], od["misses"], sl["hits"], sl["misses"],
                svc.slice_cache.invalidations)

    def add_cache_delta(self, phase: str, before: Tuple[float, ...]) -> None:
        obs = self.run.obs[phase]
        for name, a, b in zip(("od_hits", "od_misses", "slice_hits",
                               "slice_misses", "invalidations"),
                              before, self.cache_counts()):
            obs[name] += b - a

    def handler_probe(self, phase: str) -> Callable[[Probe], None]:
        """Extra wrapper for traced serve units: the batcher handler,
        timed from each query's due time to the handler's start."""
        samples = self.run.samples[phase]

        def before(args, kwargs):
            start = clock()
            items = args[0]
            samples["batch_size"].append(len(items))
            for item in items:
                due = self.due.get(id(item))
                if due is not None:
                    samples["queue_wait_ms"].append((start - due) * 1e3)

        def extra(probe: Probe):
            probe.wrap(self.service.batcher, "handler", "serving.handler",
                       before=before)
        return extra

    def traced_unit(self, phase: str, tracer, body: Callable):
        """Run ``body()`` with the service's tracer set; cache counters
        of traced units are booked to ``phase``."""
        svc = self.service
        svc.tracer = tracer
        before = self.cache_counts()
        try:
            return body()
        finally:
            svc.tracer = None
            if tracer is not None:
                self.add_cache_delta(phase, before)

    def count(self, responses: List, errors: int = 0) -> None:
        """Book answers: a failed query or an answer that is degraded,
        non-finite or outside its band counts as failed."""
        run = self.run
        bad = sum(1 for r in responses if not valid(r))
        run.attempted += len(responses) + errors
        run.failed += errors + bad
        run.check("every serve answer is finite, inside its band and from "
                  "the model", bad == 0, f"{bad} not")

    def settle(self, futures) -> None:
        responses, errors = [], 0
        for future in futures:
            try:
                responses.append(future.result(timeout=60))
            except Exception:
                errors += 1
        self.count(responses, errors)

    # -- units ---------------------------------------------------------
    def batch_maker(self) -> Callable:
        """Closed loop of query_batch over repeated held-out ODs."""
        def make(index, twin):
            working = self.queries[:BATCH_SET]

            def fn(tracer):
                def body():
                    t0 = clock()
                    answers = [self.service.query_batch(working)
                               for _ in range(BATCH_CALLS)]
                    return answers, clock() - t0
                answers, wall = self.traced_unit("batch", tracer, body)

                def verify():
                    for batch in answers:
                        self.count(batch)
                    self.live_check(working, answers[-1])
                return len(working) * BATCH_CALLS, wall, verify
            return fn
        return make

    def burst_maker(self) -> Callable:
        """Every query of a unit enqueued at once through submit."""
        run = self.run

        def make(index, twin):
            rng = np.random.default_rng([run.seed, 11, index, int(twin)])
            queries = self.jittered(BURST, rng)

            def fn(tracer):
                def body():
                    done = [0.0] * len(queries)
                    futures = []
                    self.due.clear()
                    t0 = clock()
                    for k, q in enumerate(queries):
                        self.due[id(q)] = t0
                        future = self.service.submit(q)
                        future.add_done_callback(
                            lambda f, k=k: done.__setitem__(k, clock()))
                        futures.append(future)
                    threads = threading.active_count()
                    wait_futures(futures, timeout=60)
                    return futures, max(done) - t0, threads
                futures, wall, threads = self.traced_unit("burst", tracer,
                                                          body)

                def verify():
                    self.settle(futures)
                    run.check("serve runs two threads (caller, batcher)",
                              threads == 2, f"saw {threads}")
                return len(queries), wall, verify
            return fn
        return make

    def online_short(self) -> bool:
        """Whether the traced run's online samples are too few for
        p99's tail rule."""
        return (len(self.run.samples["online"]["latency_ms"])
                < stats.min_samples_for(99.0))

    def online_maker(self) -> Callable:
        """Open loop at ONLINE_RATE with live-speed writes."""
        run = self.run
        duration = ROUND["online"]

        def make(index, twin):
            rng = np.random.default_rng([run.seed, 17, index])

            def fn(tracer):
                loop = self.traced_unit(
                    "online", tracer,
                    lambda: self.open_loop(duration, rng,
                                           record_due=tracer is not None))

                def verify():
                    self.settle(loop["futures"])
                    latencies = [
                        (done - due) * 1e3
                        for done, due in zip(loop["done"], loop["due"])]
                    if tracer is None:
                        self.latencies += latencies
                    else:
                        run.samples["online"]["latency_ms"] += latencies
                    late = [(sent - due) * 1e3
                            for sent, due in zip(loop["sent"], loop["due"])]
                    self.late += late
                    self.writes += len(loop["writes"])
                    if tracer is not None:
                        run.samples["online"]["late_ms"] += late
                    run.check("serve runs two threads (caller, batcher)",
                              loop["threads"] == 2,
                              f"saw {loop['threads']}")
                    self.after_write_check(loop)
                return len(loop["due"]), duration, verify
            return fn
        return make

    def open_loop(self, duration: float, rng,
                  record_due: bool = False) -> Dict[str, object]:
        """Send jittered queries at fixed due times, writing live speeds
        every WRITE_EVERY_S; return what was sent and when it finished.

        Latency is measured from the due time, so a stalled generator
        shows as latency of the queries it sent late.
        """
        svc = self.service
        n = int(ONLINE_RATE * duration)
        queries = self.jittered(n, rng)
        horizon = svc.dataset.horizon_seconds
        periods = [svc.speed_store.period_before(
            normalize_depart_time(q.depart_time, horizon)) for q in queries]
        done = [0.0] * n
        sent = [0.0] * n
        futures = []
        writes: List[Tuple[float, int]] = []   # (time applied, period)
        next_write = WRITE_EVERY_S
        start = clock() + 0.01
        due = [start + i / ONLINE_RATE for i in range(n)]
        self.due.clear()
        for i, q in enumerate(queries):
            now = clock()
            if now < due[i]:
                time.sleep(due[i] - now)
            if due[i] - start >= next_write:
                next_write += WRITE_EVERY_S
                # A period an upcoming query reads, so the write matters.
                period = periods[min(i + 5, n - 1)]
                base = svc.speed_store.matrix_at(period)
                factor = rng.uniform(0.8, 1.2, size=base.shape)
                svc.apply_live_speeds({period: base * factor})
                writes.append((clock(), period))
            if record_due:
                self.due[id(q)] = due[i]
            sent[i] = clock()
            future = svc.submit(q)
            future.add_done_callback(
                lambda f, i=i: done.__setitem__(i, clock()))
            futures.append(future)
        threads = threading.active_count()
        wait_futures(futures, timeout=60)
        return {"queries": queries, "futures": futures, "periods": periods,
                "due": due, "sent": sent, "done": done, "writes": writes,
                "threads": threads}

    def after_write_check(self, loop: Dict[str, object]) -> None:
        """Answers sent after the last write to their period equal
        ``estimate_from_ods`` fed matrices from ``service.speed_store``.

        Runs right after the window, before any later write."""
        last_write: Dict[int, float] = {}
        for when, period in loop["writes"]:
            last_write[period] = when
        periods, sent = loop["periods"], loop["sent"]
        sampled = [i for i in range(len(periods))
                   if periods[i] in last_write
                   and sent[i] > last_write[periods[i]]][:8]
        predictor = self.service.predictor
        live = self.service.speed_store
        ok = bool(sampled)
        for i in sampled:
            q = loop["queries"][i]
            future = loop["futures"][i]
            if future.exception() is not None:
                ok = False
                continue
            od = predictor.match_query(q.origin_xy, q.destination_xy,
                                       q.depart_time)
            mats = np.stack([live.normalized_matrix_before(od.depart_time)])
            want = predictor.estimate_from_ods([od], mats)[0].seconds
            ok = ok and stats.close(future.result().seconds, want)
        self.run.check("answers after a write equal estimate_from_ods on "
                       "the live store", ok, f"{len(sampled)} sampled")

    # -- results -------------------------------------------------------
    def same(self, name: str, responses: List, estimates: List) -> None:
        self.run.check(name, len(responses) == len(estimates) and all(
            stats.close(r.seconds, e.seconds) and stats.close(r.lower, e.lower)
            and stats.close(r.upper, e.upper)
            for r, e in zip(responses, estimates)))

    def live_check(self, queries: List[Query], answers: List) -> None:
        """Answers equal the uncached path fed the live store's matrices
        (earlier online windows wrote live speeds); runs right after the
        answering unit, before any later write."""
        predictor = self.service.predictor
        live = self.service.speed_store
        ods = [predictor.match_query(*q) for q in queries]
        mats = np.stack([live.normalized_matrix_before(od.depart_time)
                         for od in ods])
        self.same("timed batch answers equal estimate_from_ods on the live "
                  "store to 1e-9", answers,
                  predictor.estimate_from_ods(ods, mats))

    def report(self) -> None:
        run = self.run
        run.e2e["batch_qps"] = (run.ref_throughput("batch", "queries"),
                                "queries/ref-s")
        run.e2e["submit_qps"] = (run.ref_throughput("burst", "queries"),
                                 "queries/ref-s")
        p50, n = stats.tail_percentile(self.latencies, 50.0)
        run.e2e["online_p50_ms"] = (p50, "ms")
        # p99 is a per-layer metric: the traced run tops its samples up
        # to the tail rule; here it is noted only when the rule holds.
        try:
            p99 = f"{stats.tail_percentile(self.latencies, 99.0)[0]:.3f} ms"
        except ValueError:
            p99 = f"not reported (needs n >= {stats.min_samples_for(99.0)})"
        windows = len(run.units["online"]["plain"])
        run.note(f"  online: {ONLINE_RATE:g} q/s offered in {windows} "
                 f"windows of {ROUND['online']:g} s, "
                 f"{self.writes} writes; p50 {p50:.3f} ms, p99 {p99} over "
                 f"n={n} samples; generator late p99 "
                 f"{stats.percentile(self.late, 99):.3f} ms")
