"""Per-layer metrics of a traced run, derived from the probe's totals.

Times are per unit of work of their phase (``s/build``, ``s/job``,
``s/setup``, ``s/load``, ``s/1000q``) so runs that fit a different
number of units in their ``--seconds`` stay comparable.
"""

from __future__ import annotations

from typing import Dict, Tuple

import stages
import stats

BUILD_PHASES = tuple(stages.BUILD_PHASES)
SERVE_PHASES = tuple(p for p in stages.PHASES if stages.STAGE_OF[p] == "serve")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run) -> Dict[str, Tuple[float, str]]:
    probe = run.probe
    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    def traced(phase):
        return run.units[phase]["traced"]

    for ph in BUILD_PHASES:
        n = len(traced(ph))
        get = lambda key: probe.get(ph, key)  # noqa: E731
        per = "s/build"
        put(f"roadnet.sssp_s.{ph}", get("roadnet.sssp").incl_s / n, per)
        put(f"roadnet.sssp_calls.{ph}", get("roadnet.sssp").calls / n,
            "calls/build")
        for consumer in ("trips", "hmm"):
            key = f"roadnet.route.{consumer}"
            put(f"roadnet.route_s.{consumer}.{ph}", get(key).incl_s / n, per)
            put(f"roadnet.route_calls.{consumer}.{ph}", get(key).calls / n,
                "calls/build")
        put(f"roadnet.spatial_s.{ph}", get("roadnet.spatial").incl_s / n, per)
        put(f"roadnet.spatial_calls.{ph}", get("roadnet.spatial").calls / n,
            "calls/build")
        put(f"mapmatching.candidates_s.{ph}",
            get("mapmatching.candidates").incl_s / n, per)
        put(f"mapmatching.self_s.{ph}", get("mapmatching.match").self_s / n,
            per)
        obs = run.obs[ph]
        put(f"mapmatching.matched_share.{ph}",
            _ratio(obs["matched"], obs["trips"]), "share")
        put(f"mapmatching.distinct_share.{ph}",
            _ratio(obs["distinct"], obs["trips"]), "share")
        for cache, name in (("sssp", "sssp_row_hit_rate"),
                            ("route", "route_hit_rate")):
            hits = obs[f"{cache}_hits"]
            put(f"mapmatching.{name}.{ph}",
                _ratio(hits, hits + obs[f"{cache}_misses"]), "share")
        put(f"datagen.generate_self_s.{ph}",
            get("datagen.generate").self_s / n, per)
        for key in ("speed_matrix", "write", "open", "fingerprint"):
            put(f"datagen.{key}_s.{ph}", get(f"datagen.{key}").incl_s / n, per)
        put(f"unattributed_s.{ph}", unattributed(run, ph) / n, per)

    n = len(traced("setup"))
    get = lambda key: probe.get("setup", key)  # noqa: E731
    put("roadnet.route_s.trips.setup", get("roadnet.route.trips").incl_s / n,
        "s/setup")
    put("datagen.generate_self_s.setup", get("datagen.generate").self_s / n,
        "s/setup")
    put("datagen.speed_matrix_s.setup", get("datagen.speed_matrix").incl_s / n,
        "s/setup")

    n = len(traced("train"))
    get = lambda key: probe.get("train", key)  # noqa: E731
    for name, key in (("embedding.walks_s", "embedding.walks"),
                      ("embedding.sgns_s", "embedding.sgns"),
                      ("core.forward_s", "core.forward"),
                      ("nn.backward_s", "nn.backward"),
                      ("nn.optimizer_s", "nn.optimizer"),
                      ("core.calibrate_s", "core.calibrate"),
                      ("serving.save_artifact_s", "serving.save_artifact")):
        put(name, get(key).incl_s / n, "s/job")
    put("core.train_steps", get("core.forward").calls / n, "steps/job")
    put("unattributed_s.train", unattributed(run, "train") / n, "s/job")

    n = len(traced("load"))
    get = lambda key: probe.get("load", key)  # noqa: E731
    put("serving.load_artifact.dataset_s",
        get("serving.load_artifact.dataset").incl_s / n, "s/load")
    put("serving.load_artifact.model_s",
        get("serving.load_artifact.model").incl_s / n, "s/load")
    put("datagen.fingerprint_s.load", get("datagen.fingerprint").incl_s / n,
        "s/load")

    for ph in SERVE_PHASES:
        kq = sum(work for work, _ in traced(ph)) / 1000.0
        get = lambda key: probe.get(ph, key)  # noqa: E731
        obs = run.obs[ph]
        per = "s/1000q"
        if ph != "batch":
            # The batch phase repeats cached ODs: no spatial-index work.
            put(f"roadnet.spatial_s.{ph}", get("roadnet.spatial").incl_s / kq,
                per)
            put(f"roadnet.spatial_calls.{ph}",
                get("roadnet.spatial").calls / kq, "calls/1000q")
        put(f"core.predict_s.{ph}", get("core.predict").incl_s / kq, per)
        put(f"core.queries_per_predict.{ph}",
            _ratio(obs["predicted"], get("core.predict").calls), "queries/call")
        put(f"serving.match_s.{ph}", get("serving.match").incl_s / kq, per)
        put(f"serving.od_cache_hit_rate.{ph}",
            _ratio(obs["od_hits"], obs["od_hits"] + obs["od_misses"]), "share")
        put(f"serving.speed_slices_s.{ph}",
            get("serving.speed_slices").incl_s / kq, per)
        put(f"serving.slice_cache_hit_rate.{ph}",
            _ratio(obs["slice_hits"], obs["slice_hits"] + obs["slice_misses"]),
            "share")
        if ph != "batch":
            samples = run.samples[ph]
            put(f"serving.queue_wait_ms.p50.{ph}",
                stats.tail_percentile(samples["queue_wait_ms"], 50)[0], "ms")
            put(f"serving.queue_wait_ms.p99.{ph}",
                stats.tail_percentile(samples["queue_wait_ms"], 99)[0], "ms")
            put(f"serving.batch_size_mean.{ph}",
                _ratio(sum(samples["batch_size"]), len(samples["batch_size"])),
                "queries/batch")
        if ph == "online":
            put("serving.slice_invalidations.online",
                obs["invalidations"] / kq, "count/1000q")
            put("serving.apply_speeds_s.online",
                get("serving.apply_speeds").incl_s / kq, per)
            # p99 of the open loop, due to done: on a shared 2-vCPU host
            # it spread 0.12-0.84 (IQR/median) across 10-run sets, so it
            # is reported here, without a bound, rather than as an
            # end-to-end metric.
            put("online_p99_ms",
                stats.tail_percentile(run.samples["online"]["latency_ms"],
                                      99)[0], "ms")
            put("serving.gen_late_ms.p99.online",
                stats.tail_percentile(run.samples["online"]["late_ms"],
                                      99)[0], "ms")
        else:
            put(f"unattributed_s.{ph}", unattributed(run, ph) / kq, per)

    put("obs.trace_overhead_share", overhead(run), "share")
    return out


def unattributed(run, phase: str) -> float:
    """Traced wall of ``phase`` minus the self time of every layer."""
    wall = sum(w for _, w in run.units[phase]["traced"])
    return wall - run.probe.self_total(phase)


def overhead(run) -> float:
    """Traced over untraced wall of the primary stage's unit pairs."""
    traced, plain = [], []
    for phase, stage in stages.STAGE_OF.items():
        units = run.units[phase]
        if stage != run.primary or not units["plain"]:
            continue
        traced += [w for _, w in units["traced"]]
        plain += [w for _, w in units["plain"]]
    return stats.overhead_share(traced, plain)
