"""Run registry: durable, queryable records of every training run.

Each run owns one directory under the registry root::

    <root>/<run_id>/
        run.json          identity + status + final metrics
        config.json       the exact DeepODConfig of the run
        metrics.jsonl     one line per validation evaluation
        report.json       final held-out report (written on completion)
        checkpoints/      training snapshots (see ``checkpoint.py``)
        artifact/         optional serving artifact of the trained model

Run ids are deterministic — ``<city>-<config_hash[:10]>-s<seed>`` — so
re-running the same experiment lands in the same directory (the previous
attempt's record is overwritten, its checkpoints reused for resume).
The registry is a plain directory tree: safe under concurrent writers as
long as each worker owns a distinct run id, which the sweep executor
guarantees by construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..atomic import write_json
from ..core.config import DeepODConfig

RUN_FILE = "run.json"
CONFIG_FILE = "config.json"
METRICS_FILE = "metrics.jsonl"
REPORT_FILE = "report.json"
TRACE_FILE = "trace.json"
CHECKPOINTS_DIR = "checkpoints"
ARTIFACT_DIR = "artifact"

STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"


class RegistryError(Exception):
    """The registry or a run record is missing or malformed."""


def config_hash(config: DeepODConfig,
                dataset_params: Optional[Dict] = None) -> str:
    """Deterministic hash of a config (+ dataset identity).

    Uses the sorted-JSON form of the dataclass, so two configs hash equal
    iff every field is equal — the run id's collision-free backbone.
    """
    payload = {"config": dataclasses.asdict(config)}
    if dataset_params:
        payload["dataset"] = dict(dataset_params)
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def make_run_id(city: str, config: DeepODConfig, seed: int,
                dataset_params: Optional[Dict] = None) -> str:
    return f"{city}-{config_hash(config, dataset_params)[:10]}-s{seed}"


@dataclass
class RunRecord:
    """The queryable summary of one run (mirrors ``run.json``)."""

    run_id: str
    status: str
    city: str
    seed: int
    config_hash: str
    dataset_fingerprint: str = ""
    dataset_params: Dict = field(default_factory=dict)
    started_unix: float = 0.0
    finished_unix: float = 0.0
    metrics: Dict = field(default_factory=dict)
    error: str = ""

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


class Run:
    """Handle on one run directory: paths + record IO + metric streaming."""

    def __init__(self, directory: str, record: RunRecord):
        self.directory = directory
        self.record = record

    # -- paths ----------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self.record.run_id

    @property
    def checkpoints_dir(self) -> str:
        return os.path.join(self.directory, CHECKPOINTS_DIR)

    @property
    def artifact_dir(self) -> str:
        return os.path.join(self.directory, ARTIFACT_DIR)

    @property
    def metrics_path(self) -> str:
        return os.path.join(self.directory, METRICS_FILE)

    @property
    def trace_path(self) -> str:
        return os.path.join(self.directory, TRACE_FILE)

    # -- record IO ------------------------------------------------------
    def save_record(self) -> None:
        write_json(os.path.join(self.directory, RUN_FILE),
                   self.record.to_dict())

    def append_metric(self, step: int, val_mae: float, lr: float,
                      **extra) -> None:
        """Append one evaluation to ``metrics.jsonl`` (crash-durable:
        each line is flushed before the call returns)."""
        line = {"step": int(step), "val_mae": float(val_mae),
                "lr": float(lr), **extra}
        with open(self.metrics_path, "a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()

    def metrics_history(self) -> List[Dict]:
        if not os.path.exists(self.metrics_path):
            return []
        rows = []
        with open(self.metrics_path) as handle:
            for raw in handle:
                raw = raw.strip()
                if raw:
                    rows.append(json.loads(raw))
        return rows

    def write_report(self, report: Dict) -> None:
        write_json(os.path.join(self.directory, REPORT_FILE), report)

    def write_trace(self, trace: Dict) -> None:
        """Persist a span-tree trace (``repro.obs`` schema) next to the
        JSONL metrics, so a run's stage-level timing is queryable with
        the rest of its record."""
        write_json(self.trace_path, trace)

    def read_report(self) -> Optional[Dict]:
        path = os.path.join(self.directory, REPORT_FILE)
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return json.load(handle)

    # -- lifecycle ------------------------------------------------------
    def mark_completed(self, metrics: Dict) -> None:
        self.record.status = STATUS_COMPLETED
        self.record.finished_unix = time.time()
        self.record.metrics = dict(metrics)
        self.save_record()

    def mark_failed(self, error: str) -> None:
        self.record.status = STATUS_FAILED
        self.record.finished_unix = time.time()
        self.record.error = str(error)
        self.save_record()


class RunRegistry:
    """All runs under one root directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- creation -------------------------------------------------------
    def create_run(self, city: str, config: DeepODConfig, seed: int,
                   dataset_params: Optional[Dict] = None,
                   dataset_fingerprint: str = "") -> Run:
        """Open (or re-open) the run directory for this experiment.

        Re-creating an existing run id resets its record to ``running``
        but keeps checkpoints, so an interrupted run resumes in place.
        """
        run_id = make_run_id(city, config, seed, dataset_params)
        directory = os.path.join(self.root, run_id)
        os.makedirs(directory, exist_ok=True)
        os.makedirs(os.path.join(directory, CHECKPOINTS_DIR), exist_ok=True)
        record = RunRecord(
            run_id=run_id, status=STATUS_RUNNING, city=city, seed=seed,
            config_hash=config_hash(config, dataset_params),
            dataset_fingerprint=dataset_fingerprint,
            dataset_params=dict(dataset_params or {}),
            started_unix=time.time())
        run = Run(directory, record)
        write_json(os.path.join(directory, CONFIG_FILE),
                   dataclasses.asdict(config))
        run.save_record()
        return run

    # -- queries --------------------------------------------------------
    def get(self, run_id: str) -> Run:
        directory = os.path.join(self.root, run_id)
        path = os.path.join(directory, RUN_FILE)
        if not os.path.exists(path):
            raise RegistryError(f"unknown run {run_id!r} under {self.root}")
        with open(path) as handle:
            try:
                record = RunRecord.from_dict(json.load(handle))
            except (json.JSONDecodeError, TypeError) as exc:
                raise RegistryError(f"corrupt run record {path}: {exc}")
        return Run(directory, record)

    def list_runs(self, status: Optional[str] = None) -> List[Run]:
        """All runs, newest-started first; optionally filtered by status."""
        runs = []
        if not os.path.isdir(self.root):
            return runs
        for name in sorted(os.listdir(self.root)):
            if not os.path.exists(os.path.join(self.root, name, RUN_FILE)):
                continue
            run = self.get(name)
            if status is None or run.record.status == status:
                runs.append(run)
        runs.sort(key=lambda r: r.record.started_unix, reverse=True)
        return runs

    def best_run(self, metric: str = "test_mae",
                 status: str = STATUS_COMPLETED) -> Optional[Run]:
        """The completed run minimising ``metric`` (lower is better)."""
        best: Optional[Run] = None
        for run in self.list_runs(status=status):
            value = run.record.metrics.get(metric)
            if value is None:
                continue
            if best is None or value < best.record.metrics[metric]:
                best = run
        return best

    def load_config(self, run_id: str) -> DeepODConfig:
        path = os.path.join(self.root, run_id, CONFIG_FILE)
        if not os.path.exists(path):
            raise RegistryError(f"run {run_id!r} has no config.json")
        with open(path) as handle:
            payload = json.load(handle)
        try:
            return DeepODConfig.from_dict(payload)
        except (TypeError, ValueError) as exc:
            raise RegistryError(f"invalid run config: {exc}")
