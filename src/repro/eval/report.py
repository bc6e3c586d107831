"""Experiment result persistence: JSON and Markdown reports.

The harness produces :class:`~repro.eval.harness.MethodResult` objects;
this module serialises them so experiment runs can be archived, diffed
and rendered — the bookkeeping layer behind EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..atomic import write_json
from .harness import MethodResult


def result_to_dict(result: MethodResult,
                   include_predictions: bool = False) -> dict:
    """A JSON-ready dict for one method's results."""
    out = {
        "name": result.name,
        "metrics": {k: float(v) for k, v in result.metrics.items()},
        "model_size_bytes": int(result.model_size_bytes),
        "train_seconds": float(result.train_seconds),
        "predict_seconds_per_k": float(result.predict_seconds_per_k),
        "num_test_trips": int(len(result.actuals)),
    }
    if include_predictions:
        out["predictions"] = [float(x) for x in result.predictions]
        out["actuals"] = [float(x) for x in result.actuals]
    return out


def save_report(results: Dict[str, MethodResult], path: str,
                metadata: Optional[dict] = None,
                include_predictions: bool = False) -> None:
    """Write a comparison run as JSON."""
    payload = {
        "metadata": metadata or {},
        "methods": {name: result_to_dict(res, include_predictions)
                    for name, res in results.items()},
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    write_json(path, payload)


def load_report(path: str) -> dict:
    """Read a report written by :func:`save_report`."""
    with open(path) as handle:
        return json.load(handle)


def markdown_table(results: Dict[str, MethodResult],
                   title: str = "Comparison") -> str:
    """Render a comparison as a GitHub-flavoured Markdown table."""
    lines = [f"### {title}", "",
             "| method | MAE (s) | MAPE (%) | MARE (%) | size (B) | "
             "train (s) |",
             "|---|---|---|---|---|---|"]
    for name, res in results.items():
        lines.append(
            f"| {name} | {res.metrics['mae']:.2f} "
            f"| {100 * res.metrics['mape']:.2f} "
            f"| {100 * res.metrics['mare']:.2f} "
            f"| {res.model_size_bytes} "
            f"| {res.train_seconds:.2f} |")
    return "\n".join(lines)


def compare_reports(old: dict, new: dict) -> Dict[str, Dict[str, float]]:
    """Per-method metric deltas between two loaded reports.

    Positive delta = the new run is worse (higher error).  Methods absent
    from either run are skipped.
    """
    deltas: Dict[str, Dict[str, float]] = {}
    for name, new_entry in new.get("methods", {}).items():
        old_entry = old.get("methods", {}).get(name)
        if old_entry is None:
            continue
        deltas[name] = {
            metric: float(new_entry["metrics"][metric]
                          - old_entry["metrics"][metric])
            for metric in new_entry["metrics"]
            if metric in old_entry["metrics"]
        }
    return deltas
