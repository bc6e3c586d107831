"""Incremental lint cache: skip re-analysing files whose bytes, config
and rule set are unchanged.

The cache file (``.reprolint-cache.json`` by convention) maps each
linted path to the sha256 of its content plus the *complete* per-file
outcome — kept and suppressed findings, the pragma index, the decorator
alias table and the :class:`~repro.analysis.graph.ModuleRecord`.  A warm
re-lint therefore only hashes files and re-runs the (cheap, parse-free)
project rules over cached records; nothing is re-parsed or re-visited.

Invalidation is fail-closed and total: the cache key folds in the
engine version, the lint config and the active rule ids, so changing
any of them discards every entry rather than risking stale findings.
A corrupt or foreign cache file is treated as empty, never an error —
the cache is an accelerator, not a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from ..atomic import write_json

CACHE_SCHEMA = "repro.analysis.cache/v1"

# Bump to invalidate every cache after engine-semantics changes.
ENGINE_VERSION = 2


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_key(config, rule_ids) -> str:
    """Cache partition key: engine version + config + active rules."""
    blob = json.dumps(
        {"engine": ENGINE_VERSION, "config": repr(config),
         "rules": sorted(rule_ids)},
        sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class LintCache:
    """Content-addressed store of per-file lint outcomes."""

    def __init__(self, path: str):
        self.path = str(path)
        self.key: Optional[str] = None
        self._files: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def load(self, key: str) -> None:
        """Bind the cache to a config key, loading compatible entries."""
        self.key = key
        self._files = {}
        try:
            with open(self.path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("schema") != CACHE_SCHEMA:
            return
        if payload.get("key") != key:
            return
        files = payload.get("files")
        if isinstance(files, dict):
            self._files = files

    def get(self, path: str, sha: str) -> Optional[dict]:
        entry = self._files.get(path)
        if entry is not None and entry.get("sha256") == sha:
            self.hits += 1
            return entry["outcome"]
        self.misses += 1
        return None

    def put(self, path: str, sha: str, outcome: dict) -> None:
        self._files[path] = {"sha256": sha, "outcome": outcome}

    def save(self) -> bool:
        """Persist atomically; returns False (never raises) when the
        location is unwritable — caching is best-effort."""
        if self.key is None:
            return False
        payload = {"schema": CACHE_SCHEMA, "key": self.key,
                   "files": self._files}
        try:
            write_json(self.path, payload)
            return True
        except OSError:
            return False
