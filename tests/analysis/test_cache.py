"""Incremental lint cache: keys, tolerance, and warm-run semantics."""

import json

import pytest

from repro.analysis import (
    CACHE_SCHEMA,
    LintCache,
    LintConfig,
    config_key,
    lint_project,
)
from repro.analysis.cache import content_hash

BAD = ("import numpy as np\n"
       "RNG = np.random.default_rng(0)\n")
CLEAN = "VALUE = 1\n"


def write_tree(root):
    pkg = root / "src" / "repro" / "zone"
    pkg.mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "bad.py").write_text(BAD)
    (pkg / "ok.py").write_text(CLEAN)
    return pkg


# ---------------------------------------------------------------------------
# Keys.

class TestConfigKey:
    def test_stable_for_same_inputs(self):
        config = LintConfig()
        assert (config_key(config, ["D001", "H002"])
                == config_key(config, ["H002", "D001"]))

    def test_changes_with_rules_and_config(self):
        config = LintConfig()
        base = config_key(config, ["D001"])
        assert config_key(config, ["D001", "H002"]) != base
        other = LintConfig(layers=(("solo", ()),))
        assert config_key(other, ["D001"]) != base


# ---------------------------------------------------------------------------
# The store itself.

class TestLintCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = LintCache(str(path))
        cache.load("k1")
        cache.put("a.py", "sha-a", {"findings": []})
        assert cache.save()

        warm = LintCache(str(path))
        warm.load("k1")
        assert warm.get("a.py", "sha-a") == {"findings": []}
        assert warm.hits == 1

    def test_sha_mismatch_is_a_miss(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache.json"))
        cache.load("k1")
        cache.put("a.py", "sha-a", {})
        assert cache.get("a.py", "sha-b") is None
        assert cache.misses == 1

    def test_key_mismatch_discards_everything(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = LintCache(str(path))
        cache.load("k1")
        cache.put("a.py", "sha-a", {})
        cache.save()

        stale = LintCache(str(path))
        stale.load("k2")
        assert stale.get("a.py", "sha-a") is None

    def test_missing_and_corrupt_files_load_empty(self, tmp_path):
        missing = LintCache(str(tmp_path / "absent.json"))
        missing.load("k1")
        assert missing.get("a.py", "sha") is None

        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        cache = LintCache(str(garbled))
        cache.load("k1")
        assert cache.get("a.py", "sha") is None

    def test_foreign_schema_loads_empty(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(
            {"schema": "someone.else/v9", "key": "k1",
             "files": {"a.py": {"sha256": "s", "outcome": {}}}}))
        cache = LintCache(str(path))
        cache.load("k1")
        assert cache.get("a.py", "s") is None

    def test_save_writes_schema_atomically(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = LintCache(str(path))
        cache.load("k1")
        cache.save()
        payload = json.loads(path.read_text())
        assert payload["schema"] == CACHE_SCHEMA
        assert payload["key"] == "k1"
        # No mkstemp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    @pytest.mark.parametrize("failure", ["oserror", "non-json outcome"])
    def test_failed_save_keeps_previous_and_leaves_no_temp(
            self, tmp_path, monkeypatch, failure):
        path = tmp_path / "cache.json"
        cache = LintCache(str(path))
        cache.load("k1")
        assert cache.save()
        before = path.read_text()
        if failure == "oserror":
            def full_disk(*args, **kwargs):
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(json, "dump", full_disk)
            assert cache.save() is False
        else:
            cache.put("a.py", "s", {"findings": object()})
            with pytest.raises(TypeError):
                cache.save()
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        assert path.read_text() == before

    def test_save_unwritable_location_returns_false(self, tmp_path):
        cache = LintCache(str(tmp_path / "no" / "such" / "dir" / "c.json"))
        cache.load("k1")
        assert cache.save() is False

    def test_save_without_load_is_a_no_op(self, tmp_path):
        cache = LintCache(str(tmp_path / "cache.json"))
        assert cache.save() is False

    def test_content_hash_is_sha256(self):
        assert content_hash(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855")


# ---------------------------------------------------------------------------
# Warm-run behaviour through lint_project.

class TestWarmRuns:
    def test_warm_run_identical_and_fully_cached(self, tmp_path):
        pkg = write_tree(tmp_path)
        cache_path = str(tmp_path / ".reprolint-cache.json")
        config = LintConfig(layers=(("zone", ()),))

        cold = lint_project([pkg], config=config, cache_path=cache_path)
        assert cold.stats["cache_hits"] == 0
        assert cold.stats["cache_misses"] == cold.stats["files"] > 0

        warm = lint_project([pkg], config=config, cache_path=cache_path)
        assert warm.stats["cache_hits"] == warm.stats["files"]
        assert warm.stats["cache_misses"] == 0
        assert ([f.to_dict() for f in warm.findings]
                == [f.to_dict() for f in cold.findings])
        assert [f.rule for f in warm.findings] == ["D001"]

    def test_edited_file_invalidates_only_itself(self, tmp_path):
        pkg = write_tree(tmp_path)
        cache_path = str(tmp_path / ".reprolint-cache.json")
        lint_project([pkg], cache_path=cache_path)

        (pkg / "ok.py").write_text(CLEAN + "OTHER = 2\n")
        result = lint_project([pkg], cache_path=cache_path)
        assert result.stats["cache_misses"] == 1
        assert result.stats["cache_hits"] == result.stats["files"] - 1

    def test_rule_selection_change_invalidates_everything(self, tmp_path):
        pkg = write_tree(tmp_path)
        cache_path = str(tmp_path / ".reprolint-cache.json")
        lint_project([pkg], cache_path=cache_path)

        from repro.analysis import rule_by_id
        narrowed = lint_project([pkg], rules=[rule_by_id("H002")],
                                cache_path=cache_path)
        assert narrowed.stats["cache_hits"] == 0
        assert narrowed.findings == []

    def test_cached_project_rules_still_fire(self, tmp_path):
        # A-series findings come from the graph rebuilt out of cached
        # records: a warm run must still report the layering violation.
        pkg = tmp_path / "src" / "repro" / "appb"
        pkg.mkdir(parents=True)
        (pkg / "beta.py").write_text(
            "# repro: module repro.appb.beta\n"
            "import repro.appa.alpha\n")
        config = LintConfig(layers=(("appa", ()), ("appb", ())))
        cache_path = str(tmp_path / ".reprolint-cache.json")

        cold = lint_project([pkg], config=config, cache_path=cache_path)
        warm = lint_project([pkg], config=config, cache_path=cache_path)
        assert [f.rule for f in cold.findings] == ["A001"]
        assert ([f.to_dict() for f in warm.findings]
                == [f.to_dict() for f in cold.findings])
        assert warm.stats["cache_hits"] == warm.stats["files"]

    def test_corrupt_entry_falls_back_to_reanalysis(self, tmp_path):
        pkg = write_tree(tmp_path)
        cache_path = tmp_path / ".reprolint-cache.json"
        config = LintConfig(layers=(("zone", ()),))
        lint_project([pkg], config=config, cache_path=str(cache_path))

        payload = json.loads(cache_path.read_text())
        first = sorted(payload["files"])[0]
        payload["files"][first]["outcome"] = {"mangled": True}
        cache_path.write_text(json.dumps(payload))

        result = lint_project([pkg], config=config,
                              cache_path=str(cache_path))
        assert [f.rule for f in result.findings] == ["D001"]
