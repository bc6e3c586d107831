"""Engine-level tests: pragmas, module identity, fixes, CLI plumbing."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    analyze_source,
    apply_fixes,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Pragma semantics.

class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        src = ("import numpy as np\n"
               "RNG = np.random.default_rng(0)"
               "  # repro: allow[D001] seeded on purpose\n")
        result = analyze_source(src, module="tests.sample")
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["D001"]

    def test_pragma_on_line_above_suppresses(self):
        src = ("import numpy as np\n"
               "# repro: allow[D001] seeded on purpose\n"
               "RNG = np.random.default_rng(0)\n")
        result = analyze_source(src, module="tests.sample")
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["D001"]

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = ("import numpy as np\n"
               "RNG = np.random.default_rng(0)  # repro: allow[H002] nope\n")
        result = analyze_source(src, module="tests.sample")
        assert [f.rule for f in result.findings] == ["D001"]

    def test_multi_rule_pragma(self):
        src = ("import numpy as np\n"
               "RNG = np.random.default_rng()"
               "  # repro: allow[D001, D002] fixture\n")
        result = analyze_source(src, module="repro.sample")
        assert result.findings == []
        assert sorted(f.rule for f in result.suppressed) == ["D001", "D002"]

    def test_pragma_suppressed_fixture_lints_clean(self):
        assert lint_file(FIXTURES / "pragma_suppressed.py") == []

    def test_pragma_above_decorator_suppresses_def_line_finding(self):
        # The H003 finding lands on the ``def`` line, but the natural
        # place for the pragma is above the decorator stack.
        src = ("# repro: allow[H003] registry owns the default\n"
               "@property\n"
               "def f(self, acc=[]):\n"
               "    return acc\n")
        result = analyze_source(src, module="repro.sample")
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["H003"]

    def test_pragma_above_multi_decorator_stack_suppresses(self):
        src = ("# repro: allow[H003] fixture\n"
               "@staticmethod\n"
               "@property\n"
               "def f(acc=[]):\n"
               "    return acc\n")
        result = analyze_source(src, module="repro.sample")
        assert result.findings == []

    def test_pragma_between_decorator_and_def_still_works(self):
        src = ("@property\n"
               "# repro: allow[H003] fixture\n"
               "def f(self, acc=[]):\n"
               "    return acc\n")
        result = analyze_source(src, module="repro.sample")
        assert result.findings == []

    def test_decorator_alias_does_not_leak_to_other_rules(self):
        # A pragma above the decorator names the wrong rule: the
        # def-line finding must survive.
        src = ("# repro: allow[D001] wrong rule\n"
               "@property\n"
               "def f(self, acc=[]):\n"
               "    return acc\n")
        result = analyze_source(src, module="repro.sample")
        assert [f.rule for f in result.findings] == ["H003"]


# ---------------------------------------------------------------------------
# Module identity.

class TestModuleIdentity:
    def test_module_pragma_overrides_path(self):
        src = ("# repro: module repro.nn.sample\n"
               "import time\n"
               "def f():\n"
               "    return time.time()\n")
        findings = lint_source(src, path="scratch/anything.py")
        assert [f.rule for f in findings] == ["D003"]

    def test_path_derived_module_is_not_library(self):
        src = ("import time\n"
               "def f():\n"
               "    return time.time()\n")
        assert lint_source(src, path="scratch/anything.py") == []

    def test_module_name_for(self):
        assert module_name_for(Path("src/repro/nn/gru.py")) == "repro.nn.gru"
        assert module_name_for(Path("src/repro/nn/__init__.py")) == "repro.nn"
        assert (module_name_for(Path("tests/analysis/test_engine.py"))
                == "tests.analysis.test_engine")
        assert module_name_for(Path("scratch/tool.py")) == "tool"

    def test_wallclock_allowlist(self):
        src = ("import time\n"
               "def stamp():\n"
               "    return time.time()\n")
        assert lint_source(src, module="repro.obs.tracing") == []
        assert [f.rule for f in
                lint_source(src, module="repro.obs.metrics")] == ["D003"]


# ---------------------------------------------------------------------------
# Syntax errors and config.

class TestEngineEdges:
    def test_syntax_error_yields_e000(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == ["E000"]
        assert "syntax error" in findings[0].message

    def test_dtype_zone_longest_prefix(self):
        config = LintConfig()
        assert config.dtype_zone("repro.embedding.skipgram") == "float32"
        assert config.dtype_zone("repro.embedding.skipgram.sub") == "float32"
        assert config.dtype_zone("repro.nn.gru") == "float64"
        assert config.dtype_zone("repro.embedding") is None
        # Dotted boundary: a sibling name is not inside the zone.
        assert config.dtype_zone("repro.nnx") is None

    def test_finding_format(self):
        findings = lint_source("import numpy as np\n"
                               "x = np.random.rand(3)\n", path="m.py",
                               module="tests.m")
        assert findings[0].format() == (
            "m.py:2:5: D001 " + findings[0].message)
        assert findings[0].to_dict()["rule"] == "D001"


# ---------------------------------------------------------------------------
# Path walking and excludes.

class TestLintPaths:
    def test_fixture_dir_excluded_from_walk(self):
        findings = lint_paths([FIXTURES.parent])
        assert [f for f in findings if "fixtures" in f.path] == []

    def test_explicit_fixture_file_is_linted(self):
        findings = lint_paths([FIXTURES / "h002_bad.py"])
        assert [f.rule for f in findings] == ["H002"]

    def test_walking_the_excluded_dir_itself_lints_it(self):
        findings = lint_paths([FIXTURES])
        assert any(f.rule == "H002" for f in findings)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([FIXTURES / "does_not_exist.py"])


# ---------------------------------------------------------------------------
# Autofix.

class TestApplyFixes:
    def test_h002_autofix(self, tmp_path):
        target = tmp_path / "h002_bad.py"
        shutil.copy(FIXTURES / "h002_bad.py", target)
        findings = lint_file(target)
        assert [f.rule for f in findings] == ["H002"]
        fixed = apply_fixes(findings)
        assert [f.rule for f in fixed] == ["H002"]
        assert "except Exception:" in target.read_text()
        assert lint_file(target) == []

    def test_non_fixable_findings_untouched(self, tmp_path):
        target = tmp_path / "h003_bad.py"
        shutil.copy(FIXTURES / "h003_bad.py", target)
        before = target.read_text()
        assert apply_fixes(lint_file(target)) == []
        assert target.read_text() == before


# ---------------------------------------------------------------------------
# CLI.

class TestCliLint:
    def test_clean_paths_exit_zero(self, capsys):
        assert cli_main(["lint", str(FIXTURES / "d001_good.py")]) == 0

    def test_violation_fixture_exits_one(self, capsys):
        assert cli_main(["lint", str(FIXTURES / "h002_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "H002" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert cli_main(
            ["lint", "--rules", "Z999", str(FIXTURES)]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert cli_main(["lint", "no/such/dir"]) == 2

    def test_json_output(self, capsys):
        import json
        assert cli_main(["lint", "--format", "json",
                         str(FIXTURES / "h002_bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "H002"

    def test_rule_filter(self, capsys):
        # Only ask for H003: the H002 fixture then lints clean.
        assert cli_main(["lint", "--rules", "H003",
                         str(FIXTURES / "h002_bad.py")]) == 0

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D001", "D002", "D003", "H002", "H003", "N001"):
            assert rule_id in out

    def test_fix_flag_rewrites(self, tmp_path, capsys):
        target = tmp_path / "h002_bad.py"
        shutil.copy(FIXTURES / "h002_bad.py", target)
        assert cli_main(["lint", "--fix", str(target)]) == 0
        assert "except Exception:" in target.read_text()

    def test_fix_is_idempotent(self, tmp_path, capsys):
        # The second --fix run is a byte-identical no-op.
        target = tmp_path / "h002_bad.py"
        shutil.copy(FIXTURES / "h002_bad.py", target)
        assert cli_main(["lint", "--fix", str(target)]) == 0
        after_first = target.read_bytes()
        assert cli_main(["lint", "--fix", str(target)]) == 0
        assert target.read_bytes() == after_first


# ---------------------------------------------------------------------------
# CLI: whole-program flags.

class TestCliProjectFlags:
    def test_graph_json_dump(self, capsys):
        import json
        assert cli_main(["lint", "--graph", "json",
                         str(FIXTURES / "d001_good.py")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analysis.graph/v1"
        assert doc["cycles"] == []

    def test_graph_dot_dump(self, capsys):
        assert cli_main(["lint", "--graph", "dot",
                         str(FIXTURES / "d001_good.py")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph repro_layers {")
        assert out.rstrip().endswith("}")

    def test_graph_exit_zero_even_with_findings(self, capsys):
        # --graph is a dump mode, not a gate.
        assert cli_main(["lint", "--graph", "json",
                         str(FIXTURES / "h002_bad.py")]) == 0

    def test_cache_flag_creates_and_reuses_cache(self, tmp_path, capsys):
        import json
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        cache = tmp_path / ".reprolint-cache.json"
        assert cli_main(["lint", "--cache", str(cache),
                         str(target)]) == 0
        payload = json.loads(cache.read_text())
        assert payload["schema"] == "repro.analysis.cache/v1"
        assert cli_main(["lint", "--cache", str(cache),
                         str(target)]) == 0

    def test_check_layers_passes_on_this_repo(self, capsys):
        # The declared DAG matches the actual src/repro package list.
        assert cli_main(["lint", "--check-layers",
                         str(FIXTURES / "d001_good.py")]) == 0

    def test_list_rules_includes_new_families(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("A001", "A002", "A003", "F001", "F002",
                        "F003", "R001", "R002"):
            assert rule_id in out
