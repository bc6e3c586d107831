"""Per-rule fixture self-tests for reprolint.

Every rule ships a violating fixture and a clean fixture under
``tests/analysis/fixtures/``; the bad one must produce exactly that
rule's finding and the good one must lint fully clean.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_ARCH_FILE_RULES, ALL_PROJECT_RULES, ALL_RULES, LintConfig,
    lint_file, lint_paths, rule_by_id,
)

FIXTURES = Path(__file__).parent / "fixtures"

# (rule id, violating fixture, clean fixture, expected finding count)
CASES = [
    ("D001", "d001_bad.py", "d001_good.py", 1),
    ("D002", "d002_bad.py", "d002_good.py", 1),
    ("D003", "d003_bad.py", "d003_good.py", 1),
    # The streaming package is an event-clock zone: monotonic reads and
    # sleeps are D003 findings there too.
    ("D003", "d003_stream_bad.py", "d003_stream_good.py", 3),
    ("H002", "h002_bad.py", "h002_good.py", 1),
    ("H003", "h003_bad.py", "h003_good.py", 3),
    ("N001", "n001_bad.py", "n001_good.py", 2),
    ("F001", "f001_bad.py", "f001_good.py", 1),
    # A lambda and a nested function each cross the executor boundary.
    ("F002", "f002_bad.py", "f002_good.py", 2),
    ("F003", "f003_bad.py", "f003_good.py", 1),
    # An unclosed file handle and an unclosed executor.
    ("R001", "r001_bad.py", "r001_good.py", 2),
    ("R002", "r002_bad.py", "r002_good.py", 1),
]

# The A-series needs multi-file context: each case is a fixture
# directory linted whole-program against this declared DAG.
ARCH_LAYERS = (
    ("appa", ("appb",)),
    ("appb", ()),
    ("appc", ("appd",)),
    ("appd", ("appc",)),
)

# (rule id, fixture directory, expected finding count)
ARCH_CASES = [
    ("A001", "a001_bad", 1),
    ("A002", "a002_bad", 1),
    ("A003", "a003_bad", 1),
]


def _arch_config() -> LintConfig:
    return LintConfig(layers=ARCH_LAYERS)


def test_every_rule_has_a_fixture_case():
    covered = {rule_id for rule_id, *_ in CASES}
    assert covered == {rule.id
                       for rule in ALL_RULES + ALL_ARCH_FILE_RULES}


def test_every_project_rule_has_a_fixture_case():
    covered = {rule_id for rule_id, *_ in ARCH_CASES}
    assert covered == {rule.id for rule in ALL_PROJECT_RULES}


@pytest.mark.parametrize("rule_id,bad,good,count", CASES,
                         ids=[c[0] for c in CASES])
def test_bad_fixture_triggers_rule(rule_id, bad, good, count):
    findings = lint_file(FIXTURES / bad)
    assert [f.rule for f in findings] == [rule_id] * count
    for finding in findings:
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule_id,bad,good,count", CASES,
                         ids=[c[0] for c in CASES])
def test_good_fixture_is_clean(rule_id, bad, good, count):
    assert lint_file(FIXTURES / good) == []


@pytest.mark.parametrize("rule_id,directory,count", ARCH_CASES,
                         ids=[c[0] for c in ARCH_CASES])
def test_arch_bad_fixture_triggers_rule(rule_id, directory, count):
    findings = lint_paths([FIXTURES / "arch" / directory],
                          config=_arch_config())
    assert [f.rule for f in findings] == [rule_id] * count
    for finding in findings:
        assert finding.line > 0
        assert finding.message


def test_arch_good_fixture_is_clean():
    assert lint_paths([FIXTURES / "arch" / "good"],
                      config=_arch_config()) == []


def test_n001_flags_float32_cast_in_float64_zone():
    findings = lint_file(FIXTURES / "n001_bad_nn.py")
    assert [f.rule for f in findings] == ["N001"]
    assert "float64" in findings[0].message


def test_rule_metadata():
    ids = [rule.id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    for rule in ALL_RULES:
        assert rule.title
        assert rule_by_id(rule.id) is rule
    assert rule_by_id("H002").autofixable


def test_rule_by_id_unknown():
    with pytest.raises(KeyError):
        rule_by_id("Z999")
