"""Smoke tests: the fast examples must run end-to-end.

Only the examples that finish in seconds are exercised here (the long
training ones are covered functionally by the core test suites).
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")


def run_example(name, argv=()):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    old_argv = sys.argv
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_map_matching_pipeline(self, capsys):
        run_example("map_matching_pipeline.py")
        out = capsys.readouterr().out
        assert "HMM matcher recovered" in out
        assert "Spatio-temporal path" in out

    def test_experiments_pipeline(self, capsys, tmp_path):
        run_example("experiments_pipeline.py", [str(tmp_path / "work")])
        out = capsys.readouterr().out
        assert "bitwise-identical to uninterrupted run: True" in out
        assert "promoted=True" in out
        assert "promoted=False" in out

    def test_serving_predictor(self, capsys):
        run_example("serving_predictor.py")
        assert "rush-hour vs night ratio:" in capsys.readouterr().out

    def test_serving_service(self, capsys):
        run_example("serving_service.py")
        out = capsys.readouterr().out
        assert "after injected failure: source=route degraded=True" in out

    def test_examples_exist_and_have_docstrings(self):
        expected = {
            "quickstart.py", "method_comparison.py",
            "map_matching_pipeline.py", "ablation_study.py",
            "temporal_analysis.py", "serving_predictor.py",
            "serving_service.py", "experiments_pipeline.py",
        }
        present = set(os.listdir(EXAMPLES_DIR))
        assert expected <= present
        for name in expected:
            with open(os.path.join(EXAMPLES_DIR, name)) as handle:
                source = handle.read()
            assert '"""' in source.split("\n", 2)[-1] or \
                source.lstrip().startswith(('#!', '"""'))
            assert "def main(" in source
