"""Promotion gate: held-out comparison, atomic deploys, refusals."""

import importlib
import os

import pytest

from repro.atomic import TMP_PREFIX
from repro.experiments import (
    RunRegistry, RunSpec, deployed_artifact_path, execute_run, heldout_mae,
    promote,
)
from repro.serving import load_artifact
from repro.serving.state import ServingDataset


@pytest.fixture(scope="module")
def two_runs(tiny_config, tiny_dataset, tmp_path_factory):
    """Two registered runs of different training lengths, plus their
    measured held-out MAEs (ordering decided empirically, not assumed)."""
    registry = RunRegistry(str(tmp_path_factory.mktemp("runs")))
    runs = {}
    for label, epochs in [("long", 3), ("short", 1)]:
        spec = RunSpec(city="mini-chengdu",
                       config=tiny_config.with_overrides(epochs=epochs),
                       trips=60, days=7, eval_every=0)
        runs[label] = execute_run(spec, registry=registry,
                                  dataset=tiny_dataset)
    ranked = sorted(runs.values(),
                    key=lambda r: r.metrics["test_mae"])
    return {"better": ranked[0], "worse": ranked[1],
            "dataset": tiny_dataset}


class TestPromotionFlow:
    def test_first_promotion_installs_atomically(self, two_runs,
                                                 tmp_path):
        deploy = str(tmp_path / "deploy")
        result = two_runs["better"]
        decision = promote(result.artifact_dir, deploy,
                           dataset=two_runs["dataset"])
        assert decision.promoted
        assert decision.incumbent_mae is None
        current = os.path.join(deploy, "current")
        assert os.path.islink(current)
        assert deployed_artifact_path(deploy) == \
            os.path.realpath(decision.deployed_path)
        # No temp residue from the atomic install.
        leftovers = [n for n in os.listdir(os.path.join(deploy,
                                                        "versions"))
                     if n.startswith(TMP_PREFIX)]
        assert not leftovers
        # The deployed copy serves.
        predictor = load_artifact(current, dataset=two_runs["dataset"])
        assert predictor.model is not None

    def test_worse_candidate_refused_with_reasons(self, two_runs,
                                                  tmp_path):
        """The acceptance criterion: a candidate with worse held-out MAE
        must not replace the deployed artifact."""
        deploy = str(tmp_path / "deploy")
        promote(two_runs["better"].artifact_dir, deploy,
                dataset=two_runs["dataset"])
        before = deployed_artifact_path(deploy)
        decision = promote(two_runs["worse"].artifact_dir, deploy,
                           dataset=two_runs["dataset"])
        assert not decision.promoted
        assert decision.incumbent_mae is not None
        assert decision.candidate_mae > decision.incumbent_mae
        assert any("beats candidate" in r for r in decision.reasons)
        assert deployed_artifact_path(deploy) == before

    def test_better_candidate_replaces_incumbent(self, two_runs,
                                                 tmp_path):
        deploy = str(tmp_path / "deploy")
        promote(two_runs["worse"].artifact_dir, deploy,
                dataset=two_runs["dataset"])
        decision = promote(two_runs["better"].artifact_dir, deploy,
                           dataset=two_runs["dataset"])
        assert decision.promoted
        assert decision.candidate_mae <= decision.incumbent_mae
        assert deployed_artifact_path(deploy) == \
            os.path.realpath(decision.deployed_path)
        # Both versions retained for rollback.
        versions = os.listdir(os.path.join(deploy, "versions"))
        assert len(versions) == 2

    def test_min_improvement_raises_the_bar(self, two_runs, tmp_path):
        """Re-promoting an identical artifact passes at 0 improvement
        but fails once any strict improvement is demanded."""
        deploy = str(tmp_path / "deploy")
        artifact = two_runs["better"].artifact_dir
        promote(artifact, deploy, dataset=two_runs["dataset"])
        same = promote(artifact, deploy, dataset=two_runs["dataset"])
        assert same.promoted
        stricter = promote(artifact, deploy, dataset=two_runs["dataset"],
                           min_improvement=0.05)
        assert not stricter.promoted


class TestPromotionEdgeCases:
    def test_invalid_candidate_refused(self, tmp_path):
        decision = promote(str(tmp_path / "missing"),
                           str(tmp_path / "deploy"))
        assert not decision.promoted
        assert any("candidate artifact invalid" in r
                   for r in decision.reasons)
        assert not os.path.exists(os.path.join(tmp_path, "deploy",
                                               "current"))

    def test_version_name_uses_run_provenance(self, two_runs, tmp_path):
        deploy = str(tmp_path / "deploy")
        result = two_runs["better"]
        decision = promote(result.artifact_dir, deploy,
                           dataset=two_runs["dataset"])
        assert decision.version == result.run_id

    def test_heldout_mae_is_finite_and_positive(self, two_runs):
        predictor = load_artifact(two_runs["better"].artifact_dir,
                                  dataset=two_runs["dataset"])
        value = heldout_mae(predictor, two_runs["dataset"])
        assert value > 0
        assert value == two_runs["better"].metrics["test_mae"]


class TestBundleMapsReleased:
    """``promote`` closes the bundle map of every predictor it loads,
    on every path, once the decision is made."""

    @pytest.fixture
    def tally(self, monkeypatch):
        module = importlib.import_module("repro.experiments.promote")
        loaded, closed = [], []
        load, close = module.load_artifact, ServingDataset.close

        def counting_load(*args, **kwargs):
            predictor = load(*args, **kwargs)
            loaded.append(predictor.dataset)
            return predictor

        def counting_close(state):
            closed.append(state)
            close(state)

        monkeypatch.setattr(module, "load_artifact", counting_load)
        monkeypatch.setattr(ServingDataset, "close", counting_close)
        return loaded, closed

    @staticmethod
    def _each_closed_once(loaded, closed, count):
        assert len(loaded) == count
        assert sorted(map(id, closed)) == sorted(map(id, loaded))

    def test_promoted_and_refused(self, two_runs, tmp_path, tally):
        deploy = str(tmp_path / "deploy")
        data = two_runs["dataset"]
        assert promote(two_runs["better"].artifact_dir, deploy,
                       dataset=data).promoted
        self._each_closed_once(*tally, 1)
        refused = promote(two_runs["worse"].artifact_dir, deploy,
                          dataset=data)
        assert not refused.promoted
        self._each_closed_once(*tally, 3)

    def test_incumbent_artifact_error(self, two_runs, tmp_path, tally):
        deploy = str(tmp_path / "deploy")
        data = two_runs["dataset"]
        installed = promote(two_runs["worse"].artifact_dir, deploy,
                            dataset=data).deployed_path
        with open(os.path.join(installed, "weights.npz"), "ab") as handle:
            handle.write(b"x")
        decision = promote(two_runs["better"].artifact_dir, deploy,
                           dataset=data)
        assert decision.promoted
        assert any("incumbent not comparable" in r
                   for r in decision.reasons)
        self._each_closed_once(*tally, 2)

    def test_candidate_artifact_error(self, tmp_path, tally):
        decision = promote(str(tmp_path / "missing"),
                           str(tmp_path / "deploy"))
        assert not decision.promoted
        self._each_closed_once(*tally, 0)
