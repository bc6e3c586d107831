"""Cluster-test fixtures: started clusters with guaranteed teardown.

The session-scoped trained model, dataset and artifact come from
``tests/serving/conftest.py``; everything here layers process
management on top.  ``cluster_factory`` hands out started
:class:`ServingCluster` instances and stops every one of them at test
exit, so a failing assertion can never leak worker processes into the
rest of the run.  ``stall_batches`` makes every worker sleep before it
answers a batch: a slow model, injected from the test side.
"""

import time

import pytest

from repro.serving import ClusterConfig, ServingCluster
from repro.serving.cluster.worker import _WorkerState


@pytest.fixture()
def stall_batches(monkeypatch):
    """``stall_batches(seconds)``: workers forked from now on sleep
    ``seconds`` before answering each batch."""
    def stall(seconds):
        answer = _WorkerState.answer

        def stalled(self, rows):
            time.sleep(seconds)
            return answer(self, rows)

        monkeypatch.setattr(_WorkerState, "answer", stalled)

    return stall


@pytest.fixture()
def cluster_factory(artifact_dir, serving_dataset):
    clusters = []

    def make(artifact=None, **config_kwargs):
        config = ClusterConfig(**config_kwargs)
        cluster = ServingCluster(artifact or artifact_dir,
                                 dataset=serving_dataset, config=config)
        clusters.append(cluster)
        return cluster.start()

    yield make
    for cluster in clusters:
        cluster.stop()


def sample_queries(dataset, n=8):
    return [(t.od.origin_xy, t.od.destination_xy, t.od.depart_time)
            for t in dataset.split.test[:n]]
