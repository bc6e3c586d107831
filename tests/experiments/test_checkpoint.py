"""Checkpoint/resume: a resumed run must be bitwise-identical to an
uninterrupted one — weights, history, optimizer moments and LR schedule."""

import os

import numpy as np
import pytest

from repro.atomic import TMP_PREFIX
from repro.core import DeepODTrainer, build_deepod
from repro.experiments import (
    CheckpointError, latest_checkpoint, list_checkpoints, load_checkpoint,
    read_checkpoint, save_checkpoint,
)


def fresh_trainer(dataset, config, eval_every=3):
    model = build_deepod(dataset, config)
    return DeepODTrainer(model, dataset, eval_every=eval_every)


def assert_states_equal(state_a, state_b):
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key],
                                      err_msg=f"mismatch at {key}")


class TestBitwiseResume:
    def test_kill_and_resume_reproduces_uninterrupted_run(
            self, tiny_dataset, tiny_config, tmp_path):
        """Kill training at an arbitrary (mid-epoch) step, resume from the
        latest checkpoint, and finish: everything must match a run that
        was never interrupted."""
        epochs = 3
        reference = fresh_trainer(tiny_dataset, tiny_config)
        ref_history = reference.fit(epochs=epochs)

        ckdir = str(tmp_path / "ck")
        victim = fresh_trainer(tiny_dataset, tiny_config)
        # 3 steps per epoch at this size: step 5 is mid-epoch-2, and the
        # latest snapshot (step 4) is mid-epoch as well.
        victim.fit(epochs=epochs, max_steps=5, checkpoint_every=2,
                   checkpoint_dir=ckdir, checkpoint_fn=save_checkpoint)
        assert latest_checkpoint(ckdir).endswith("step-0000000004")

        resumed = fresh_trainer(tiny_dataset, tiny_config)
        step = load_checkpoint(resumed, ckdir)
        assert step == 4
        res_history = resumed.fit(epochs=epochs)

        assert_states_equal(reference.model.state_dict(),
                            resumed.model.state_dict())
        assert ref_history.steps == res_history.steps
        assert ref_history.val_mae == res_history.val_mae
        assert ref_history.train_loss == res_history.train_loss
        assert reference.optimizer.lr == resumed.optimizer.lr
        assert reference.optimizer._t == resumed.optimizer._t

    def test_resume_restores_optimizer_moments_and_rng(
            self, tiny_dataset, tiny_config, tmp_path):
        trainer = fresh_trainer(tiny_dataset, tiny_config)
        trainer.fit(epochs=3, max_steps=4, checkpoint_every=4,
                    checkpoint_dir=str(tmp_path),
                    checkpoint_fn=save_checkpoint)
        restored = fresh_trainer(tiny_dataset, tiny_config)
        load_checkpoint(restored, str(tmp_path))
        for m_a, m_b in zip(trainer.optimizer._m, restored.optimizer._m):
            np.testing.assert_array_equal(m_a, m_b)
        for v_a, v_b in zip(trainer.optimizer._v, restored.optimizer._v):
            np.testing.assert_array_equal(v_a, v_b)
        assert trainer._rng.bit_generator.state == \
            restored._rng.bit_generator.state
        assert trainer._cursor == restored._cursor
        np.testing.assert_array_equal(trainer._order, restored._order)

    def test_completed_run_checkpoint_roundtrips_history(
            self, tiny_dataset, tiny_config, tmp_path):
        trainer = fresh_trainer(tiny_dataset, tiny_config)
        history = trainer.fit(epochs=2)
        path = save_checkpoint(trainer, str(tmp_path))
        restored = fresh_trainer(tiny_dataset, tiny_config)
        load_checkpoint(restored, path)
        assert restored.history.steps == history.steps
        assert restored.history.val_mae == history.val_mae
        assert restored.history.train_loss == history.train_loss
        assert restored._epoch == 2


class TestPartialEpochLRSchedule:
    def test_max_steps_mid_epoch_does_not_decay(self, tiny_dataset,
                                                tiny_config):
        """The satellite fix: truncating mid-epoch must not advance the
        step decay, or resumed and fresh runs follow different LR
        schedules (lr_decay_epochs=1 here, so any spurious epoch_end
        would divide lr by 5)."""
        trainer = fresh_trainer(tiny_dataset, tiny_config, eval_every=0)
        trainer.fit(epochs=3, max_steps=2, track_validation=False)
        assert trainer.optimizer.lr == tiny_config.learning_rate
        assert trainer._epoch == 0

    def test_max_steps_on_epoch_boundary_decays(self, tiny_dataset,
                                                tiny_config):
        trainer = fresh_trainer(tiny_dataset, tiny_config, eval_every=0)
        # 3 steps per epoch: max_steps=3 lands exactly on the boundary.
        trainer.fit(epochs=3, max_steps=3, track_validation=False)
        assert trainer._epoch == 1
        assert trainer.optimizer.lr == pytest.approx(
            tiny_config.learning_rate / tiny_config.lr_decay_factor)

    def test_resumed_lr_matches_uninterrupted(self, tiny_dataset,
                                              tiny_config, tmp_path):
        reference = fresh_trainer(tiny_dataset, tiny_config, eval_every=0)
        reference.fit(epochs=2, track_validation=False)

        victim = fresh_trainer(tiny_dataset, tiny_config, eval_every=0)
        victim.fit(epochs=2, max_steps=4, track_validation=False,
                   checkpoint_every=1, checkpoint_dir=str(tmp_path),
                   checkpoint_fn=save_checkpoint)
        resumed = fresh_trainer(tiny_dataset, tiny_config, eval_every=0)
        load_checkpoint(resumed, str(tmp_path))
        resumed.fit(epochs=2, track_validation=False)
        assert resumed.optimizer.lr == reference.optimizer.lr


class TestCheckpointHousekeeping:
    def test_keep_prunes_old_snapshots(self, tiny_dataset, tiny_config,
                                       tmp_path):
        trainer = fresh_trainer(tiny_dataset, tiny_config, eval_every=0)
        trainer.fit(epochs=2, track_validation=False,
                    checkpoint_every=1, checkpoint_dir=str(tmp_path),
                    keep_checkpoints=2, checkpoint_fn=save_checkpoint)
        snapshots = list_checkpoints(str(tmp_path))
        assert len(snapshots) == 2
        assert snapshots[-1].endswith(f"step-{trainer._step:010d}")
        # No temp residue from the atomic-rename protocol.
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith(TMP_PREFIX)]

    def test_checkpoint_every_requires_dir(self, tiny_dataset,
                                           tiny_config):
        trainer = fresh_trainer(tiny_dataset, tiny_config)
        with pytest.raises(ValueError):
            trainer.fit(epochs=1, checkpoint_every=2)

    def test_load_from_empty_dir_raises(self, tiny_dataset, tiny_config,
                                        tmp_path):
        trainer = fresh_trainer(tiny_dataset, tiny_config)
        with pytest.raises(CheckpointError):
            load_checkpoint(trainer, str(tmp_path))

    def test_load_into_mismatched_model_raises(self, tiny_dataset,
                                               tiny_config, tmp_path):
        trainer = fresh_trainer(tiny_dataset, tiny_config)
        trainer.fit(epochs=1, max_steps=1, track_validation=False)
        path = save_checkpoint(trainer, str(tmp_path))
        other = fresh_trainer(tiny_dataset,
                              tiny_config.with_overrides(d_h=8))
        with pytest.raises(CheckpointError):
            load_checkpoint(other, path)

    def test_read_checkpoint_reports_missing_meta(self, tmp_path):
        bad = tmp_path / "step-0000000001"
        bad.mkdir()
        with pytest.raises(CheckpointError):
            read_checkpoint(str(bad))
