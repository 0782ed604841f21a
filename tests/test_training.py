"""Toy training: multitask loss wiring, SGD behavior, divergence
detection, metrics files and the gradient-check battery."""

import numpy as np
import pytest

from faceveil import train
from faceveil.errors import ConfigError, TrainingDiverged
from faceveil.image import to_planar
from faceveil.models import detector_nets
from faceveil.nn import WeightStore
from faceveil.synth import box_iou, make_det_batch, make_det_sample, make_scene, scene_plan
from faceveil.train import (
    BOX_WEIGHT,
    TrainerConfig,
    multitask_loss,
    network_grad_check,
    run_grad_checks,
    train_toy,
    write_metrics,
)

QUICK_DET = dict(task="detector", n_train=48, epochs=1)
QUICK_EMB = dict(task="embedder", n_train=48, epochs=1)


class TestTrainerConfig:
    def test_defaults(self):
        cfg = TrainerConfig()
        assert cfg.task == "detector"
        assert cfg.seed == 42
        assert cfg.epochs == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"task": "segmenter"}, id="kwargs0"),
            pytest.param({"epochs": 0}, id="kwargs2"),
            pytest.param({"n_train": 0}, id="kwargs4"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainerConfig(**kwargs)


class TestMakeDetBatch:
    def test_arrays(self):
        images, labels, boxes, lmks = make_det_batch(np.random.default_rng(3), 12, 40)
        assert images.shape == (40, 3, 12, 12) and images.dtype == np.float32
        assert labels.shape == (40,)
        assert boxes.shape == (40, 4) and boxes.dtype == np.float32
        assert lmks.shape == (40, 10) and lmks.dtype == np.float32
        # patch i is a face in the first half, rounded up, of its block of
        # 100, so a batch of 40 splits evenly
        assert np.count_nonzero(labels == 1) == 20

    def test_background_rows_have_zero_targets(self):
        _, labels, boxes, lmks = make_det_batch(np.random.default_rng(4), 12, 130)
        background = labels == 0
        assert np.count_nonzero(~background) == 50 + 15  # a full block, then half of 30
        assert not boxes[background].any() and not lmks[background].any()
        assert np.abs(lmks[~background]).sum(axis=1).min() > 0

    def test_rows_are_the_samples_permuted(self):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        batch = make_det_batch(rng, 12, 7)
        samples = [make_det_sample(twin, 12, i < 4) for i in range(7)]
        order = twin.permutation(7)
        for column, got in zip(zip(*samples), batch):
            np.testing.assert_array_equal(got, np.stack(column)[order])
        assert rng.random() == twin.random()  # the generators stay in step


class TestMineNegatives:
    @pytest.fixture(scope="class")
    def pnet(self, detector_training):
        weights = detector_training["result"].weights
        return WeightStore({k: weights[k] for k in weights if k.startswith("pnet.")})

    def test_negatives_miss_every_face(self, pnet):
        rng = np.random.default_rng(8)
        found = 0
        for index in range(8):  # street scenes with 0-3 faces and two close-ups
            layout, n_faces = scene_plan(index)
            frame, truth = make_scene(rng, layout, n_faces)
            faces = [box for box, *_ in truth]
            boxes = train.scene_negatives(pnet, to_planar(frame), faces, layout.min_face, rng)
            assert len(boxes) <= train.MINE_PER_SCENE
            found += len(boxes)
            for box in boxes.tolist():
                assert all(box_iou(box, face) < train.NEG_IOU for face in faces)
        assert found > 0

    def test_crops_per_stage(self, pnet):
        mined = train.mine_negatives(pnet, np.random.default_rng(9), 50)
        again = train.mine_negatives(pnet, np.random.default_rng(9), 50)
        assert set(mined) == {"rnet", "onet"}
        for stage, crops in mined.items():
            s = detector_nets()[stage].input_shape[1]
            assert crops.shape == (3, s, s, 50) and crops.dtype == np.float32
            assert crops.min() >= 0.0 and crops.max() <= 255.0
            np.testing.assert_array_equal(crops, again[stage])

    def test_silent_pnet_stops_after_one_plan_cycle(self, pnet, monkeypatch):
        # a whole scene_plan cycle without a negative ends the search early,
        # rather than drawing the rest of the MINE_SCENES budget
        silent = WeightStore({k: np.zeros_like(v) for k, v in pnet.items()})
        drawn = []

        def counting_make_scene(*args, **kwargs):
            drawn.append(args[1])
            return make_scene(*args, **kwargs)

        monkeypatch.setattr(train, "make_scene", counting_make_scene)
        mined = train.mine_negatives(silent, np.random.default_rng(10), 8)
        assert mined["rnet"].shape[-1] == 0
        assert len(drawn) == train.PLAN_CYCLE == 4 < train.MINE_SCENES

    def test_silent_pnet_leaves_random_patches(self, pnet):
        # a P-Net that proposes nothing mines nothing, so the next stage
        # trains on its random patches alone
        silent = WeightStore({k: np.zeros_like(v) for k, v in pnet.items()})
        mined = train.mine_negatives(silent, np.random.default_rng(10), 8)
        assert {stage: crops.shape[-1] for stage, crops in mined.items()} == {"rnet": 0, "onet": 0}
        cfg = TrainerConfig(task="detector", n_train=16, epochs=1)
        net = detector_nets()["rnet"]
        plain = train._train_stage("rnet", net, cfg, np.random.default_rng(11), [])
        mined_none = train._train_stage(
            "rnet", net, cfg, np.random.default_rng(11), [], mined["rnet"]
        )
        for name in plain:
            np.testing.assert_array_equal(plain[name], mined_none[name])


class TestMultitaskLoss:
    def _heads(self, p_face, box, lmk=None):
        # one patch: P-Net's (C, 1, 1, N) maps, or (F, N) vectors
        prob = np.array([1.0 - p_face, p_face]).reshape(2, 1, 1, 1)
        heads = {"prob": prob, "box": np.asarray(box, dtype=float).reshape(4, 1, 1, 1)}
        if lmk is not None:
            heads["landmarks"] = np.asarray(lmk, dtype=float).reshape(10, 1)
        return heads

    def test_background_is_classification_only(self):
        heads = self._heads(0.5, [9, 9, 9, 9], lmk=np.full(10, 9.0))
        total, grads, parts = multitask_loss(heads, [0], np.zeros((1, 4)), np.zeros((1, 10)))
        assert set(parts) == {"det"}
        assert total == pytest.approx(np.log(2.0))
        assert set(grads) == {"prob"}

    def test_face_adds_weighted_box_term(self):
        heads = self._heads(0.5, [0.1, 0, 0, 0])
        total, grads, parts = multitask_loss(heads, [1], np.zeros((1, 4)), np.zeros((1, 10)))
        assert parts["det"] == pytest.approx(np.log(2.0))
        assert parts["box"] == pytest.approx(0.01)
        assert total == pytest.approx(np.log(2.0) + BOX_WEIGHT * 0.01)
        assert "box" in grads

    def test_landmark_term_only_when_supervised(self):
        lmk_targets = np.full((1, 10), 0.5)
        heads = self._heads(0.5, np.zeros(4), lmk=np.full(10, 0.6))
        total, grads, parts = multitask_loss(heads, [1], np.zeros((1, 4)), lmk_targets)
        assert parts["lmk"] == pytest.approx(10 * 0.01)
        assert "landmarks" in grads
        # same face, a net without a landmarks head: the term disappears
        del heads["landmarks"]
        _, grads2, parts2 = multitask_loss(heads, [1], np.zeros((1, 4)), lmk_targets)
        assert "lmk" not in parts2 and "landmarks" not in grads2

    def test_mixed_batch_sums_per_sample_losses(self):
        # face, background, face: the batch's total, parts and head
        # gradients are the per-sample ones stacked
        rng = np.random.default_rng(20)
        labels = np.array([1, 0, 1])
        boxes = rng.normal(size=(3, 4)) * labels[:, None]
        lmks = rng.uniform(size=(3, 10)) * labels[:, None]
        p_face = rng.uniform(0.1, 0.9, size=3)
        heads = {  # (F, N), batch last
            "prob": np.stack([1.0 - p_face, p_face]),
            "box": rng.normal(size=(3, 4)).T,
            "landmarks": rng.uniform(size=(3, 10)).T,
        }
        total, grads, parts = multitask_loss(heads, labels, boxes, lmks)
        one = [multitask_loss({h: y[:, i : i + 1] for h, y in heads.items()},
                              labels[i : i + 1], boxes[i : i + 1], lmks[i : i + 1])
               for i in range(3)]
        assert total == pytest.approx(sum(t for t, _, _ in one), rel=1e-12)
        for part in ("det", "box", "lmk"):
            want = sum(p.get(part, 0.0) for _, _, p in one)
            assert parts[part] == pytest.approx(want, rel=1e-12)
        assert set(grads) == {"prob", "box", "landmarks"}
        for head, g in grads.items():
            assert g.shape == heads[head].shape
            for i, (_, gi, _) in enumerate(one):
                want = gi.get(head, np.zeros(g.shape[:-1] + (1,)))
                np.testing.assert_allclose(g[:, i : i + 1], want, rtol=1e-12, atol=1e-15)


class TestTrainToy:
    def test_detector_quick_run_shapes(self):
        result = train_toy(TrainerConfig(**QUICK_DET))
        stages = {row[0] for row in result.history}
        assert stages == {"pnet", "rnet", "onet"}
        for name in ("pnet.conv1.w", "rnet.conv1.w", "onet.conv1.w"):
            assert name in result.weights

    def test_embedder_quick_run(self):
        result = train_toy(TrainerConfig(**QUICK_EMB))
        assert [row[0] for row in result.history] == ["embed"]
        assert "embed.fc1.w" in result.weights

    def test_same_seed_identical_weight_files(self, tmp_path):
        a, b = tmp_path / "a.mprw", tmp_path / "b.mprw"
        train_toy(TrainerConfig(**QUICK_DET), weights_path=a)
        train_toy(TrainerConfig(**QUICK_DET), weights_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.mprw", tmp_path / "b.mprw"
        train_toy(TrainerConfig(**QUICK_EMB), weights_path=a)
        train_toy(TrainerConfig(seed=7, **QUICK_EMB), weights_path=b)
        assert a.read_bytes() != b.read_bytes()

    def test_loss_trends_down(self, detector_training):
        # EMA over epochs: last smoothed loss below the first raw loss
        for stage in ("pnet", "rnet", "onet"):
            losses = detector_training["result"].stage_losses(stage)
            ema = losses[0]
            for v in losses[1:]:
                ema = 0.5 * ema + 0.5 * v
            assert ema < losses[0]

    def test_detector_fits_toy_task(self, detector_training):
        final_acc = {row[0]: row[3] for row in detector_training["result"].history}
        assert final_acc["pnet"] >= 0.9

    def test_embedder_satisfaction_in_history(self, embedder_training):
        sats = [row[3] for row in embedder_training["result"].history]
        assert sats[-1] >= 0.9

    def test_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(train, "LEARNING_RATE", 1e4)
        monkeypatch.setattr(train, "BATCH_SIZE", 8)
        cfg = TrainerConfig(task="detector", n_train=32, epochs=4)
        with pytest.raises(TrainingDiverged):
            train_toy(cfg)

    def test_overflowing_step_diverges_without_warning(self, monkeypatch):
        # the loss is finite, the one step overflows float32: TrainingDiverged,
        # with no numpy RuntimeWarning (an error under this suite's filter)
        monkeypatch.setattr(train, "LEARNING_RATE", 1e300)
        cfg = TrainerConfig(task="embedder", n_train=8, epochs=1)
        with pytest.raises(TrainingDiverged, match="embedder: trained tensor"):
            train_toy(cfg)

    def test_embedder_without_triplets_fails_closed(self, monkeypatch, tmp_path):
        # batches of one hold no triplet, so every batch is skipped and the
        # epoch takes no SGD step: no untrained weight file may come out
        monkeypatch.setattr(train, "BATCH_SIZE", 1)
        cfg = TrainerConfig(task="embedder", n_train=6, epochs=1)
        out = tmp_path / "w.mprw"
        with pytest.raises(ConfigError, match="^embed: epoch 1 scored no minibatch"):
            train_toy(cfg, weights_path=out)
        assert not out.exists()

    def test_clip_norm_prevents_blowup(self, monkeypatch):
        # lr 100: test_unclipped_run_diverges_without_warning is the same
        # schedule without the clip
        monkeypatch.setattr(train, "LEARNING_RATE", 1e2)
        monkeypatch.setattr(train, "BATCH_SIZE", 8)
        cfg = TrainerConfig(task="detector", n_train=32, epochs=1)
        result = train_toy(cfg)  # survives one epoch of the schedule
        assert all(np.isfinite(row[2]) for row in result.history)

    def test_unclipped_run_diverges_without_warning(self, monkeypatch):
        monkeypatch.setattr(train, "LEARNING_RATE", 1e2)
        monkeypatch.setattr(train, "BATCH_SIZE", 8)
        monkeypatch.setattr(train, "CLIP_NORM", np.inf)
        with pytest.raises(TrainingDiverged):
            train_toy(TrainerConfig(task="detector", n_train=32, epochs=1))

    def test_overflowing_forward_diverges_without_warning(self, monkeypatch):
        # at lr 1e4 a clipped step still moves the weights by up to 5e4, and
        # within one epoch a forward overflows float32: TrainingDiverged,
        # with no numpy RuntimeWarning
        monkeypatch.setattr(train, "LEARNING_RATE", 1e4)
        monkeypatch.setattr(train, "BATCH_SIZE", 8)
        with pytest.raises(TrainingDiverged, match="loss became inf"):
            train_toy(TrainerConfig(task="detector", n_train=32, epochs=1))

    def test_runaway_pnet_boxes_diverge_without_warning(self, monkeypatch):
        # at lr 300 the P-Net stays finite but regresses boxes ~1e19 px
        # out, past any pixel; mining its scenes must fail closed
        monkeypatch.setattr(train, "LEARNING_RATE", 3e2)
        monkeypatch.setattr(train, "BATCH_SIZE", 8)
        with pytest.raises(TrainingDiverged, match="^pnet: refined box edge past"):
            train_toy(TrainerConfig(task="detector", n_train=32, epochs=1))


class TestMetricsFile:
    def test_format(self, tmp_path):
        history = [("pnet", 1, 0.5, 0.7), ("pnet", 2, 0.4, 0.8), ("rnet", 1, 0.6, 0.6)]
        path = tmp_path / "metrics.csv"
        write_metrics(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# stage: pnet"
        assert lines[1] == "epoch,loss,accuracy"
        assert lines[2] == "1,0.5,0.7"
        assert lines[4] == "# stage: rnet"

    def test_written_by_train_toy(self, tmp_path):
        path = tmp_path / "m.csv"
        train_toy(TrainerConfig(**QUICK_EMB), metrics_path=path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith(("#", "epoch"))]
        assert len(rows) == 1  # one epoch
        epoch, loss, acc = rows[0].split(",")
        assert int(epoch) == 1
        assert float(loss) >= 0.0
        assert 0.0 <= float(acc) <= 1.0


class TestGradChecks:
    def test_battery_within_bounds(self):
        report = run_grad_checks(seed=3)
        expected = {
            "loss_det", "loss_box", "loss_landmark", "loss_triplet",
            "layer_conv2d", "layer_fully_connected", "layer_prelu",
            "layer_maxpool", "layer_softmax", "layer_l2_normalize",
        }
        assert set(report) == expected
        for name, err in report.items():
            bound = 1e-6 if name in ("loss_box", "loss_landmark") else 1e-3
            assert err < bound, f"{name}: {err}"

    def test_network_level_check(self):
        from faceveil.models import proposal_net

        net = proposal_net()
        weights = net.init_weights(np.random.default_rng(50))
        x = np.random.default_rng(51).uniform(-0.9, 0.9, size=(3, 12, 12, 2))

        def loss_on_heads(heads):
            p = heads["prob"].reshape(2, -1, 2)[1, 0]
            from faceveil.losses import cross_entropy_loss

            loss, dp = cross_entropy_loss(p, np.array([1.0, 0.0]))
            g = np.zeros_like(heads["prob"])
            g.reshape(2, -1, 2)[1, 0] = dp
            return loss, {"prob": g}

        err = network_grad_check(net, weights, x, loss_on_heads, coords_per_tensor=2, seed=52)
        assert err < 1e-2  # finite differences across pool/prelu kinks stay coarse
