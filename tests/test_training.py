"""Toy training: multitask loss wiring, SGD behavior, divergence
detection, metrics files and the gradient-check battery."""

import numpy as np
import pytest

from faceveil.errors import ConfigError, TrainingDiverged
from faceveil.synth import DetSample
from faceveil.train import (
    TrainerConfig,
    multitask_loss,
    network_grad_check,
    run_grad_checks,
    train_toy,
    write_metrics,
)

QUICK_DET = dict(task="detector", n_train=48, epochs=1, batch_size=16)
QUICK_EMB = dict(task="embedder", n_train=48, epochs=1, batch_size=16, chip_size=32)


class TestTrainerConfig:
    def test_defaults(self):
        cfg = TrainerConfig()
        assert cfg.task == "detector"
        assert cfg.seed == 42
        assert cfg.epochs == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task": "segmenter"},
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"n_train": 0},
            {"margin": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainerConfig(**kwargs)


class TestMultitaskLoss:
    def _heads(self, p_face, box, lmk=None):
        prob = np.array([1.0 - p_face, p_face]).reshape(1, 2, 1, 1)
        heads = {"prob": prob, "box": np.asarray(box, dtype=float).reshape(1, 4, 1, 1)}
        if lmk is not None:
            heads["landmarks"] = np.asarray(lmk, dtype=float).reshape(1, 10)
        return heads

    def test_background_is_classification_only(self):
        cfg = TrainerConfig()
        sample = DetSample(np.zeros((3, 12, 12), np.float32), 0, np.zeros(4), None)
        total, grads, parts = multitask_loss(self._heads(0.5, [9, 9, 9, 9]), [sample], cfg)
        assert set(parts) == {"det"}
        assert total == pytest.approx(np.log(2.0))
        assert set(grads) == {"prob"}

    def test_face_adds_weighted_box_term(self):
        cfg = TrainerConfig(det_weight=1.0, box_weight=0.5)
        sample = DetSample(np.zeros((3, 12, 12), np.float32), 1, np.zeros(4), None)
        total, grads, parts = multitask_loss(self._heads(0.5, [0.1, 0, 0, 0]), [sample], cfg)
        assert parts["det"] == pytest.approx(np.log(2.0))
        assert parts["box"] == pytest.approx(0.01)
        assert total == pytest.approx(np.log(2.0) + 0.5 * 0.01)
        assert "box" in grads

    def test_landmark_term_only_when_supervised(self):
        cfg = TrainerConfig(lmk_weight=2.0)
        lmk_target = np.full(10, 0.5)
        sample = DetSample(np.zeros((3, 48, 48), np.float32), 1, np.zeros(4), lmk_target)
        heads = self._heads(0.5, np.zeros(4), lmk=np.full(10, 0.6))
        total, grads, parts = multitask_loss(heads, [sample], cfg)
        assert parts["lmk"] == pytest.approx(10 * 0.01)
        assert "landmarks" in grads
        # same heads, no landmark target: term disappears
        bare = DetSample(np.zeros((3, 48, 48), np.float32), 1, np.zeros(4), None)
        _, _, parts2 = multitask_loss(heads, [bare], cfg)
        assert "lmk" not in parts2

    def test_zero_weights_zero_total(self):
        cfg = TrainerConfig(det_weight=0.0, box_weight=0.0, lmk_weight=0.0)
        sample = DetSample(np.zeros((3, 12, 12), np.float32), 1, np.ones(4), None)
        total, _, _ = multitask_loss(self._heads(0.3, [1, 1, 1, 1]), [sample], cfg)
        assert total == 0.0

    def test_mixed_batch_sums_per_sample_losses(self):
        # face with landmarks, background, face without landmarks: the batch's
        # total, parts and head gradients are the per-sample ones stacked
        cfg = TrainerConfig(det_weight=1.0, box_weight=0.5, lmk_weight=2.0)
        rng = np.random.default_rng(20)
        img = np.zeros((3, 48, 48), np.float32)
        batch = [
            DetSample(img, 1, rng.normal(size=4), rng.uniform(size=10)),
            DetSample(img, 0, np.zeros(4), None),
            DetSample(img, 1, rng.normal(size=4), None),
        ]
        p_face = rng.uniform(0.1, 0.9, size=3)
        heads = {
            "prob": np.stack([1.0 - p_face, p_face], axis=1),
            "box": rng.normal(size=(3, 4)),
            "landmarks": rng.uniform(size=(3, 10)),
        }
        total, grads, parts = multitask_loss(heads, batch, cfg)
        one = [multitask_loss({h: y[i : i + 1] for h, y in heads.items()}, [s], cfg)
               for i, s in enumerate(batch)]
        assert total == pytest.approx(sum(t for t, _, _ in one), rel=1e-12)
        assert parts["det"] == pytest.approx(sum(p["det"] for _, _, p in one), rel=1e-12)
        assert parts["box"] == pytest.approx(one[0][2]["box"] + one[2][2]["box"], rel=1e-12)
        assert parts["lmk"] == pytest.approx(one[0][2]["lmk"], rel=1e-12)
        assert set(grads) == {"prob", "box", "landmarks"}
        for head, g in grads.items():
            assert g.shape == heads[head].shape
            for i, (_, gi, _) in enumerate(one):
                want = gi.get(head, np.zeros((1,) + g.shape[1:]))
                np.testing.assert_allclose(g[i : i + 1], want, rtol=1e-12, atol=1e-15)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        cfg = TrainerConfig(task="detector", learning_rate=1e4, clip_norm=0.0,
                            n_train=32, epochs=4, batch_size=8)
        with pytest.raises(TrainingDiverged):
            train_toy(cfg)

    def test_clip_norm_prevents_blowup(self):
        cfg = TrainerConfig(task="detector", learning_rate=1e4, clip_norm=5.0,
                            n_train=32, epochs=1, batch_size=8)
        result = train_toy(cfg)  # survives the same schedule
        assert all(np.isfinite(row[2]) for row in result.history)


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
        x = np.random.default_rng(51).uniform(-0.9, 0.9, size=(2, 3, 12, 12))

        def loss_on_heads(heads):
            p = heads["prob"].reshape(2, 2, -1)[:, 1, 0]
            from faceveil.losses import cross_entropy_loss

            loss, dp = cross_entropy_loss(p, np.array([1.0, 0.0]))
            g = np.zeros_like(heads["prob"])
            g.reshape(2, 2, -1)[:, 1, 0] = dp
            return loss, {"prob": g}

        err = network_grad_check(net, weights, x, loss_on_heads, coords_per_tensor=2, seed=52)
        assert err < 1e-2  # finite differences across pool/prelu kinks stay coarse
