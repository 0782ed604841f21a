"""Acceptance gate: eleven go/no-go checks, one test per criterion.

Each test prints one [PASS]/[FAIL] line (visible with -s or in captured
output) and enforces its stated tolerance and runtime budget.  Criteria
that train networks reuse the session-scoped fixtures so the suite pays
for toy training exactly once.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import TOY_CHIP, chip_batch
from oracles import auc_pairwise, conv2d_direct, maxpool_direct, nms_brute, select_triplets_brute
from faceveil.denature import Blur, Pixelate, Scramble, denature_regions, descramble_regions
from faceveil.detect import DetectorConfig, detect_faces, nms
from faceveil.embed import FaceChip, align_crop, embed_chip
from faceveil.errors import InvariantError
from faceveil.image import normalize_pixels, to_planar
from faceveil.losses import select_triplets
from faceveil.models import detector_nets, embedding_net
from faceveil.nn import load_weights, save_weights
from faceveil.nn.ops import conv2d, maxpool2d
from faceveil.pipeline import EvalSummary, Pipeline, PipelineConfig, check_timing, report_line
from faceveil.recognize import classify, compute_roc, load_gallery, save_gallery
from faceveil.train import TrainerConfig, run_grad_checks

QUADRATIC = {"loss_box", "loss_landmark"}


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {title}")
        raise
    print(f"[PASS] criterion {num:02d}: {title}")


def test_01_kernel_oracles():
    with criterion(1, "conv2d and maxpool match direct oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        for _ in range(100):
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            h, w = int(rng.integers(k, 11)), int(rng.integers(k, 11))
            stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            x = rng.normal(size=(cin, h, w))
            wt = rng.normal(size=(cout, cin, k, k))
            b = rng.normal(size=cout)
            got = conv2d(x[:, None], wt, b, stride=stride, padding=pad)[:, 0]
            ref = conv2d_direct(x, wt, b, stride, pad)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-5
        for _ in range(100):
            c = int(rng.integers(1, 4))
            kernel = int(rng.integers(2, 4))
            stride = int(rng.integers(1, kernel + 1))  # stride > kernel would skip pixels
            h, w = int(rng.integers(kernel, 13)), int(rng.integers(kernel, 13))
            x = rng.normal(size=(c, h, w))
            np.testing.assert_array_equal(maxpool2d(x[:, None], kernel, stride)[:, 0],
                                          maxpool_direct(x, kernel, stride))
        assert time.perf_counter() - start < 30.0


def test_02_nms_equivalence():
    with criterion(2, "greedy NMS identical to brute force, both modes"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(1, 65))
            x1 = rng.integers(0, 40, size=n).astype(float)
            y1 = rng.integers(0, 40, size=n).astype(float)
            w = rng.integers(1, 21, size=n).astype(float)
            h = rng.integers(1, 21, size=n).astype(float)
            boxes = np.stack([x1, y1, x1 + w, y1 + h], axis=1)
            scores = rng.integers(0, 8, size=n) / 8.0  # coarse grid forces ties
            thr = float(rng.choice([0.3, 0.5, 0.7]))
            for mode in ("union", "min"):
                assert list(nms(boxes, scores, thr, mode)) == nms_brute(
                    boxes, scores, thr, mode
                ), f"set {trial}, mode {mode}"
        assert time.perf_counter() - start < 10.0


def test_03_gradient_suite():
    with criterion(3, "losses and layer backward passes match finite differences"):
        start = time.perf_counter()
        for seed in range(20):
            report = run_grad_checks(seed=seed)
            for name, err in report.items():
                bound = 1e-6 if name in QUADRATIC else 1e-3
                assert err < bound, f"{name} seed {seed}: {err:.3g} >= {bound}"
        assert time.perf_counter() - start < 60.0


def test_04_embedding_norm():
    with criterion(4, "embeddings unit-norm within 1e-6 over 1000 draws"):
        net = embedding_net(16)
        rng = np.random.default_rng(404)
        for i in range(1000):
            weights = net.init_weights(np.random.default_rng(i))
            raw = rng.uniform(0.0, 255.0, size=(3, 16, 16))
            chip = FaceChip(normalize_pixels(raw), (0, 0, 16, 16))
            emb = embed_chip(chip, weights)
            assert abs(float(np.linalg.norm(emb.astype(np.float64))) - 1.0) <= 1e-6


def test_05_pnet_dense_scan_consistency():
    with criterion(5, "dense P-Net scan equals per-window evaluation"):
        net = detector_nets()["pnet"]
        for seed in (5, 6):
            weights = net.init_weights(np.random.default_rng(seed))
            x = np.random.default_rng(seed + 50).uniform(-1, 1, size=(3, 24, 24)).astype(
                np.float32
            )
            dense = {h: y[0] for h, y in net.forward(weights, x[None]).items()}
            assert dense["prob"].shape == (2, 7, 7)
            assert dense["box"].shape == (4, 7, 7)
            for i in range(7):
                for j in range(7):
                    window = x[:, 2 * i : 2 * i + 12, 2 * j : 2 * j + 12]
                    one = {h: y[0] for h, y in net.forward(weights, window[None]).items()}
                    assert np.max(np.abs(one["prob"][:, 0, 0] - dense["prob"][:, i, j])) <= 1e-5
                    assert np.max(np.abs(one["box"][:, 0, 0] - dense["box"][:, i, j])) <= 1e-5


def test_06_triplet_selection_oracle():
    with criterion(6, "select_triplets matches exhaustive search"):
        rng = np.random.default_rng(606)
        for _ in range(200):
            n = int(rng.integers(4, 13))
            n_classes = int(rng.integers(2, 4))
            labels = [f"id{rng.integers(0, n_classes)}" for _ in range(n)]
            emb = rng.normal(size=(n, int(rng.integers(2, 9))))
            if rng.integers(0, 4) == 0:
                emb[1] = emb[0]  # duplicate rows force distance ties
            assert select_triplets(emb, labels) == select_triplets_brute(emb, labels)


def test_07_toy_embedder_training(embedder_training):
    with criterion(7, "toy embedder: >=90% held-out triplet satisfaction in <2 min"):
        cfg = embedder_training["config"]
        assert cfg.seed == 42 and cfg == TrainerConfig(task="embedder")
        assert embedder_training["seconds"] < 120.0
        raw, labels = chip_batch(seed=1234, n=80)
        emb = np.stack([
            embed_chip(FaceChip(normalize_pixels(c), (0, 0, TOY_CHIP, TOY_CHIP)),
                       embedder_training["result"].weights)
            for c in raw
        ]).astype(np.float64)
        same = np.array([lb == "child" for lb in labels])
        d2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
        satisfied = total = 0
        for a in range(len(labels)):
            pos = np.where((same == same[a]) & (np.arange(len(labels)) != a))[0]
            neg = np.where(same != same[a])[0]
            hits = d2[a, pos][:, None] < d2[a, neg][None, :]
            satisfied += int(hits.sum())
            total += hits.size
        assert satisfied / total >= 0.90


def test_08_synthetic_end_to_end(toy_weights, gallery20, probe_portraits):
    with criterion(8, "toy pipeline: 200 probes, accuracy and AUC >= 0.95"):
        frames, truths = probe_portraits
        cfg = DetectorConfig()
        correct = 0
        scores, scored_truths = [], []
        for frame, truth in zip(frames, truths):
            img = to_planar(frame)
            dets = detect_faces(img, toy_weights, cfg)
            if not dets:
                continue  # an undetected probe counts as an error
            chip = align_crop(img, dets[0].box, TOY_CHIP)
            result = classify(embed_chip(chip, toy_weights), gallery20)
            correct += int(result.label == truth)
            scores.append(result.margin)
            scored_truths.append(truth)
        assert correct / len(frames) >= 0.95
        roc = compute_roc(scores, scored_truths)
        assert roc.auc >= 0.95
        assert all(a >= b for a, b in zip(roc.fpr[1:], roc.fpr[:-1]))
        assert all(a >= b for a, b in zip(roc.tpr[1:], roc.tpr[:-1]))
        assert abs(roc.auc - auc_pairwise(scores, scored_truths)) <= 1e-9


def test_09_evaluation_arithmetic_fixture():
    with criterion(9, "tally of 158/2000 gives miss 0.079, detection 0.921 exactly"):
        summary = EvalSummary.from_tally(158, 2000)
        assert summary.miss_rate == 0.079
        assert summary.detection_rate == 0.921


def test_10_redaction_properties():
    with criterion(10, "scramble round trip, outside pixels, pixelate idempotency"):
        rng = np.random.default_rng(1010)
        for _ in range(500):
            h, w = int(rng.integers(8, 41)), int(rng.integers(8, 41))
            frame = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            boxes = []
            for _ in range(int(rng.integers(1, 4))):
                x1 = int(rng.integers(-5, w))
                y1 = int(rng.integers(-5, h))
                boxes.append((x1, y1, x1 + int(rng.integers(1, 20)),
                              y1 + int(rng.integers(1, 20))))
            outside = np.ones((h, w), dtype=bool)
            for x1, y1, x2, y2 in boxes:
                outside[max(0, y1) : max(0, y2), max(0, x1) : max(0, x2)] = False

            key = rng.bytes(8)
            for method in (Pixelate(3), Blur(1.2), Scramble(key)):
                out = denature_regions(frame, boxes, method)
                np.testing.assert_array_equal(out[outside], frame[outside])

            scrambled = denature_regions(frame, boxes, Scramble(key))
            np.testing.assert_array_equal(
                descramble_regions(scrambled, boxes, key), frame
            )

            once = denature_regions(frame, boxes[:1], Pixelate(3))
            np.testing.assert_array_equal(
                denature_regions(once, boxes[:1], Pixelate(3)), once
            )


def test_11_determinism_and_formats(toy_weights, gallery20, probe_portraits, tmp_path):
    with criterion(11, "deterministic reports, bit-exact files, timing additivity"):
        frames = probe_portraits[0][:6]

        def report_stream():
            pipe = Pipeline(toy_weights, gallery20,
                            PipelineConfig(chip_size=TOY_CHIP, emit_timing=False))
            lines, blobs = [], []
            for i, frame in enumerate(frames):
                out, report = pipe.process_frame(frame, i)
                lines.append(report_line(report))
                blobs.append(out.tobytes())
            return "\n".join(lines), blobs

        text_a, blobs_a = report_stream()
        text_b, blobs_b = report_stream()
        assert text_a == text_b
        assert blobs_a == blobs_b

        wpath = tmp_path / "weights.mprw"
        save_weights(toy_weights, wpath)
        loaded = load_weights(wpath)
        assert loaded == toy_weights  # WeightStore equality is bitwise
        save_weights(loaded, tmp_path / "again.mprw")
        assert (tmp_path / "again.mprw").read_bytes() == wpath.read_bytes()

        gpath = tmp_path / "gallery.csv"
        save_gallery(gallery20, gpath)
        g2 = load_gallery(gpath)
        assert g2.labels == gallery20.labels
        np.testing.assert_array_equal(g2.vectors, gallery20.vectors)

        timed = Pipeline(toy_weights, gallery20, PipelineConfig(chip_size=TOY_CHIP))
        for i, frame in enumerate(frames):
            _, report = timed.process_frame(frame, i)
            t = report["timing_ms"]
            stages = t["detect_ms"] + t["embed_ms"] + t["classify_ms"] + t["denature_ms"]
            assert stages <= t["total_ms"] + 1e-6
            assert t["total_ms"] <= stages * 1.05 + 1e-6
            check_timing(t)  # and the runtime guard agrees


def test_gate_guard_rejects_cooked_timing():
    # the additivity check itself must have teeth
    with pytest.raises(InvariantError):
        check_timing({"detect_ms": 1.0, "embed_ms": 1.0, "classify_ms": 1.0,
                      "denature_ms": 1.0, "total_ms": 8.0})
