"""Gallery construction, nearest-reference classification and ROC."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from faceveil.errors import ConfigError, DataError, FaceveilError
from faceveil.nn import load_weights, save_weights
from faceveil.recognize import (
    ADULT,
    CHILD,
    LABELS,
    ClassificationResult,
    Gallery,
    build_gallery,
    classify,
    compute_roc,
    gallery_build,
    load_gallery,
    save_gallery,
    save_roc,
)


def unit_rows(rng, n):
    rows = rng.normal(size=(n, 128))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def toy_gallery(rng, n_child=3, n_adult=3, note=""):
    rows = unit_rows(rng, n_child + n_adult)
    labels = [CHILD] * n_child + [ADULT] * n_adult
    return build_gallery(zip(labels, rows), note=note), labels, rows


class TestBuildGallery:
    def test_round_trips_values_bit_exact(self):
        rng = np.random.default_rng(0)
        rows = unit_rows(rng, 4).astype(np.float32)
        g = build_gallery([(CHILD, rows[0]), (ADULT, rows[1]), (CHILD, rows[2]), (ADULT, rows[3])])
        assert g.labels == (CHILD, ADULT, CHILD, ADULT)
        np.testing.assert_array_equal(g.vectors, rows)

    def test_empty_gallery_exists_but_cannot_classify(self):
        g = build_gallery([])
        assert len(g) == 0
        assert g.vectors.shape == (0, 128)
        with pytest.raises(ConfigError):
            classify(unit_rows(np.random.default_rng(1), 1)[0], g)

    def test_unknown_label_rejected(self):
        vec = unit_rows(np.random.default_rng(2), 1)[0]
        with pytest.raises(DataError):
            build_gallery([("toddler", vec)])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DataError):
            build_gallery([(CHILD, np.ones(64))])

    def test_non_unit_vector_rejected(self):
        with pytest.raises(DataError):
            build_gallery([(CHILD, np.full(128, 0.5))])

    def test_nan_vector_rejected(self):
        # a NaN reference sits at distance 0 from every probe, deciding every call
        vec = np.full(128, 128**-0.5)
        vec[3] = np.nan
        with pytest.raises(DataError):
            build_gallery([(ADULT, vec)])

    def test_vectors_are_read_only_copies(self):
        rng = np.random.default_rng(3)
        g, labels, rows = toy_gallery(rng, 2, 2)
        assert not g.vectors.flags.writeable
        given = rows.astype(np.float32)
        direct = Gallery(tuple(labels), given)
        given[0] = given[1]  # the caller's array stays the caller's
        np.testing.assert_array_equal(direct.vectors, rows.astype(np.float32))
        assert not direct.vectors.flags.writeable

    def test_edit_after_classify_raises_or_is_seen(self):
        # classify caches a per-label split; an in-place edit must not leave it stale
        rng = np.random.default_rng(4)
        g, labels, rows = toy_gallery(rng, 1, 1)
        probe = rows[0]
        assert classify(probe, g).label == CHILD
        try:
            g.vectors[[0, 1]] = g.vectors[[1, 0]]
        except ValueError:
            return
        swapped = build_gallery(zip(labels, rows[[1, 0]]))
        assert classify(probe, g) == classify(probe, swapped)


class TestGalleryBuild:
    def test_tolerates_bad_chips(self, embedder_training):
        from faceveil.embed import FaceChip
        from faceveil.image import normalize_pixels
        from faceveil.synth import make_face_chip

        rng = np.random.default_rng(4)
        chips = [
            FaceChip(normalize_pixels(make_face_chip(rng, lb, 32)), (0, 0, 32, 32))
            for lb in (CHILD, ADULT, CHILD)
        ]
        # a NaN chip embeds to a NaN vector, which fails the unit-norm check
        chips.insert(1, FaceChip(np.full((3, 32, 32), np.nan, np.float32), (0, 0, 32, 32)))
        labels = [CHILD, ADULT, ADULT, CHILD]
        gallery, failures = gallery_build(chips, labels, embedder_training["result"].weights)
        assert len(gallery) == 3
        assert [i for i, _ in failures] == [1]
        assert gallery.labels == (CHILD, ADULT, CHILD)

    def test_all_bad_chips_empty_gallery(self, embedder_training):
        from faceveil.embed import FaceChip

        bad = [FaceChip(np.full((3, 32, 32), np.nan, np.float32), (0, 0, 32, 32))]
        gallery, failures = gallery_build(bad, [CHILD], embedder_training["result"].weights)
        assert len(gallery) == 0
        assert len(failures) == 1

    def test_chip_size_the_weights_do_not_fit_propagates(self, embedder_training):
        # a configuration error is the whole build's, not one chip's
        from faceveil.embed import FaceChip

        chip = FaceChip(np.zeros((3, 16, 16), dtype=np.float32), (0, 0, 16, 16))
        with pytest.raises(ConfigError, match="embed.fc1"):
            gallery_build([chip], [CHILD], embedder_training["result"].weights)

    def test_length_mismatch(self, embedder_training):
        with pytest.raises(ConfigError):
            gallery_build([], [CHILD], embedder_training["result"].weights)


class TestClassify:
    def test_interleaved_gallery_matches_brute_force(self):
        rng = np.random.default_rng(14)
        labels = [ADULT, CHILD, ADULT, ADULT, CHILD, CHILD, ADULT, CHILD, ADULT]
        rows = unit_rows(rng, len(labels))
        g = build_gallery(zip(labels, rows))
        for _ in range(50):
            probe = unit_rows(rng, 1)[0]
            got = classify(probe, g)
            nearest = {}
            for label, row in zip(labels, g.vectors.astype(np.float64)):
                nearest[label] = min(nearest.get(label, math.inf), np.linalg.norm(probe - row))
            assert got.d_child == pytest.approx(nearest[CHILD], abs=1e-7)
            assert got.d_adult == pytest.approx(nearest[ADULT], abs=1e-7)
            assert got.label == (CHILD if nearest[ADULT] - nearest[CHILD] > 0 else ADULT)

    def test_matches_nearest_neighbor_oracle(self):
        rng = np.random.default_rng(5)
        g, labels, rows = toy_gallery(rng, 6, 6)
        for _ in range(100):
            probe = unit_rows(rng, 1)[0]
            got = classify(probe, g)
            want = oracles.classify_nearest(probe, labels, rows)
            assert got.label == want

    def test_distances_are_plain_euclidean(self):
        rng = np.random.default_rng(6)
        g, labels, rows = toy_gallery(rng, 3, 3)
        probe = unit_rows(rng, 1)[0]
        res = classify(probe, g)
        d_child = min(math.dist(probe, r) for r, lb in zip(rows, labels) if lb == CHILD)
        d_adult = min(math.dist(probe, r) for r, lb in zip(rows, labels) if lb == ADULT)
        assert res.d_child == pytest.approx(d_child, abs=1e-6)
        assert res.d_adult == pytest.approx(d_adult, abs=1e-6)
        assert res.score == pytest.approx(res.d_adult - res.d_child)

    def test_probe_equal_to_reference(self):
        rng = np.random.default_rng(7)
        g, labels, rows = toy_gallery(rng, 3, 3)
        res = classify(g.vectors[0], g)  # a child reference itself
        assert res.label == CHILD
        assert res.d_child == pytest.approx(0.0, abs=1e-3)

    def test_tie_goes_to_adult(self):
        vec = np.zeros(128)
        vec[0] = 1.0
        g = build_gallery([(CHILD, vec), (ADULT, vec)])
        res = classify(unit_rows(np.random.default_rng(8), 1)[0], g)
        assert res.score == 0.0
        assert res.label == ADULT

    def test_gallery_order_irrelevant(self):
        rng = np.random.default_rng(9)
        g, labels, rows = toy_gallery(rng, 4, 4)
        perm = np.random.default_rng(10).permutation(8)
        g2 = build_gallery([(labels[i], rows[i]) for i in perm])
        for _ in range(20):
            probe = unit_rows(rng, 1)[0]
            a, b = classify(probe, g), classify(probe, g2)
            assert a.label == b.label
            assert a.score == pytest.approx(b.score, abs=1e-6)

    def test_threshold_shifts_decision(self):
        rng = np.random.default_rng(11)
        g, _, _ = toy_gallery(rng, 4, 4)
        probe = unit_rows(rng, 1)[0]
        base = classify(probe, g)
        # decision is "child iff score > t": monotone in t
        assert classify(probe, g, threshold=base.score - 1.0).label == CHILD
        assert classify(probe, g, threshold=base.score + 1.0).label == ADULT
        assert classify(probe, g, threshold=base.score).label == ADULT

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # "score > nan" is False, so a NaN cut would call every child an adult
        g, _, rows = toy_gallery(np.random.default_rng(14), 2, 2)
        with pytest.raises(ConfigError, match="threshold"):
            classify(rows[0], g, threshold=threshold)

    def test_margin_property(self):
        res = ClassificationResult(CHILD, 0.4, 0.1, 0.5, threshold=0.25)
        assert res.margin == pytest.approx(0.15)

    def test_wrong_embedding_size(self):
        rng = np.random.default_rng(12)
        g, _, _ = toy_gallery(rng)
        with pytest.raises(ConfigError):
            classify(np.ones(64), g)

    def test_single_class_gallery_unusable(self):
        rng = np.random.default_rng(13)
        rows = unit_rows(rng, 2)
        g = build_gallery([(CHILD, rows[0]), (CHILD, rows[1])])
        with pytest.raises(ConfigError):
            classify(unit_rows(rng, 1)[0], g)


class TestRoc:
    def test_separable_scores_auc_one(self):
        scores = [1.0, 2.0, -1.0, -2.0]
        labels = [CHILD, CHILD, ADULT, ADULT]
        roc = compute_roc(scores, labels)
        assert roc.auc == pytest.approx(1.0)
        assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
        assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0

    def test_reversed_scores_auc_zero(self):
        roc = compute_roc([-1.0, 1.0], [CHILD, ADULT])
        assert roc.auc == pytest.approx(0.0)

    def test_random_scores_match_pairwise_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            labels = [CHILD if rng.integers(2) else ADULT for _ in range(n)]
            if CHILD not in labels or ADULT not in labels:
                continue
            # quantized scores force ties across classes
            scores = (rng.integers(-4, 5, size=n) / 4.0).tolist()
            roc = compute_roc(scores, labels)
            assert roc.auc == pytest.approx(oracles.auc_pairwise(scores, labels), abs=1e-9)
            # every point by a brute-force count of the rule "child iff score > t"
            n_child = labels.count(CHILD)
            for t, fpr, tpr in zip(roc.thresholds, roc.fpr, roc.tpr):
                above = [lb for s, lb in zip(scores, labels) if s > t]
                assert tpr == above.count(CHILD) / n_child
                assert fpr == above.count(ADULT) / (n - n_child)

    def test_curve_is_monotone_with_sentinels(self):
        rng = np.random.default_rng(15)
        n = 40
        labels = [CHILD] * 20 + [ADULT] * 20
        scores = rng.normal(size=n).tolist()
        roc = compute_roc(scores, labels)
        assert roc.thresholds[0] == np.inf and roc.thresholds[-1] == -np.inf
        assert len(roc.thresholds) == len(set(scores)) + 2
        assert np.all(np.diff(roc.fpr) >= 0)
        assert np.all(np.diff(roc.tpr) >= 0)
        assert np.all(np.diff(roc.thresholds) < 0)

    def test_memory_grows_with_the_probes_not_their_square(self):
        # 10k probes: a (thresholds x probes) mask alone would take 100 MB
        rng = np.random.default_rng(17)
        scores = rng.normal(size=10_000)
        labels = np.where(rng.integers(0, 2, size=10_000) == 1, CHILD, ADULT)
        tracemalloc.start()
        try:
            roc = compute_roc(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(roc.thresholds) == 10_002
        assert peak < 20 * 2**20

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            compute_roc([0.1, float("nan")], [CHILD, ADULT])

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            compute_roc([0.1, 0.2], [CHILD, CHILD])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            compute_roc([0.1], [CHILD, ADULT])

    def test_save_roc_format(self, tmp_path):
        roc = compute_roc([1.0, -1.0], [CHILD, ADULT])
        path = tmp_path / "roc.csv"
        save_roc(roc, path)
        lines = path.read_text().splitlines()
        assert lines[-1] == f"auc,{roc.auc:.9g}"
        assert len(lines) == len(roc.thresholds) + 1
        for line, (t, fp, tp) in zip(lines, roc.points):
            cols = line.split(",")
            assert len(cols) == 3
            assert float(cols[1]) == fp and float(cols[2]) == tp


def write_mprw(path, tensors):
    """Raw .mprw bytes, so a test can store values save_weights refuses."""
    raw = bytearray(b"MPRW" + struct.pack("<II", 1, len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        raw += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
        raw += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()
    path.write_bytes(bytes(raw))


def gallery_tensors(g):
    """The vectors and labels tensors of a non-empty gallery file."""
    return {"gallery.vectors": g.vectors, "gallery.labels": [LABELS.index(lb) for lb in g.labels]}


class TestGalleryFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        g, _, _ = toy_gallery(rng, 5, 4, note="camera A\nenrolled 2024-05-01")
        path = tmp_path / "gallery.mprw"
        save_gallery(g, path)
        loaded = load_gallery(path)
        assert loaded.labels == g.labels
        assert loaded.note == g.note
        np.testing.assert_array_equal(loaded.vectors, g.vectors)

    def test_interleaved_labels_keep_order(self, tmp_path):
        rng = np.random.default_rng(17)
        labels = [ADULT, CHILD, CHILD, ADULT, CHILD]
        g = build_gallery(zip(labels, unit_rows(rng, len(labels))))
        save_gallery(g, tmp_path / "g.mprw")
        loaded = load_gallery(tmp_path / "g.mprw")
        assert loaded.labels == tuple(labels)
        np.testing.assert_array_equal(loaded.vectors, g.vectors)

    @pytest.mark.parametrize("n_child,n_adult,note", [
        (0, 0, ""),
        (0, 0, "no chips embedded"),
        (3, 0, "children only"),
        (0, 2, ""),
        (2, 2, ""),
        (1, 1, "caméra 2 — 走廊\n\n  enrolled 2024-05-01  \n"),
    ], ids=["empty", "empty-with-note", "child-only", "adult-only", "no-note", "unicode-note"])
    def test_round_trips(self, tmp_path, n_child, n_adult, note):
        g, _, _ = toy_gallery(np.random.default_rng(18), n_child, n_adult, note=note)
        path = tmp_path / "g.mprw"
        save_gallery(g, path)
        loaded = load_gallery(path)
        assert loaded.labels == g.labels
        assert loaded.note == note
        assert loaded.vectors.dtype == np.float32
        np.testing.assert_array_equal(loaded.vectors, g.vectors.reshape(-1, 128))

    def test_note_is_utf8_byte_tensor(self, tmp_path):
        g, _, _ = toy_gallery(np.random.default_rng(19), 1, 2, note="provenance ✓")
        path = tmp_path / "g.mprw"
        save_gallery(g, path)
        store = load_weights(path)
        assert set(store) == {"gallery.vectors", "gallery.labels", "gallery.note"}
        assert store["gallery.vectors"].shape == (3, 128)
        np.testing.assert_array_equal(store["gallery.labels"], [0.0, 1.0, 1.0])
        assert bytes(store["gallery.note"].astype(np.uint8)) == "provenance ✓".encode()

    def test_empty_gallery_is_zero_tensor_file(self, tmp_path):
        path = tmp_path / "g.mprw"
        save_gallery(build_gallery([]), path)
        assert len(load_weights(path)) == 0
        assert len(load_gallery(path)) == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.mprw"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="empty.mprw"):
            load_gallery(path)

    def test_text_gallery_rejected(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("child," + ",".join(["0.0"] * 127 + ["1.0"]) + "\n")
        with pytest.raises(DataError, match="old.csv"):
            load_gallery(path)

    def test_unexpected_tensor_named(self, tmp_path):
        g, _, _ = toy_gallery(np.random.default_rng(20), 1, 1)
        path = tmp_path / "g.mprw"
        save_weights({**gallery_tensors(g), "pnet.conv1.w": np.ones((2, 3))}, path)
        with pytest.raises(DataError, match="g.mprw.*'pnet.conv1.w'"):
            load_gallery(path)

    @pytest.mark.parametrize("keep", ["gallery.vectors", "gallery.labels"])
    def test_missing_partner_rejected(self, tmp_path, keep):
        g, _, _ = toy_gallery(np.random.default_rng(21), 1, 1)
        path = tmp_path / "g.mprw"
        save_weights({keep: gallery_tensors(g)[keep]}, path)
        with pytest.raises(DataError, match="g.mprw.*without"):
            load_gallery(path)

    @pytest.mark.parametrize("vectors,labels", [
        (np.full(128, 128**-0.5), [0]),  # rank 1
        (np.full((2, 64), 64**-0.5), [0, 1]),  # wrong width
        (np.full((1, 2, 128), 128**-0.5), [0, 1]),  # rank 3
        (np.full((2, 128), 128**-0.5), [0]),  # too few labels
        (np.full((2, 128), 128**-0.5), [0, 1, 1]),  # too many labels
        (np.full((2, 128), 128**-0.5), [[0, 1]]),  # labels not a row
    ], ids=["rank-1", "width-64", "rank-3", "short-labels", "long-labels", "labels-2d"])
    def test_malformed_shape_rejected(self, tmp_path, vectors, labels):
        path = tmp_path / "g.mprw"
        save_weights({"gallery.vectors": vectors, "gallery.labels": labels}, path)
        with pytest.raises(DataError, match="g.mprw.*shape"):
            load_gallery(path)

    @pytest.mark.parametrize("code", [2.0, -1.0, 0.5, 1e9])
    def test_label_code_outside_set_rejected(self, tmp_path, code):
        g, _, _ = toy_gallery(np.random.default_rng(22), 2, 1)
        path = tmp_path / "g.mprw"
        save_weights({**gallery_tensors(g), "gallery.labels": [0.0, code, 1.0]}, path)
        with pytest.raises(DataError, match="g.mprw: entry 1: label code"):
            load_gallery(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        # save_weights refuses NaN, so the bytes are written by hand
        g, _, _ = toy_gallery(np.random.default_rng(23), 1, 1)
        tensors = gallery_tensors(g)
        tensors["gallery.vectors"] = tensors["gallery.vectors"].copy()
        tensors["gallery.vectors"][1, 5] = np.nan
        path = tmp_path / "g.mprw"
        write_mprw(path, tensors)
        with pytest.raises(DataError, match="g.mprw.*non-finite"):
            load_gallery(path)

    @pytest.mark.parametrize("scale", [0.5, 1.01, 0.0])
    def test_non_unit_row_named(self, tmp_path, scale):
        g, _, _ = toy_gallery(np.random.default_rng(24), 2, 2)
        tensors = gallery_tensors(g)
        tensors["gallery.vectors"] = tensors["gallery.vectors"].copy()
        tensors["gallery.vectors"][2] *= scale
        path = tmp_path / "g.mprw"
        save_weights(tensors, path)
        with pytest.raises(DataError, match="g.mprw: entry 2: reference norm"):
            load_gallery(path)

    @pytest.mark.parametrize("note", [[256.0], [-1.0], [65.5], [[65.0, 66.0]]],
                             ids=["over-255", "negative", "fraction", "not-a-row"])
    def test_note_not_bytes_rejected(self, tmp_path, note):
        g, _, _ = toy_gallery(np.random.default_rng(25), 1, 1)
        path = tmp_path / "g.mprw"
        save_weights({**gallery_tensors(g), "gallery.note": note}, path)
        with pytest.raises(DataError, match="g.mprw.*byte"):
            load_gallery(path)

    def test_non_utf8_note_named(self, tmp_path):
        g, _, _ = toy_gallery(np.random.default_rng(26), 1, 1)
        path = tmp_path / "g.mprw"
        save_weights({**gallery_tensors(g), "gallery.note": list(b"caf\xe9\nnote")}, path)
        with pytest.raises(DataError, match="g.mprw: note is not UTF-8"):
            load_gallery(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_file_fails_closed(self, tmp_path_factory, data):
        # a valid two-entry file, then bytes overwritten or inserted, then cut short
        g, _, _ = toy_gallery(np.random.default_rng(18), 1, 1, note="n")
        path = tmp_path_factory.mktemp("gal") / "g.mprw"
        save_gallery(g, path)
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(raw)))
            piece = data.draw(st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from([
                struct.pack("<f", np.nan), struct.pack("<f", 2.0), struct.pack("<I", 2**32 - 1),
                b"\x00\x00", b"\xff", b"gallery.", b"MPRW"])))
            if data.draw(st.booleans()):
                raw[at:at + len(piece)] = piece
            else:
                raw[at:at] = piece
        path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)))]))
        try:
            load_gallery(path)
        except FaceveilError:
            pass
