"""Frame I/O, the end-to-end pipeline, report format, timing accounting
and the evaluation helpers."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from faceveil.denature import Pixelate, RedactionPolicy, Scramble, descramble_regions
from faceveil.detect import DetectorConfig
from faceveil.errors import ConfigError, DataError, InvariantError
from faceveil.image import to_frame
from faceveil.imgio import iter_frames, load_ppm, ppm_bytes, save_frames, save_ppm
from faceveil.models import CHIP_SIZE
from faceveil.pipeline import (
    EvalSummary,
    Pipeline,
    PipelineConfig,
    check_timing,
    evaluate_reports,
    report_line,
    timing_stats,
)
from faceveil.recognize import ADULT, CHILD
from faceveil.synth import make_portrait


def pipe_config(**kw):
    kw.setdefault("chip_size", CHIP_SIZE)
    kw.setdefault("detector", DetectorConfig())
    return PipelineConfig(**kw)


@pytest.fixture(scope="module")
def pipeline(toy_weights, gallery20):
    return Pipeline(toy_weights, gallery20, pipe_config())


@pytest.fixture(scope="module")
def portrait_frame():
    rng = np.random.default_rng(60)
    img, box, label = make_portrait(rng, CHILD, 64)
    return to_frame(img), box, label


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "f.ppm"
        save_ppm(frame, path)
        np.testing.assert_array_equal(load_ppm(path), frame)

    def test_header_bytes(self):
        frame = np.zeros((2, 3, 3), dtype=np.uint8)
        assert ppm_bytes(frame).startswith(b"P6\n3 2\n255\n")

    def test_stream_of_frames(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8) for _ in range(3)]
        path = tmp_path / "stream.ppm"
        save_frames(frames, path)
        loaded = list(iter_frames(path))
        assert len(loaded) == 3
        for a, b in zip(loaded, frames):
            np.testing.assert_array_equal(a, b)

    def test_comments_in_header(self, tmp_path):
        raw = b"P6 # a comment\n# another\n2 1\n255\n" + bytes(6)
        path = tmp_path / "c.ppm"
        path.write_bytes(raw)
        assert load_ppm(path).shape == (1, 2, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataError):
            load_ppm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(DataError):
            load_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataError):
            load_ppm(path)

    def test_header_ending_at_end_of_file(self, tmp_path):
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6 1 1 255")  # no separator byte, no raster
        with pytest.raises(DataError, match="need 3 bytes, have 0$"):
            load_ppm(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.ppm"
        path.write_bytes(b"")
        with pytest.raises(DataError):
            list(iter_frames(path))

    def test_zero_frames_refused_on_write(self, tmp_path):
        with pytest.raises(ConfigError):
            save_frames([], tmp_path / "none.ppm")

    def test_comment_longer_than_a_read_piece(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(
            b"P6 #" + b"x" * (3 * io.DEFAULT_BUFFER_SIZE) + b"\n2 1 255\n" + bytes(range(6))
        )
        np.testing.assert_array_equal(load_ppm(path), np.arange(6, dtype=np.uint8).reshape(1, 2, 3))

    def test_forged_huge_raster_is_not_allocated(self, tmp_path):
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6 40000 40000 255\n\0")
        assert path.stat().st_size == 20
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="need 4800000000 bytes, have 1"):
                list(iter_frames(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stream_matches_whole_buffer_reader(self, tmp_path_factory, data):
        # random small frames with random whitespace and comments between
        # and inside the headers, cut at a random offset
        gap = st.lists(
            st.one_of(
                st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\v", b"\f"]),
                st.binary(max_size=12).map(lambda t: b"#" + t.replace(b"\n", b"") + b"\n"),
            ),
            max_size=3,
        ).map(b"".join)
        sep = st.tuples(st.sampled_from(list(b" \t\r\n\v\f")), gap).map(
            lambda t: bytes([t[0]]) + t[1]
        )
        raw = data.draw(gap)
        for _ in range(data.draw(st.integers(1, 3))):
            h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
            fields = [b"P6", b"%d" % w, b"%d" % h, b"255"]
            raw += fields[0] + b"".join(data.draw(sep) + t for t in fields[1:])
            raw += data.draw(st.sampled_from(list(b" \t\r\n\v\f"))).to_bytes(1, "little")
            raw += data.draw(st.binary(min_size=3 * h * w, max_size=3 * h * w)) + data.draw(gap)
        raw = raw[: data.draw(st.integers(0, len(raw)))]
        path = tmp_path_factory.mktemp("ppm") / "s.ppm"
        path.write_bytes(raw)

        def drain(reader):
            frames = []
            try:
                for frame in reader(path):
                    frames.append(frame.tolist())
            except DataError as e:
                return frames, str(e)
            return frames, None

        assert drain(iter_frames) == drain(oracles.ppm_frames_whole_buffer)


class TestPipelineConstruction:
    def test_policy_without_gallery_rejected(self, toy_weights):
        with pytest.raises(ConfigError):
            Pipeline(toy_weights, config=pipe_config())  # default policy protects child

    def test_empty_policy_without_gallery_ok(self, toy_weights):
        pipe = Pipeline(toy_weights, config=pipe_config(policy=RedactionPolicy(labels=frozenset())))
        assert pipe.gallery is None

    def test_single_class_gallery_rejected(self, toy_weights):
        from faceveil.recognize import build_gallery

        rng = np.random.default_rng(2)
        vec = rng.normal(size=128)
        vec /= np.linalg.norm(vec)
        lonely = build_gallery([(CHILD, vec)])
        with pytest.raises(ConfigError):
            Pipeline(toy_weights, lonely, pipe_config())

    def test_missing_weights_rejected(self, gallery20):
        with pytest.raises(ConfigError):
            Pipeline({}, gallery20, pipe_config())

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # no score exceeds NaN or +inf, so such a cut would never redact a child
        with pytest.raises(ConfigError, match="threshold"):
            PipelineConfig(threshold=threshold)


class TestProcessFrame:
    def test_report_schema(self, pipeline, portrait_frame):
        frame, _, _ = portrait_frame
        out, report = pipeline.process_frame(frame, index=3, source="cam0")
        assert report["frame"] == 3
        assert report["source"] == "cam0"
        assert set(report) == {"frame", "source", "faces", "redactions", "timing_ms"}
        assert report["faces"]
        face = report["faces"][0]
        assert set(face) >= {"box", "score", "landmarks", "label", "redacted",
                             "d_child", "d_adult", "margin"}
        assert len(face["landmarks"]) == 5
        assert face["label"] in (CHILD, ADULT)
        assert out.shape == frame.shape and out.dtype == np.uint8

    def test_source_defaults_to_index(self, pipeline, portrait_frame):
        frame, _, _ = portrait_frame
        _, report = pipeline.process_frame(frame, index=7)
        assert report["source"] == "7"

    def test_redaction_flags_match_log(self, pipeline, portrait_frame):
        frame, _, _ = portrait_frame
        _, report = pipeline.process_frame(frame)
        flagged = {i for i, f in enumerate(report["faces"]) if f["redacted"]}
        assert flagged == {e["index"] for e in report["redactions"]}

    def test_child_face_is_redacted(self, pipeline, portrait_frame):
        frame, gt_box, label = portrait_frame
        out, report = pipeline.process_frame(frame)
        assert label == CHILD
        child_faces = [f for f in report["faces"] if f["label"] == CHILD]
        if child_faces:  # classification is the detector's call, not ground truth
            assert any(f["redacted"] for f in child_faces)
            assert not np.array_equal(out, frame)

    def test_frame_checked_before_detection(self, pipeline, portrait_frame, monkeypatch):
        calls = []
        monkeypatch.setattr("faceveil.pipeline.detect_faces", lambda *a, **k: calls.append(a))
        frame, _, _ = portrait_frame
        with pytest.raises(ConfigError, match="H,W,3"):
            pipeline.process_frame(frame.astype(np.float64))
        assert calls == []

    def test_no_faces_report(self, toy_weights, gallery20):
        pipe = Pipeline(toy_weights, gallery20, pipe_config())
        blank = np.full((48, 48, 3), 120, dtype=np.uint8)
        out, report = pipe.process_frame(blank)
        assert report["faces"] == []
        assert report["redactions"] == []
        np.testing.assert_array_equal(out, blank)
        assert report["timing_ms"]["total_ms"] >= 0.0

    def test_timing_keys_and_additivity(self, pipeline, portrait_frame):
        frame, _, _ = portrait_frame
        _, report = pipeline.process_frame(frame)
        t = report["timing_ms"]
        assert set(t) == {"detect_ms", "embed_ms", "classify_ms", "denature_ms", "total_ms"}
        parts = t["detect_ms"] + t["embed_ms"] + t["classify_ms"] + t["denature_ms"]
        assert all(v >= 0 for v in t.values())
        assert parts <= t["total_ms"] + 1e-6
        assert t["total_ms"] <= parts * 1.05 + 1e-6

    def test_no_timing_mode(self, toy_weights, gallery20, portrait_frame):
        frame, _, _ = portrait_frame
        pipe = Pipeline(toy_weights, gallery20, pipe_config(emit_timing=False))
        _, report = pipe.process_frame(frame)
        assert "timing_ms" not in report

    def test_detect_only_pipeline_labels_none(self, toy_weights, portrait_frame):
        frame, _, _ = portrait_frame
        pipe = Pipeline(
            toy_weights, config=pipe_config(policy=RedactionPolicy(labels=frozenset()))
        )
        _, report = pipe.process_frame(frame)
        assert report["faces"]
        assert all(f["label"] is None for f in report["faces"])
        assert all("d_child" not in f for f in report["faces"])

    def test_report_streams_byte_identical(self, toy_weights, gallery20):
        rng = np.random.default_rng(61)
        frames = [to_frame(make_portrait(rng, lb, 64)[0]) for lb in (CHILD, ADULT, CHILD)]
        cfg = pipe_config(emit_timing=False, method=Scramble(b"fixed"))

        def run():
            pipe = Pipeline(toy_weights, gallery20, cfg)
            lines, outs = [], []
            for i, frame in enumerate(frames):
                out, report = pipe.process_frame(frame, i)
                lines.append(report_line(report) + "\n")
                outs.append(out.tobytes())
            return "".join(lines), outs

        text_a, outs_a = run()
        text_b, outs_b = run()
        assert text_a == text_b
        assert outs_a == outs_b
        for line in text_a.splitlines():
            report = json.loads(line)
            assert "timing_ms" not in report

    @pytest.mark.parametrize("method, scheme", [(Scramble(b"k"), {"scramble": 2}), (Pixelate(), {})])
    def test_redactions_name_the_scramble_scheme(self, toy_weights, gallery20, portrait_frame,
                                                method, scheme):
        every = RedactionPolicy(labels={CHILD, ADULT})
        pipe = Pipeline(toy_weights, gallery20, pipe_config(policy=every, method=method))
        _, report = pipe.process_frame(portrait_frame[0])
        assert report["redactions"]
        for entry in report["redactions"]:
            assert {k: entry[k] for k in entry.keys() - {"index", "box", "label", "reason"}} == scheme

    def test_logged_scramble_boxes_restore_frame(self, toy_weights, gallery20, portrait_frame):
        frame = portrait_frame[0]
        every = RedactionPolicy(labels={CHILD, ADULT})
        pipe = Pipeline(toy_weights, gallery20, pipe_config(policy=every, method=Scramble(b"k")))
        out, report = pipe.process_frame(frame)
        assert not np.array_equal(out, frame)
        boxes = [entry["box"] for entry in json.loads(report_line(report))["redactions"]]
        np.testing.assert_array_equal(descramble_regions(out, boxes, b"k"), frame)

    def test_report_line_compact_and_sorted(self):
        line = report_line({"zeta": 1, "alpha": [1.5, 2], "mid": {"b": 1, "a": 2}})
        assert line == '{"alpha":[1.5,2],"mid":{"a":2,"b":1},"zeta":1}'


class TestCheckTiming:
    def good(self):
        return {"detect_ms": 5.0, "embed_ms": 2.0, "classify_ms": 1.0,
                "denature_ms": 2.0, "total_ms": 10.2}

    def test_accepts_within_headroom(self):
        check_timing(self.good())

    def test_rejects_negative_stage(self):
        t = self.good()
        t["embed_ms"] = -0.001
        with pytest.raises(InvariantError):
            check_timing(t)

    def test_rejects_sum_over_total(self):
        t = self.good()
        t["total_ms"] = 9.0
        with pytest.raises(InvariantError):
            check_timing(t)

    def test_rejects_unaccounted_overhead(self):
        t = self.good()
        t["total_ms"] = 11.0  # sum is 10.0, headroom tops out at 10.5
        with pytest.raises(InvariantError):
            check_timing(t)


class TestEvalSummary:
    def test_reference_tally_is_exact(self):
        s = EvalSummary.from_tally(158, 2000)
        assert s.miss_rate == 0.079
        assert s.detection_rate == 0.921

    def test_empty_probe_set(self):
        with pytest.raises(ConfigError, match="empty probe set"):
            EvalSummary.from_tally(0, 0)

    def test_invalid_tally(self):
        with pytest.raises(ConfigError):
            EvalSummary.from_tally(5, 4)
        with pytest.raises(ConfigError):
            EvalSummary.from_tally(-1, 4)

    def test_summary_dict(self):
        s = EvalSummary.from_tally(1, 4)
        d = s.summary()
        assert d == {
            "total": 4,
            "miss_count": 1,
            "miss_rate": 0.25,
            "detection_rate": 0.75,
            "auc": None,
        }


def report_for(source, label, margin, score=0.9):
    face = {"box": [0, 0, 10, 10], "score": score, "label": label, "margin": margin}
    return {"frame": 0, "source": source, "faces": [face], "redactions": []}


class TestEvaluateReports:
    def test_counts_misses_and_roc(self):
        reports = [
            report_for("a", CHILD, 0.5),
            report_for("b", ADULT, -0.4),
            report_for("c", ADULT, -0.1),
            {"frame": 3, "source": "d", "faces": [], "redactions": []},
        ]
        truth = {"a": CHILD, "b": ADULT, "c": CHILD, "d": ADULT}
        s = evaluate_reports(reports, truth)
        assert s.total == 4
        assert s.miss_count == 2  # c misclassified, d undetected
        assert s.confusion[(CHILD, CHILD)] == 1
        assert s.confusion[(ADULT, None)] == 1
        assert s.roc is not None and len(s.roc.thresholds) == 5

    def test_probe_without_label_listed(self):
        reports = [report_for("x", CHILD, 0.1)]
        with pytest.raises(DataError, match="x"):
            evaluate_reports(reports, {"y": CHILD})

    def test_label_for_unknown_sample_listed(self):
        reports = [report_for("x", CHILD, 0.1)]
        with pytest.raises(DataError, match="ghost"):
            evaluate_reports(reports, {"x": CHILD, "ghost": ADULT})

    def test_unclassified_faces_rejected(self):
        rep = report_for("x", None, None)
        with pytest.raises(DataError):
            evaluate_reports([rep], {"x": CHILD})

    def test_best_face_represents_frame(self):
        rep = {
            "frame": 0,
            "source": "x",
            "faces": [
                {"box": [0, 0, 1, 1], "score": 0.4, "label": ADULT, "margin": -0.2},
                {"box": [0, 0, 2, 2], "score": 0.9, "label": CHILD, "margin": 0.3},
            ],
            "redactions": [],
        }
        # the higher-scoring face decides; pad with an adult so ROC has both classes
        s = evaluate_reports([rep, report_for("y", ADULT, -0.5)], {"x": CHILD, "y": ADULT})
        assert s.miss_count == 0


class TestTimingStats:
    def test_matches_numpy_per_stage(self):
        rng = np.random.default_rng(8)
        keys = ("detect_ms", "embed_ms", "classify_ms", "denature_ms", "total_ms")
        timings = [dict(zip(keys, rng.uniform(0, 50, size=5).tolist())) for _ in range(7)]
        stats = timing_stats(timings)
        assert list(stats) == list(keys)
        for key in keys:
            values = np.array([t[key] for t in timings])
            assert stats[key] == {
                "mean": float(values.mean()),
                "median": float(np.median(values)),
                "p95": float(np.percentile(values, 95)),
            }

    def test_one_frame_is_its_own_statistic(self, pipeline, portrait_frame):
        frame, _, _ = portrait_frame
        _, report = pipeline.process_frame(frame)
        stats = timing_stats([report["timing_ms"]])
        for key, value in report["timing_ms"].items():
            assert stats[key] == {"mean": value, "median": value, "p95": value}
