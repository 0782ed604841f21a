"""End-to-end command line coverage: every subcommand plus the exit
code contract (1 config, 2 data, 3 invariant)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_CHIP, chip_batch
from faceveil.cli import _given, build_parser, iter_input, load_labels, main, pipeline_config_from
from faceveil.denature import Blur
from faceveil.detect import DetectorConfig
from faceveil.image import to_frame
from faceveil.imgio import load_ppm, save_frames, save_ppm
from faceveil.nn import load_weights, save_weights
from faceveil.pipeline import PipelineConfig, report_line
from faceveil.recognize import ADULT, CHILD, load_gallery, save_gallery
from faceveil.synth import make_portrait


@pytest.fixture(scope="module")
def art(tmp_path_factory, detector_training, embedder_training, gallery20):
    """Weight files, a gallery file, portrait dirs and a frame stream."""
    root = tmp_path_factory.mktemp("cli")
    det_w = root / "det.mprw"
    emb_w = root / "emb.mprw"
    save_weights(detector_training["result"].weights, det_w)
    save_weights(embedder_training["result"].weights, emb_w)
    gal = root / "gallery.csv"
    save_gallery(gallery20, gal)

    rng = np.random.default_rng(63)
    portraits = root / "portraits"
    portraits.mkdir()
    labels = {}
    for i in range(6):
        truth = CHILD if i % 2 == 0 else ADULT
        img, _, _ = make_portrait(rng, truth, 64)
        name = f"p{i}.ppm"
        save_ppm(to_frame(img), portraits / name)
        labels[name] = truth

    stream = root / "stream.ppm"
    save_frames([load_ppm(portraits / "p0.ppm"), load_ppm(portraits / "p1.ppm")], stream)

    dirty = root / "dirty"
    dirty.mkdir()
    save_ppm(load_ppm(portraits / "p0.ppm"), dirty / "ok.ppm")
    (dirty / "notes.txt").write_text("not an image")
    (dirty / "broken.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(12))

    return {
        "root": root,
        "det_w": str(det_w),
        "emb_w": str(emb_w),
        "gallery": str(gal),
        "portraits": portraits,
        "labels": labels,
        "stream": str(stream),
        "dirty": dirty,
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


class TestModuleEntryPoint:
    """``python -m faceveil`` runs the CLI from a checkout, without installing."""

    def run_module(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run(
            [sys.executable, "-m", "faceveil", *argv], capture_output=True, text=True, env=env
        )

    def test_help_exits_0(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: faceveil")

    def test_usage_error_exits_1_without_traceback(self):
        proc = self.run_module("run")
        assert proc.returncode == 1
        assert proc.stderr.startswith("faceveil: ")
        assert "Traceback" not in proc.stderr


class TestDetect:
    def test_stream_input(self, art, capsys, tmp_path):
        out_file = tmp_path / "boxes.jsonl"
        code, out, _ = run_cli(
            capsys, "detect", "--weights", art["det_w"],
            "--input", art["stream"], "--out", str(out_file),
        )
        assert code == 0
        summary = last_json(out)
        assert summary["frames"] == 2
        assert summary["faces"] >= 1
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            rep = json.loads(line)
            assert rep["frame"] == i
            assert rep["source"] == str(i)
            for face in rep["faces"]:
                assert set(face) == {"box", "score", "landmarks"}

    def test_directory_skips_unreadable(self, art, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "detect", "--weights", art["det_w"],
            "--input", str(art["dirty"]), "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 0
        assert "faceveil: skipping broken.ppm" in err
        assert "notes.txt" not in err  # wrong suffix is ignored silently
        assert last_json(out)["frames"] == 1

    def test_missing_weights_file(self, art, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "detect", "--weights", str(tmp_path / "nope.mprw"),
            "--input", art["stream"], "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 2
        assert "faceveil:" in err

    def test_missing_input_path(self, art, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "detect", "--weights", art["det_w"],
            "--input", str(tmp_path / "absent.ppm"), "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 2

    def test_bad_thresholds(self, art, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "detect", "--weights", art["det_w"], "--input", art["stream"],
            "--out", str(tmp_path / "o.jsonl"), "--thresholds", "0.6,0.7",
        )
        assert code == 1
        assert "thresholds" in err

    def test_lines_are_run_reports_projected(self, art, capsys, tmp_path):
        boxes = tmp_path / "boxes.jsonl"
        assert run_cli(
            capsys, "detect", "--weights", art["det_w"],
            "--input", art["stream"], "--out", str(boxes),
        )[0] == 0
        out_dir = tmp_path / "run"
        assert run_cli(
            capsys, "run", "--weights", art["det_w"], "--input", art["stream"],
            "--out-dir", str(out_dir), "--protect", "none", "--no-timing",
        )[0] == 0
        reps = [json.loads(ln) for ln in (out_dir / "report.jsonl").read_text().splitlines()]
        assert any(r["faces"] for r in reps)
        want = [
            report_line({
                "frame": r["frame"],
                "source": r["source"],
                "faces": [{k: f[k] for k in ("box", "score", "landmarks")} for f in r["faces"]],
            })
            for r in reps
        ]
        assert boxes.read_text().splitlines() == want

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "detect", "--bogus")
        assert code == 1

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "transmogrify")[0] == 1


class TestRun:
    def test_full_pipeline(self, art, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"], "--chip-size", str(TOY_CHIP),
            "--input", str(art["portraits"]), "--out-dir", str(out_dir),
        )
        assert code == 0
        summary = last_json(out)
        assert set(summary) == {"frames", "faces", "redacted"}
        assert summary["frames"] == 6
        assert summary["faces"] >= 5
        report = out_dir / "report.jsonl"
        assert report.exists()
        reps = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert [r["source"] for r in reps] == sorted(art["labels"])
        assert all("timing_ms" in r for r in reps)
        assert (out_dir / "p0.ppm").exists()  # named after the source stem
        assert load_ppm(out_dir / "p0.ppm").shape == (64, 64, 3)

    def test_stream_names_and_scramble(self, art, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"], "--chip-size", str(TOY_CHIP),
            "--input", art["stream"], "--out-dir", str(out_dir),
            "--method", "scramble:6b6579", "--protect", "all",
        )
        assert code == 0
        assert (out_dir / "frame_00000.ppm").exists()
        assert (out_dir / "frame_00001.ppm").exists()
        assert last_json(out)["redacted"] >= 1

    def test_no_timing_reports_are_reproducible(self, art, capsys, tmp_path):
        texts = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            code, _, _ = run_cli(
                capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
                "--gallery", art["gallery"], "--chip-size", str(TOY_CHIP),
                "--input", art["stream"], "--out-dir", str(out_dir), "--no-timing",
            )
            assert code == 0
            texts.append((out_dir / "report.jsonl").read_bytes())
        assert texts[0] == texts[1]
        assert b"timing_ms" not in texts[0]

    def test_non_finite_weights_exit_2(self, art, capsys, tmp_path):
        weights = dict(load_weights(art["det_w"]))
        weights["rnet.fc1.w"] = weights["rnet.fc1.w"].copy()
        weights["rnet.fc1.w"].flat[0] = np.nan
        bad = tmp_path / "nan.mprw"
        save_weights(weights, bad)
        code, _, err = run_cli(
            capsys, "run", "--weights", str(bad), "--weights", art["emb_w"],
            "--gallery", art["gallery"], "--chip-size", str(TOY_CHIP),
            "--input", art["stream"], "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2  # rejected at load, before any frame is read
        assert "rnet.fc1.w" in err and "non-finite" in err

    def test_protect_child_needs_gallery(self, art, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--input", art["stream"], "--out-dir", str(tmp_path / "o"),
        )
        assert code == 1
        assert "gallery" in err

    def test_protect_none_without_gallery(self, art, capsys, tmp_path):
        out_dir = tmp_path / "o"
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--input", art["stream"], "--out-dir", str(out_dir), "--protect", "none",
        )
        assert code == 0
        assert last_json(out)["redacted"] == 0
        reps = [json.loads(ln) for ln in (out_dir / "report.jsonl").read_text().splitlines()]
        assert all(f["label"] is None for r in reps for f in r["faces"])


@pytest.fixture(scope="module")
def chips_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("chips")
    raw, labels = chip_batch(seed=90, n=4)
    lines = ["filename,label"]
    for i, (chip, label) in enumerate(zip(raw, labels)):
        name = f"c{i}.ppm"
        save_ppm(to_frame(chip), root / name)
        lines.append(f"{name},{label}")
    (root / "labels.csv").write_text("\n".join(lines) + "\n")
    return root


@pytest.fixture(scope="module")
def run_reports(art, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run_out")
    code = main([
        "run", "--weights", art["det_w"], "--weights", art["emb_w"],
        "--gallery", art["gallery"], "--chip-size", str(TOY_CHIP),
        "--input", str(art["portraits"]), "--out-dir", str(out_dir),
    ])
    assert code == 0
    return out_dir / "report.jsonl"


class TestGalleryEvalFlow:
    def test_build_gallery(self, art, chips_dir, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, stdout, _ = run_cli(
            capsys, "build-gallery", "--weights", art["emb_w"],
            "--input", str(chips_dir), "--labels", str(chips_dir / "labels.csv"),
            "--out", str(out), "--chip-size", str(TOY_CHIP),
        )
        assert code == 0
        assert last_json(stdout) == {"entries": 4, "skipped": 0}
        gallery = load_gallery(out)
        assert len(gallery) == 4

    def test_missing_chip_listed(self, art, chips_dir, capsys, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("ghost.ppm,child\n")
        code, _, err = run_cli(
            capsys, "build-gallery", "--weights", art["emb_w"],
            "--input", str(chips_dir), "--labels", str(labels),
            "--out", str(tmp_path / "g.csv"), "--chip-size", str(TOY_CHIP),
        )
        assert code == 2
        assert "ghost.ppm" in err

    def test_eval_reports(self, art, run_reports, capsys, tmp_path):
        labels = tmp_path / "truth.csv"
        labels.write_text(
            "filename,label\n"
            + "".join(f"{k},{v}\n" for k, v in sorted(art["labels"].items()))
        )
        roc = tmp_path / "roc.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--reports", str(run_reports),
            "--labels", str(labels), "--roc", str(roc),
        )
        assert code == 0
        summary = last_json(out)
        assert summary["total"] == 6
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert roc.read_text().splitlines()[-1].startswith("auc,")

    def test_eval_invalid_json(self, art, capsys, tmp_path):
        reports = tmp_path / "r.jsonl"
        reports.write_text('{"frame": 0}\nnot json\n')
        labels = tmp_path / "t.csv"
        labels.write_text("0,child\n")
        code, _, err = run_cli(
            capsys, "eval", "--reports", str(reports), "--labels", str(labels)
        )
        assert code == 2
        assert "r.jsonl:2" in err

    @pytest.mark.parametrize("line", [
        "3",
        '{"source":"x","faces":[{"label":"child","margin":0.5}]}',
        '{"source":"x","faces":"x"}',
    ], ids=["not-an-object", "face-without-score", "faces-not-a-list"])
    def test_eval_malformed_report_exits_2(self, capsys, tmp_path, line):
        reports = tmp_path / "r.jsonl"
        reports.write_text('{"source":"y","faces":[]}\n' + line + "\n")
        labels = tmp_path / "t.csv"
        labels.write_text("x,child\ny,adult\n")
        code, _, err = run_cli(capsys, "eval", "--reports", str(reports), "--labels", str(labels))
        assert code == 2
        assert "r.jsonl:2: " in err

    @pytest.mark.parametrize("bad", ["reports", "labels"])
    def test_eval_non_utf8_exits_2(self, capsys, tmp_path, bad):
        files = {"reports": tmp_path / "r.jsonl", "labels": tmp_path / "t.csv"}
        files["reports"].write_bytes(b'{"source":"x","faces":[]}\n')
        files["labels"].write_bytes(b"x,child\n")
        files[bad].write_bytes(files[bad].read_bytes() + b"\xff\xfe\n")
        code, _, err = run_cli(
            capsys, "eval", "--reports", str(files["reports"]), "--labels", str(files["labels"])
        )
        assert code == 2
        assert f"{files[bad].name}:2: not UTF-8" in err

    def test_run_non_utf8_gallery_exits_2(self, art, capsys, tmp_path):
        gallery = tmp_path / "g.csv"
        gallery.write_bytes(Path(art["gallery"]).read_bytes().replace(b"child", b"ch\xefld", 1))
        code, _, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--input", art["stream"], "--out-dir", str(tmp_path / "out"),
            "--gallery", str(gallery), "--chip-size", str(TOY_CHIP),
        )
        assert code == 2
        assert "g.csv:" in err and "not UTF-8" in err

    def test_eval_no_scores_cannot_roc(self, art, capsys, tmp_path):
        reports = tmp_path / "r.jsonl"
        reports.write_text('{"frame":0,"source":"x","faces":[],"redactions":[]}\n')
        labels = tmp_path / "t.csv"
        labels.write_text("x,child\n")
        code, _, _ = run_cli(
            capsys, "eval", "--reports", str(reports), "--labels", str(labels),
            "--roc", str(tmp_path / "roc.csv"),
        )
        assert code == 2


class TestLabelsFile:
    def test_header_tolerated(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("filename,label\na.ppm,child\nb.ppm,adult\n")
        assert load_labels(path) == {"a.ppm": "child", "b.ppm": "adult"}

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("# truth\n\na.ppm,child\n")
        assert load_labels(path) == {"a.ppm": "child"}

    def test_commas_in_filename(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("a,b.ppm,adult\n")
        assert load_labels(path) == {"a,b.ppm": "adult"}

    @pytest.mark.parametrize(
        "body", ["a.ppm,toddler\n", "a.ppm,child\na.ppm,adult\n", "justaname\n", ""]
    )
    def test_rejects(self, tmp_path, body):
        from faceveil.errors import DataError

        path = tmp_path / "l.csv"
        path.write_text(body)
        with pytest.raises(DataError):
            load_labels(path)


    def test_non_utf8_line_named(self, tmp_path):
        from faceveil.errors import DataError

        path = tmp_path / "l.csv"
        path.write_bytes(b"a.ppm,child\n\xe9.ppm,adult\n")
        with pytest.raises(DataError, match="l.csv:2: not UTF-8"):
            load_labels(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_lines_fail_closed(self, tmp_path_factory, data):
        from faceveil.errors import FaceveilError

        line = st.one_of(st.binary(max_size=12), st.sampled_from(
            [b"a.ppm,child", b"b,c.ppm, adult", b"filename,label", b"# c", b"", b",child"]))
        path = tmp_path_factory.mktemp("labels") / "l.csv"
        path.write_bytes(b"\n".join(data.draw(st.lists(line, max_size=5))))
        try:
            load_labels(path)
        except FaceveilError:
            pass


class TestTrainToy:
    def test_quick_detector_run(self, capsys, tmp_path):
        out = tmp_path / "w.mprw"
        metrics = tmp_path / "m.csv"
        code, stdout, _ = run_cli(
            capsys, "train-toy", "--task", "detector", "--out", str(out),
            "--metrics", str(metrics), "--epochs", "1", "--samples", "48",
            "--batch-size", "16",
        )
        assert code == 0
        summary = last_json(stdout)
        assert set(summary) == {"pnet", "rnet", "onet"}
        assert all(set(v) == {"epoch", "loss", "accuracy"} for v in summary.values())
        assert load_weights(out)  # file exists and parses
        assert "# stage: pnet" in metrics.read_text()

    def test_bad_config(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "train-toy", "--out", str(tmp_path / "w.mprw"), "--epochs", "0"
        )
        assert code == 1


class TestGradcheckCommand:
    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 0
        report = last_json(out)
        assert set(report) == {
            "loss_det", "loss_box", "loss_landmark", "loss_triplet",
            "layer_conv2d", "layer_fully_connected", "layer_prelu",
            "layer_maxpool", "layer_softmax", "layer_l2_normalize",
        }


class TestBenchCommand:
    def test_stats_output(self, art, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "weights": [art["det_w"], art["emb_w"]],
            "input": art["stream"],
            "gallery": art["gallery"],
            "chip_size": TOY_CHIP,
        }))
        code, out, _ = run_cli(capsys, "bench", "--config", str(cfg), "--frames", "3")
        assert code == 0
        stats = last_json(out)
        assert stats["frames"] == 3
        assert set(stats["total_ms"]) == {"mean", "median", "p95"}

    def test_config_must_name_inputs(self, art, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"weights": art["det_w"]}))
        assert run_cli(capsys, "bench", "--config", str(cfg))[0] == 1

    def test_config_bad_json(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text("{nope")
        assert run_cli(capsys, "bench", "--config", str(cfg))[0] == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("protect", "kids"),
            ("min_face", "20"),
            ("thresholds", "abc"),
            ("scale_factor", None),
            ("method", 3),
            ("chip_size", "x"),
            ("box_expansion", "a"),
            ("chip_size", 20),
            ("min_face", True),
            ("redact_on_tie", 1),
            ("threshold", float("nan")),
            ("box_expansion", float("inf")),
            ("thresholds", [0.6, 0.7]),
            ("thresholds", [0.6, "0.7", 0.7]),
            ("protect", ["child"]),
        ],
    )
    def test_malformed_value_exits_1(self, art, capsys, tmp_path, key, value):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "weights": [art["det_w"], art["emb_w"]],
            "input": art["stream"],
            "gallery": art["gallery"],
            "chip_size": TOY_CHIP,
            key: value,
        }))
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 1
        assert err.startswith("faceveil: ")


    @pytest.mark.parametrize("key", ["min_face_size", "protect "])
    def test_unknown_key_exits_1(self, art, capsys, tmp_path, key):
        # a misspelt setting must not run silently with its default
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "weights": [art["det_w"], art["emb_w"]],
            "input": art["stream"],
            "gallery": art["gallery"],
            "chip_size": TOY_CHIP,
            key: 80 if key == "min_face_size" else "none",
        }))
        code, _, err = run_cli(capsys, "bench", "--config", str(cfg))
        assert code == 1
        assert err.startswith("faceveil: ") and repr(key) in err


class TestPipelineConfigFrom:
    def test_defaults_come_from_the_dataclasses(self):
        assert pipeline_config_from({}) == PipelineConfig()

    def test_run_flags_and_bench_keys_agree(self):
        args = build_parser().parse_args([
            "run", "--weights", "w.mprw", "--input", "in", "--out-dir", "out",
            "--min-face", "24", "--scale-factor", "0.5", "--thresholds", "0.5,0.6,0.8",
            "--threshold", "0.25", "--chip-size", "32", "--method", "blur:2",
            "--protect", "all", "--box-expansion", "0.2", "--no-redact-ties",
        ])
        cfg = pipeline_config_from(_given(args))
        assert cfg == pipeline_config_from({
            "min_face": 24, "scale_factor": 0.5, "thresholds": [0.5, 0.6, 0.8],
            "threshold": 0.25, "chip_size": 32, "method": "blur:2",
            "protect": "all", "box_expansion": 0.2, "redact_on_tie": False,
        })
        assert cfg.detector == DetectorConfig(24, 0.5, (0.5, 0.6, 0.8))
        assert cfg.method == Blur(2.0)
        assert cfg.policy.labels == {CHILD, ADULT}
        assert not cfg.policy.redact_on_tie


class TestIterInput:
    def test_sorted_names(self, art):
        names = [name for name, _ in iter_input(art["portraits"])]
        assert names == sorted(art["labels"])
