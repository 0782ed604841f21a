"""End-to-end command line coverage: every subcommand plus the exit
code contract (1 config, 2 data, 3 invariant)."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import chip_batch
from faceveil import cli, train
from faceveil.cli import (
    _CONFIG_KEYS,
    _given,
    build_parser,
    iter_input,
    load_labels,
    main,
    pipeline_config_from,
)
from faceveil.denature import Blur, RedactionPolicy
from faceveil.detect import DetectorConfig
from faceveil.image import to_frame
from faceveil.imgio import load_ppm, save_frames, save_ppm
from faceveil.models import embedding_net
from faceveil.nn import WeightStore, load_weights, save_weights
from faceveil.pipeline import PipelineConfig, report_line
from faceveil.recognize import ADULT, CHILD, load_gallery, save_gallery
from faceveil.synth import make_portrait
from faceveil.train import TrainerConfig, TrainResult


@pytest.fixture(scope="module")
def art(tmp_path_factory, detector_training, embedder_training, gallery20):
    """Weight files, a gallery file, portrait dirs and a frame stream."""
    root = tmp_path_factory.mktemp("cli")
    det_w = root / "det.mprw"
    emb_w = root / "emb.mprw"
    save_weights(detector_training["result"].weights, det_w)
    save_weights(embedder_training["result"].weights, emb_w)
    gal = root / "gallery.mprw"
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


def _reject_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


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

    def test_diverged_training_exits_3_without_weight_file(self, capsys, tmp_path, monkeypatch):
        # a finite loss before the one step, then float32 overflow: no file is left
        monkeypatch.setattr(train, "LEARNING_RATE", 1e300)
        out = tmp_path / "w.mprw"
        code, _, err = run_cli(capsys, "train-toy", "--task", "embedder",
                               "--samples", "8", "--epochs", "1", "--out", str(out))
        assert code == 3
        assert "faceveil: embedder: trained tensor" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("flag, value", [
        ("--min-face", "5"), ("--thresholds", "nan,0.7,0.7"),
    ])
    def test_bad_setting_exits_1(self, art, capsys, tmp_path, flag, value):
        out_file = tmp_path / "o.jsonl"
        code, out, err = run_cli(
            capsys, "detect", "--weights", art["det_w"], "--input", art["stream"],
            "--out", str(out_file), flag, value,
        )
        assert code == 1
        assert err.startswith("faceveil: ") and out == ""
        assert not out_file.exists()

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

    def test_bench_is_not_a_command(self, capsys):
        # per-stage stats close every timed run; there is no second timed loop
        code, _, err = run_cli(capsys, "bench", "--config", "b.json")
        assert code == 1
        assert err.startswith("faceveil: ") and "invalid choice" in err and "bench" in err


class TestRun:
    def test_full_pipeline(self, art, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"],
            "--input", str(art["portraits"]), "--out-dir", str(out_dir),
        )
        assert code == 0
        summary = last_json(out)
        assert set(summary) == {"frames", "faces", "redacted", "timing_ms"}
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
            "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(out_dir),
            "--method", "scramble:6b6579", "--protect", "all",
        )
        assert code == 0
        assert (out_dir / "frame_00000.ppm").exists()
        assert (out_dir / "frame_00001.ppm").exists()
        assert last_json(out)["redacted"] >= 1

    def test_outputs_sharing_a_stem_exit_2(self, art, capsys, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        for src, name in (("p0.ppm", "a.PPM"), ("p1.ppm", "a.ppm")):
            (frames / name).write_bytes((art["portraits"] / src).read_bytes())
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--input", str(frames),
            "--out-dir", str(out_dir), "--protect", "none", "--no-timing",
        )
        assert code == 2
        assert "a.PPM and a.ppm would both be written to a.ppm" in err
        # the first frame's output stands; the second is never written over it
        assert sorted(p.name for p in out_dir.glob("*.ppm")) == ["a.ppm"]
        np.testing.assert_array_equal(
            load_ppm(out_dir / "a.ppm"), load_ppm(art["portraits"] / "p0.ppm")
        )

    def test_closing_line_carries_stage_stats(self, art, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(out_dir),
        )
        assert code == 0
        stats = last_json(out)["timing_ms"]
        reps = [json.loads(ln) for ln in (out_dir / "report.jsonl").read_text().splitlines()]
        assert len(reps) == 2
        assert set(stats) == {"detect_ms", "embed_ms", "classify_ms", "denature_ms", "total_ms"}
        for stage, entry in stats.items():
            assert set(entry) == {"mean", "median", "p95"}
            assert entry["median"] <= entry["p95"]
            values = np.array([r["timing_ms"][stage] for r in reps])
            assert entry == {
                "mean": float(values.mean()),
                "median": float(np.median(values)),
                "p95": float(np.percentile(values, 95)),
            }

    def test_no_timing_reports_are_reproducible(self, art, capsys, tmp_path):
        texts, outs = [], []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            code, out, _ = run_cli(
                capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
                "--gallery", art["gallery"],
                "--input", art["stream"], "--out-dir", str(out_dir), "--no-timing",
            )
            assert code == 0
            texts.append((out_dir / "report.jsonl").read_bytes())
            outs.append(out)
        assert texts[0] == texts[1]
        assert b"timing_ms" not in texts[0]
        assert outs[0] == outs[1]
        assert set(last_json(outs[0])) == {"frames", "faces", "redacted"}

    def test_no_frames_no_timing(self, art, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--input", str(empty),
            "--out-dir", str(tmp_path / "o"), "--protect", "none",
        )
        assert code == 0
        assert last_json(out) == {"frames": 0, "faces": 0, "redacted": 0}

    @pytest.mark.parametrize("flag, value", [
        ("--threshold", "nan"), ("--threshold", "inf"),
        ("--box-expansion", "nan"), ("--box-expansion", "inf"),
        ("--thresholds", "0.6,0.7"), ("--thresholds", "nan,0.7,0.7"), ("--thresholds", "abc"),
        ("--min-face", "5"), ("--protect", "kids"), ("--method", "3"),
    ])
    def test_bad_setting_exits_1(self, art, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(out_dir), flag, value,
        )
        assert code == 1
        assert err.startswith("faceveil: ")
        assert "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()

    def test_face_box_without_pixels_exits_3(self, art, toy_weights, capsys, tmp_path):
        # O-Net offsets of 200 box widths move every final box off the frame,
        # so the face chip holds no pixel: the run stops before the frame is written
        weights = dict(toy_weights)
        weights["onet.head_box.b"] = np.array([200, 0, 200, 0], dtype=np.float32)
        crafted = tmp_path / "offside.mprw"
        save_weights(weights, crafted)
        out_dir = tmp_path / "o"
        code, _, err = run_cli(
            capsys, "run", "--weights", str(crafted), "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(out_dir),
        )
        assert code == 3
        assert err.startswith("faceveil: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(out_dir.glob("*.ppm")) == []

    def test_non_finite_weights_exit_2(self, art, capsys, tmp_path):
        weights = dict(load_weights(art["det_w"]))
        weights["rnet.fc1.w"] = weights["rnet.fc1.w"].copy()
        weights["rnet.fc1.w"].flat[0] = np.nan
        bad = tmp_path / "nan.mprw"
        bad.write_bytes(oracles.mprw_bytes(weights))  # save_weights refuses it
        code, _, err = run_cli(
            capsys, "run", "--weights", str(bad), "--weights", art["emb_w"],
            "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2  # rejected at load, before any frame is read
        assert "rnet.fc1.w" in err and "non-finite" in err

    @pytest.mark.parametrize("method", ["blur:inf", "blur:1e300"])
    def test_unbounded_blur_exits_1(self, art, capsys, tmp_path, method):
        code, _, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(tmp_path / "o"), "--method", method,
        )
        assert code == 1
        assert err.startswith("faceveil: ") and "sigma" in err

    def test_overflowing_box_expansion_covers_frame(self, art, capsys, tmp_path):
        # 1e308 is finite, but the grown box is not: it is clamped to the frame
        out_dir = tmp_path / "o"
        code, out, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--gallery", art["gallery"],
            "--input", art["stream"], "--out-dir", str(out_dir), "--protect", "all",
            "--method", "pixelate:64", "--box-expansion", "1e308",
        )
        assert code == 0
        assert last_json(out)["redacted"] >= 1
        reps = [json.loads(ln, parse_constant=_reject_constant)
                for ln in (out_dir / "report.jsonl").read_text().splitlines()]
        for i, rep in enumerate(reps):
            if rep["redactions"]:  # one 64 px tile over the whole 64x64 frame
                frame = load_ppm(out_dir / f"frame_{i:05d}.ppm")
                assert (frame == frame[0, 0]).all()

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
        "--gallery", art["gallery"],
        "--input", str(art["portraits"]), "--out-dir", str(out_dir),
    ])
    assert code == 0
    return out_dir / "report.jsonl"


class TestGalleryEvalFlow:
    def test_build_gallery(self, art, chips_dir, capsys, tmp_path):
        out = tmp_path / "g.mprw"
        code, stdout, _ = run_cli(
            capsys, "build-gallery", "--weights", art["emb_w"],
            "--input", str(chips_dir), "--labels", str(chips_dir / "labels.csv"),
            "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout) == {"entries": 4, "skipped": 0}
        gallery = load_gallery(out)
        assert len(gallery) == 4

    def test_chip_size_the_weights_do_not_fit_exits_1(self, chips_dir, capsys, tmp_path):
        # embedder weights for 48 px chips: the 32 px chips do not fit embed.fc1
        emb_w = tmp_path / "emb48.mprw"
        save_weights(embedding_net(48).init_weights(np.random.default_rng(0)), emb_w)
        out = tmp_path / "g.mprw"
        code, stdout, err = run_cli(
            capsys, "build-gallery", "--weights", str(emb_w),
            "--input", str(chips_dir), "--labels", str(chips_dir / "labels.csv"),
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("faceveil: embed.fc1: ") and "skipping" not in err
        assert stdout == "" and not out.exists()

    def test_default_commands_work_together(self, art, chips_dir, capsys, tmp_path):
        # training, gallery and run share the one chip size
        emb_w, gallery, out_dir = tmp_path / "emb.mprw", tmp_path / "g.mprw", tmp_path / "o"
        assert run_cli(capsys, "train-toy", "--task", "embedder", "--samples", "8",
                       "--epochs", "1", "--out", str(emb_w))[0] == 0
        code, stdout, _ = run_cli(
            capsys, "build-gallery", "--weights", str(emb_w), "--input", str(chips_dir),
            "--labels", str(chips_dir / "labels.csv"), "--out", str(gallery),
        )
        assert code == 0
        assert last_json(stdout) == {"entries": 4, "skipped": 0}
        code, stdout, _ = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", str(emb_w),
            "--gallery", str(gallery), "--input", art["stream"], "--out-dir", str(out_dir),
        )
        assert code == 0
        assert last_json(stdout)["frames"] == 2

    def test_missing_chip_listed(self, art, chips_dir, capsys, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("ghost.ppm,child\n")
        code, _, err = run_cli(
            capsys, "build-gallery", "--weights", art["emb_w"],
            "--input", str(chips_dir), "--labels", str(labels),
            "--out", str(tmp_path / "g.mprw"),
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
        assert 0.0 <= summary["detection_rate"] <= 1.0
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
        # the fixture gallery with a lone 0xEF byte appended to its note
        gallery = tmp_path / "g.mprw"
        store = load_weights(art["gallery"])
        save_weights({**store, "gallery.note": np.append(store["gallery.note"], 0xEF)}, gallery)
        code, _, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--input", art["stream"], "--out-dir", str(tmp_path / "out"),
            "--gallery", str(gallery),
        )
        assert code == 2
        assert "g.mprw: note is not UTF-8" in err

    @pytest.mark.parametrize("bad", ["weights", "empty"])
    def test_run_non_gallery_file_exits_2(self, art, capsys, tmp_path, bad):
        # a detector weight file is a valid .mprw file, but not a gallery
        gallery = Path(art["det_w"]) if bad == "weights" else tmp_path / "empty.mprw"
        if bad == "empty":
            gallery.write_bytes(b"")
        code, _, err = run_cli(
            capsys, "run", "--weights", art["det_w"], "--weights", art["emb_w"],
            "--input", art["stream"], "--out-dir", str(tmp_path / "out"),
            "--gallery", str(gallery),
        )
        assert code == 2
        assert gallery.name in err
        if bad == "weights":
            assert "unexpected tensor" in err

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

    @pytest.mark.parametrize(
        "flags, want",
        [([], {}), (["--epochs", "2", "--samples", "8", "--task", "embedder"],
                    {"epochs": 2, "n_train": 8, "task": "embedder"})],
    )
    def test_unset_flags_keep_config_defaults(self, capsys, tmp_path, monkeypatch, flags, want):
        seen = []

        def fake_train_toy(config, **_):
            seen.append(config)
            return TrainResult(WeightStore({}))

        monkeypatch.setattr(cli, "train_toy", fake_train_toy)
        code, _, _ = run_cli(capsys, "train-toy", "--out", str(tmp_path / "w.mprw"), *flags)
        assert code == 0
        assert seen == [TrainerConfig(**want)]

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--seed", "-1", "seed")],
    )
    def test_bad_setting_exits_1_without_weight_file(self, capsys, tmp_path, flag, value, named):
        out = tmp_path / "w.mprw"
        code, _, err = run_cli(capsys, "train-toy", "--out", str(out), "--samples", "8",
                               "--epochs", "1", flag, value)
        assert code == 1
        assert err.startswith(f"faceveil: {named} must be")
        assert not out.exists()

    def test_run_that_scores_no_minibatch_exits_1_without_weight_file(self, capsys, tmp_path):
        # one chip holds no triplet, so the only epoch takes no SGD step
        out = tmp_path / "one.mprw"
        code, stdout, err = run_cli(capsys, "train-toy", "--task", "embedder",
                                    "--samples", "1", "--epochs", "1", "--out", str(out))
        assert code == 1
        assert err.startswith("faceveil: embed: epoch 1 ") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()


class TestGradcheckCommand:
    def test_negative_seed_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "gradcheck", "--seed", "-1")
        assert code == 1
        assert err.startswith("faceveil: ") and "seed" in err

    def test_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 0
        report = last_json(out)
        assert set(report) == {
            "loss_det", "loss_box", "loss_landmark", "loss_triplet",
            "layer_conv2d", "layer_fully_connected", "layer_prelu",
            "layer_maxpool", "layer_softmax", "layer_l2_normalize",
        }


class TestPipelineConfigFrom:
    def test_defaults_come_from_the_dataclasses(self):
        assert pipeline_config_from({}) == PipelineConfig()

    def test_run_flags_and_detect_flags_agree(self):
        detector_flags = ["--min-face", "24", "--thresholds", "0.5,0.6,0.8"]
        args = build_parser().parse_args([
            "run", "--weights", "w.mprw", "--input", "in", "--out-dir", "out",
            *detector_flags,
            "--threshold", "0.25", "--method", "blur:2",
            "--protect", "all", "--box-expansion", "0.2",
        ])
        detect_args = build_parser().parse_args([
            "detect", "--weights", "w.mprw", "--input", "in", "--out", "o.jsonl",
            *detector_flags,
        ])
        cfg = pipeline_config_from(_given(args))
        assert pipeline_config_from(_given(detect_args)).detector == cfg.detector
        assert cfg.detector == DetectorConfig(24, (0.5, 0.6, 0.8))
        assert cfg.threshold == 0.25
        assert cfg.method == Blur(2.0)
        assert cfg.policy == RedactionPolicy(frozenset({CHILD, ADULT}), 0.2)


    def test_every_setting_has_a_key(self):
        # a field no command can set is a knob nobody turns; chip_size stays
        # a field only because perfbench builds its PipelineConfig with it
        reached = {(part, name) for part, name, _ in _CONFIG_KEYS.values()}
        fixed = {"detector", "policy", "emit_timing", "chip_size"}
        settable = {("detector", f.name) for f in fields(DetectorConfig)}
        settable |= {("policy", f.name) for f in fields(RedactionPolicy)}
        settable |= {("pipeline", f.name) for f in fields(PipelineConfig) if f.name not in fixed}
        assert reached == settable


_REMOVED_FLAGS = [
    ("detect", ["--scale-factor", "0.5"]),
    ("run", ["--scale-factor", "0.5"]),
    ("run", ["--no-redact-ties"]),
    ("run", ["--chip-size", "32"]),
    ("build-gallery", ["--chip-size", "32"]),
    ("train-toy", ["--lr", "0.03"]),
    ("train-toy", ["--batch-size", "32"]),
    ("train-toy", ["--margin", "0.2"]),
    ("train-toy", ["--chip-size", "32"]),
]


@pytest.mark.parametrize("command, removed", _REMOVED_FLAGS,
                         ids=[f"{command} {removed[0]}" for command, removed in _REMOVED_FLAGS])
def test_fixed_settings_are_not_flags(art, chips_dir, capsys, tmp_path, command, removed):
    # the score cuts were calibrated on one pyramid step, a tie is always
    # redacted, and the embedder trains once, at fixed SGD settings, for
    # the one chip size that every command uses: none of them is a setting
    out_path = tmp_path / "out"
    frames = ["--input", art["stream"]]
    required = {
        "detect": ["--weights", art["det_w"], *frames, "--out"],
        "run": ["--weights", art["det_w"], *frames, "--out-dir"],
        "build-gallery": ["--weights", art["emb_w"], "--input", str(chips_dir),
                          "--labels", str(chips_dir / "labels.csv"), "--out"],
        "train-toy": ["--out"],
    }[command]
    code, out, err = run_cli(capsys, command, *required, str(out_path), *removed)
    assert code == 1
    assert err == f"faceveil: unrecognized arguments: {' '.join(removed)}\n"
    assert out == "" and not out_path.exists()


def test_settings_surface():
    # every config field and command line option, listed: a new knob must be
    # added here, and a knob that no caller turns belongs in a constant
    config_fields = {
        DetectorConfig: ["min_face_size", "thresholds"],
        RedactionPolicy: ["labels", "box_expansion"],
        PipelineConfig: ["detector", "chip_size", "threshold", "method", "policy", "emit_timing"],
        TrainerConfig: ["task", "epochs", "seed", "n_train"],
    }
    for config, names in config_fields.items():
        assert [f.name for f in fields(config)] == names, config.__name__
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        command: [opt for a in p._actions for opt in a.option_strings
                  if opt.startswith("--") and opt != "--help"]
        for command, p in sub.choices.items()
    }
    detector = ["--min-face", "--thresholds"]
    assert options == {
        "detect": ["--weights", "--input", "--out", *detector],
        "run": ["--weights", "--input", "--out-dir", "--report", "--gallery", "--threshold",
                "--method", "--protect", "--box-expansion", "--no-timing", *detector],
        "build-gallery": ["--weights", "--input", "--labels", "--out"],
        "eval": ["--reports", "--labels", "--roc"],
        "train-toy": ["--task", "--out", "--metrics", "--epochs", "--seed", "--samples"],
        "gradcheck": ["--seed"],
    }


class TestIterInput:
    def test_sorted_names(self, art):
        names = [name for name, _ in iter_input(art["portraits"])]
        assert names == sorted(art["labels"])


def test_readme_commands_table_matches_parser():
    # a deleted or added subcommand must not leave the docs stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Commands", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", table, flags=re.M))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_readme_command_lines_and_flags_match_parser():
    # a deleted or renamed flag must not leave a README line that fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parts = readme.split("```")
    commands = [
        shlex.split(line, comments=True)
        for block in parts[1::2]
        for line in block.replace("\\\n", " ").splitlines()
        if line.lstrip().startswith("faceveil ")
    ]
    assert len(commands) >= 4  # the quick start's four commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a line the parser refuses raises ConfigError
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "".join(parts[0::2])))
    assert named and named <= accepted, named - accepted


def test_readme_settings_table_matches_defaults():
    # a changed default must not leave the docs stale: each default cell,
    # given as its flag, must build the default PipelineConfig
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("A flag left out keeps its default:", 1)[1].split("\n\n", 2)[1]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| `--")]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt: a for a in sub.choices["run"]._actions for opt in a.option_strings
             if a.dest in _CONFIG_KEYS}
    run = ["run", "--weights", "w.mprw", "--input", "in", "--out-dir", "out"]
    documented = set()
    for flag_cell, _, default_cell in rows:
        flag = flag_cell.strip("`").split()[0]
        default = re.match(r"`([^`]+)`|(\S+)", default_cell)
        value = default[1] or default[2]
        documented.add(flag)
        args = parser.parse_args([*run, flag, value])
        assert pipeline_config_from(_given(args)) == PipelineConfig(), flag
    assert documented == set(flags)
