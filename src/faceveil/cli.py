"""Command line front end.

Subcommands: detect (boxes only), run (detect + classify + redact,
closing with per-stage timing stats), build-gallery (embed labeled
chips), eval (score a report stream), train-toy (synthetic training) and
gradcheck (finite-difference audit).  Exit codes: 0 success, 1 usage or
configuration, 2 bad data, 3 violated invariant or degenerate input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .denature import RedactionPolicy, parse_method
from .detect import DetectorConfig, detect_faces
from .embed import align_crop
from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    FaceveilError,
    InvariantError,
    TrainingDiverged,
)
from .image import to_planar
from .imgio import iter_frames, load_image, save_ppm, text_lines
from .models import detector_nets
from .nn import WeightStore, load_weights
from .pipeline import (
    Pipeline,
    PipelineConfig,
    check_report,
    detection_entry,
    evaluate_reports,
    report_line,
    timing_stats,
)
from .recognize import (
    ADULT,
    CHILD,
    LABELS,
    gallery_build,
    load_gallery,
    save_gallery,
    save_roc,
)
from .train import TASKS, TrainerConfig, run_grad_checks, train_toy

PROTECT_CHOICES = {
    "child": frozenset({CHILD}),
    "adult": frozenset({ADULT}),
    "all": frozenset({CHILD, ADULT}),
    "none": frozenset(),
}
IMAGE_SUFFIXES = (".ppm", ".png")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route through ConfigError for exit 1
    def error(self, message):
        raise ConfigError(message)


def numbers(text):
    """Comma-separated command line numbers -> tuple of floats."""
    return tuple(float(v) for v in text.split(","))


def build_parser():
    parser = _Parser(prog="faceveil", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p):
        p.add_argument(
            "--weights",
            action="append",
            required=True,
            metavar="FILE",
            help="weight file; repeat to merge several (names must not collide)",
        )

    # pipeline settings default to None so that pipeline_config_from leaves
    # them to the config dataclasses
    def add_detector(p):
        p.add_argument("--min-face", type=int)
        cuts = ",".join(map(str, DetectorConfig.thresholds))
        p.add_argument("--thresholds", type=numbers, metavar="A,B,C",
                       help=f"per-stage face score cuts (default {cuts})")

    p = sub.add_parser("detect", help="write face boxes for a frame stream")
    add_weights(p)
    p.add_argument("--input", required=True, metavar="PATH", help="frame file or directory")
    p.add_argument("--out", required=True, metavar="FILE", help="one JSON line per frame")
    add_detector(p)

    p = sub.add_parser("run", help="detect, classify and redact faces in a frame stream")
    add_weights(p)
    p.add_argument("--input", required=True, metavar="PATH", help="frame file or directory")
    p.add_argument("--out-dir", required=True, metavar="DIR", help="processed frames land here")
    p.add_argument("--report", metavar="FILE", help="report stream (default OUT_DIR/report.jsonl)")
    p.add_argument("--gallery", metavar="FILE", help="reference gallery (.mprw)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--method", help="pixelate[:block] | blur[:sigma] | scramble:HEX")
    p.add_argument("--protect", choices=sorted(PROTECT_CHOICES))
    p.add_argument("--box-expansion", type=float)
    p.add_argument("--no-timing", action="store_true",
                   help="omit timing for byte-identical reports")
    add_detector(p)

    p = sub.add_parser("build-gallery", help="embed labeled face chips into a gallery file")
    add_weights(p)
    p.add_argument("--input", required=True, metavar="DIR", help="directory of chip images")
    p.add_argument("--labels", required=True, metavar="FILE", help="filename,label lines")
    p.add_argument("--out", required=True, metavar="FILE", help="gallery file to write (.mprw)")

    p = sub.add_parser("eval", help="score a report stream against truth labels")
    p.add_argument("--reports", required=True, metavar="FILE")
    p.add_argument("--labels", required=True, metavar="FILE", help="filename,label lines")
    p.add_argument("--roc", metavar="FILE", help="write threshold,fpr,tpr points here")

    # training settings default to None and are named after TrainerConfig
    # fields, so that _cmd_train_toy leaves unset ones to its defaults
    p = sub.add_parser("train-toy", help="run a toy training task on synthetic data")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--out", required=True, metavar="FILE", help="weight file to write")
    p.add_argument("--metrics", metavar="FILE", help="per-epoch CSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", dest="n_train", type=int, metavar="SAMPLES")

    p = sub.add_parser("gradcheck", help="finite-difference audit of losses and layers")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _merged_weights(paths):
    return WeightStore.merge(*(load_weights(p) for p in paths))


# command line key -> (PipelineConfig part, field, conversion)
_CONFIG_KEYS = {
    "min_face": ("detector", "min_face_size", None),
    "thresholds": ("detector", "thresholds", None),
    "threshold": ("pipeline", "threshold", None),
    "method": ("pipeline", "method", parse_method),
    "protect": ("policy", "labels", PROTECT_CHOICES.__getitem__),
    "box_expansion": ("policy", "box_expansion", None),
}


def pipeline_config_from(values, emit_timing=True):
    """Parsed ``run``/``detect`` flags -> the PipelineConfig of both commands.

    Keys absent from ``values`` keep the dataclass defaults, and keys
    outside ``_CONFIG_KEYS`` are not read, so a whole argparse namespace
    may be passed.  argparse has typed each value; a value out of range
    raises ConfigError from the config it is checked by.
    """
    parts = {"detector": {}, "pipeline": {}, "policy": {}}
    for key, (part, name, convert) in _CONFIG_KEYS.items():
        if key in values:
            value = values[key]
            parts[part][name] = convert(value) if convert else value
    return PipelineConfig(
        detector=DetectorConfig(**parts["detector"]),
        policy=RedactionPolicy(**parts["policy"]),
        emit_timing=emit_timing,
        **parts["pipeline"],
    )


def _given(args):
    """Command line values that were set, under their config key names."""
    return {k: v for k, v in vars(args).items() if v is not None}


def iter_input(path):
    """Yield (source name, frame) from a directory or a concatenated stream.

    Directory entries that fail to load are skipped with a warning so a
    single bad file never kills the run.
    """
    path = Path(path)
    if path.is_dir():
        for f in sorted(path.iterdir()):
            if f.suffix.lower() not in IMAGE_SUFFIXES:
                continue
            try:
                yield f.name, load_image(f)
            except (FaceveilError, OSError) as e:
                print(f"faceveil: skipping {f.name}: {e}", file=sys.stderr)
        return
    if not path.exists():
        raise DataError(f"input {path} does not exist")
    for i, frame in enumerate(iter_frames(path)):
        yield str(i), frame


def load_labels(path):
    """filename,label lines -> {filename: label}; a header line is tolerated."""
    truth = {}
    for ln, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, label = line.rpartition(",")
        name, label = name.strip(), label.strip()
        if ln == 1 and label.lower() == "label":
            continue
        if not sep or not name:
            raise DataError(f"{path}:{ln}: expected 'filename,label'")
        if label not in LABELS:
            raise DataError(f"{path}:{ln}: unknown label {label!r}")
        if name in truth:
            raise DataError(f"{path}:{ln}: duplicate entry for {name!r}")
        truth[name] = label
    if not truth:
        raise DataError(f"{path}: no labels")
    return truth


def _cmd_detect(args):
    cfg = pipeline_config_from(_given(args)).detector
    weights = _merged_weights(args.weights)
    for net in detector_nets().values():
        net.check_weights(weights)
    n_frames = n_faces = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for i, (source, frame) in enumerate(iter_input(args.input)):
            dets = detect_faces(to_planar(frame), weights, cfg)
            faces = [detection_entry(det) for det in dets]
            out.write(report_line({"frame": i, "source": source, "faces": faces}) + "\n")
            n_frames += 1
            n_faces += len(faces)
    print(json.dumps({"frames": n_frames, "faces": n_faces}))
    return 0


def _cmd_run(args):
    cfg = pipeline_config_from(_given(args), emit_timing=not args.no_timing)
    weights = _merged_weights(args.weights)
    gallery = load_gallery(args.gallery) if args.gallery else None
    pipe = Pipeline(weights, gallery, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = Path(args.report) if args.report else out_dir / "report.jsonl"
    n_frames = n_faces = n_redacted = 0
    timings = []
    sources = {}  # output stem -> the directory entry that took it
    with open(report_path, "w", encoding="utf-8") as rep:
        for i, (source, frame) in enumerate(iter_input(args.input)):
            if source.isdigit():
                name = f"frame_{i:05d}"  # stream frames: unique by their index
            else:
                name = Path(source).stem
                if name in sources:
                    raise DataError(
                        f"{sources[name]} and {source} would both be written to {name}.ppm"
                    )
                sources[name] = source
            out, report = pipe.process_frame(frame, i, source=source)
            save_ppm(out, out_dir / f"{name}.ppm")
            rep.write(report_line(report) + "\n")
            n_frames += 1
            n_faces += len(report["faces"])
            n_redacted += len(report["redactions"])
            if "timing_ms" in report:
                timings.append(report["timing_ms"])
    summary = {"frames": n_frames, "faces": n_faces, "redacted": n_redacted}
    if timings:
        summary["timing_ms"] = timing_stats(timings)
    print(json.dumps(summary))
    return 0


def _cmd_build_gallery(args):
    weights = _merged_weights(args.weights)
    truth = load_labels(args.labels)
    root = Path(args.input)
    chips, labels, names = [], [], []
    for name in sorted(truth):
        f = root / name
        if not f.exists():
            raise DataError(f"label file names missing chip {name!r}")
        img = to_planar(load_image(f))
        chips.append(align_crop(img, (0, 0, img.shape[2], img.shape[1])))
        labels.append(truth[name])
        names.append(name)
    gallery, failures = gallery_build(chips, labels, weights)
    for idx, msg in failures:
        print(f"faceveil: skipping {names[idx]}: {msg}", file=sys.stderr)
    if len(gallery) == 0:
        print("faceveil: warning: gallery is empty and cannot classify", file=sys.stderr)
    save_gallery(gallery, args.out)
    print(json.dumps({"entries": len(gallery), "skipped": len(failures)}))
    return 0


def _cmd_eval(args):
    reports = []
    for ln, line in text_lines(args.reports):
        if not line.strip():
            continue
        try:
            reports.append(check_report(json.loads(line)))
        except (json.JSONDecodeError, DataError) as e:
            raise DataError(f"{args.reports}:{ln}: {e}") from None
    result = evaluate_reports(reports, load_labels(args.labels))
    if args.roc:
        if result.roc is None:
            raise DataError("no classification scores to build a ROC from")
        save_roc(result.roc, args.roc)
    print(json.dumps(result.summary()))
    return 0


def _cmd_train_toy(args):
    settings = {f.name for f in fields(TrainerConfig)}
    config = TrainerConfig(**{k: v for k, v in _given(args).items() if k in settings})
    result = train_toy(config, weights_path=args.out, metrics_path=args.metrics)
    final = {}
    for stage, epoch, loss, acc in result.history:
        final[stage] = {"epoch": epoch, "loss": round(loss, 6), "accuracy": round(acc, 4)}
    print(json.dumps(final))
    return 0


def _cmd_gradcheck(args):
    report = run_grad_checks(args.seed)
    bounds = {name: 1e-6 if name in ("loss_box", "loss_landmark") else 1e-3 for name in report}
    print(json.dumps({name: f"{err:.3g}" for name, err in sorted(report.items())}))
    bad = {name: err for name, err in report.items() if err > bounds[name]}
    if bad:
        raise InvariantError(f"gradient checks failed: {bad}")
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "run": _cmd_run,
    "build-gallery": _cmd_build_gallery,
    "eval": _cmd_eval,
    "train-toy": _cmd_train_toy,
    "gradcheck": _cmd_gradcheck,
}


# error class -> exit code; an error takes the code of its nearest listed class
_EXIT_CODES = {
    ConfigError: 1,
    DataError: 2,
    OSError: 2,
    DegenerateInputError: 3,
    InvariantError: 3,
    TrainingDiverged: 3,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as e:
        print(f"faceveil: {e}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
