"""Command line front end.

Subcommands: detect (boxes only), run (detect + classify + redact),
build-gallery (embed labeled chips), eval (score a report stream),
train-toy (synthetic training), gradcheck (finite-difference audit) and
bench (per-stage timing).  Exit codes: 0 success, 1 usage or
configuration, 2 bad data, 3 violated runtime invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .denature import RedactionPolicy, parse_method
from .detect import DetectorConfig, detect_faces
from .embed import align_crop
from .errors import ConfigError, DataError, FaceveilError, InvariantError, TrainingDiverged
from .image import to_planar
from .imgio import iter_frames, load_image, save_ppm
from .models import detector_nets
from .nn import WeightStore, load_weights
from .pipeline import (
    Pipeline,
    PipelineConfig,
    bench,
    detection_entry,
    evaluate_reports,
    report_line,
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
_TC = TrainerConfig()


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route through ConfigError for exit 1
    def error(self, message):
        raise ConfigError(message)


def numbers(text):
    """Comma-separated command line numbers -> list of floats."""
    return [float(v) for v in text.split(",")]


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
        p.add_argument("--scale-factor", type=float)
        p.add_argument("--thresholds", type=numbers, metavar="A,B,C",
                       help="per-stage face score cuts")

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
    p.add_argument("--gallery", metavar="FILE", help="reference gallery file")
    p.add_argument("--threshold", type=float)
    p.add_argument("--chip-size", type=int)
    p.add_argument("--method", help="pixelate[:block] | blur[:sigma] | scramble:HEX")
    p.add_argument("--protect", choices=sorted(PROTECT_CHOICES))
    p.add_argument("--box-expansion", type=float)
    p.add_argument("--no-redact-ties", dest="redact_on_tie", action="store_false", default=None)
    p.add_argument("--no-timing", action="store_true",
                   help="omit timing for byte-identical reports")
    add_detector(p)

    p = sub.add_parser("build-gallery", help="embed labeled face chips into a gallery file")
    add_weights(p)
    p.add_argument("--input", required=True, metavar="DIR", help="directory of chip images")
    p.add_argument("--labels", required=True, metavar="FILE", help="filename,label lines")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--chip-size", type=int, default=PipelineConfig.chip_size)

    p = sub.add_parser("eval", help="score a report stream against truth labels")
    p.add_argument("--reports", required=True, metavar="FILE")
    p.add_argument("--labels", required=True, metavar="FILE", help="filename,label lines")
    p.add_argument("--roc", metavar="FILE", help="write threshold,fpr,tpr points here")

    p = sub.add_parser("train-toy", help="run a toy training task on synthetic data")
    p.add_argument("--task", choices=TASKS, default="detector")
    p.add_argument("--out", required=True, metavar="FILE", help="weight file to write")
    p.add_argument("--metrics", metavar="FILE", help="per-epoch CSV")
    p.add_argument("--epochs", type=int, default=_TC.epochs)
    p.add_argument("--lr", type=float, default=_TC.learning_rate)
    p.add_argument("--batch-size", type=int, default=_TC.batch_size)
    p.add_argument("--margin", type=float, default=_TC.margin)
    p.add_argument("--seed", type=int, default=_TC.seed)
    p.add_argument("--samples", type=int, default=_TC.n_train)
    p.add_argument("--chip-size", type=int, default=_TC.chip_size)

    p = sub.add_parser("gradcheck", help="finite-difference audit of losses and layers")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="per-stage latency stats over repeated frames")
    p.add_argument("--config", required=True, metavar="FILE", help="pipeline config JSON")
    p.add_argument("--frames", type=int, default=0,
                   help="benchmark this many frames, cycling the input (0 = one pass)")
    return parser


def _merged_weights(paths):
    return WeightStore.merge(*(load_weights(p) for p in paths))


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _checked(key, value, kind):
    """``value`` as ``kind``: int, float, bool, str, or tuple for three floats."""
    if kind is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ConfigError(f"{key} needs three numbers, got {value!r}")
        return tuple(_checked(key, v, float) for v in value)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _protected(name):
    if name not in PROTECT_CHOICES:
        raise ConfigError(f"protect must be one of {', '.join(sorted(PROTECT_CHOICES))}, got {name!r}")
    return PROTECT_CHOICES[name]


# config key -> (PipelineConfig part, field, value kind, conversion)
_CONFIG_KEYS = {
    "min_face": ("detector", "min_face_size", int, None),
    "scale_factor": ("detector", "scale_factor", float, None),
    "thresholds": ("detector", "thresholds", tuple, None),
    "chip_size": ("pipeline", "chip_size", int, None),
    "threshold": ("pipeline", "threshold", float, None),
    "method": ("pipeline", "method", str, parse_method),
    "protect": ("policy", "labels", str, _protected),
    "redact_on_tie": ("policy", "redact_on_tie", bool, None),
    "box_expansion": ("policy", "box_expansion", float, None),
}


def pipeline_config_from(values, emit_timing=True):
    """Bench-config mapping -> the PipelineConfig of every command.

    Keys absent from ``values`` keep the dataclass defaults and unknown
    keys are ignored.  A value of the wrong type or range raises
    ConfigError.
    """
    parts = {"detector": {}, "pipeline": {}, "policy": {}}
    for key, (part, name, kind, convert) in _CONFIG_KEYS.items():
        if key in values:
            value = _checked(key, values[key], kind)
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
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
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
    nets = detector_nets()
    for net in nets.values():
        net.check_weights(weights)
    n_frames = n_faces = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for i, (source, frame) in enumerate(iter_input(args.input)):
            dets = detect_faces(to_planar(frame), weights, cfg, nets)
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
    with open(report_path, "w", encoding="utf-8") as rep:
        for i, (source, frame) in enumerate(iter_input(args.input)):
            out, report = pipe.process_frame(frame, i, source=source)
            name = Path(source).stem if not source.isdigit() else f"frame_{i:05d}"
            save_ppm(out, out_dir / f"{name}.ppm")
            rep.write(report_line(report) + "\n")
            n_frames += 1
            n_faces += len(report["faces"])
            n_redacted += len(report["redactions"])
    print(json.dumps({"frames": n_frames, "faces": n_faces, "redacted": n_redacted}))
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
        chips.append(align_crop(img, (0, 0, img.shape[2], img.shape[1]), args.chip_size))
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
    with open(args.reports, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                reports.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise DataError(f"{args.reports}:{ln}: {e}") from None
    result = evaluate_reports(reports, load_labels(args.labels))
    if args.roc:
        if result.roc is None:
            raise DataError("no classification scores to build a ROC from")
        save_roc(result.roc, args.roc)
    print(json.dumps(result.summary()))
    return 0


def _cmd_train_toy(args):
    config = TrainerConfig(
        task=args.task,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        margin=args.margin,
        seed=args.seed,
        n_train=args.samples,
        chip_size=args.chip_size,
    )
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


def _cmd_bench(args):
    with open(args.config, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise DataError(f"{args.config}: {e}") from None
    if not isinstance(raw, dict) or "weights" not in raw or "input" not in raw:
        raise ConfigError(f"{args.config} must be a JSON object with weights and input")
    paths = raw["weights"] if isinstance(raw["weights"], list) else [raw["weights"]]
    for key, value in [("weights", p) for p in paths] + [("input", raw["input"])]:
        _checked(key, value, str)
    # without a gallery nothing can be classified, so protect no label
    cfg = pipeline_config_from({"protect": "child" if raw.get("gallery") else "none", **raw})
    weights = _merged_weights(paths)
    gallery = load_gallery(_checked("gallery", raw["gallery"], str)) if raw.get("gallery") else None
    pipe = Pipeline(weights, gallery, cfg)
    frames = [frame for _, frame in iter_input(raw["input"])]
    if not frames:
        raise DataError(f"no frames in {raw['input']}")
    if args.frames > 0:
        frames = [frames[i % len(frames)] for i in range(args.frames)]
    print(json.dumps(bench(frames, pipe)))
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "run": _cmd_run,
    "build-gallery": _cmd_build_gallery,
    "eval": _cmd_eval,
    "train-toy": _cmd_train_toy,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"faceveil: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"faceveil: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"faceveil: {e}", file=sys.stderr)
        return 2
    except (InvariantError, TrainingDiverged) as e:
        print(f"faceveil: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
