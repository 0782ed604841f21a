"""Build the benchmark's inputs in a process of their own.

    python3 perfbench/gen.py weights OUT_DIR
    python3 perfbench/gen.py inputs WORKLOAD SEED OUT_DIR EMBEDDER_WEIGHTS

``weights`` trains the toy detector and embedder from the default
TrainerConfig seeds (deterministic, so every build gives the same
bytes).  ``inputs`` writes a frame workload's PPM stream, gallery CSV
and ground truth.  run.py starts this script and waits for it, so the
memory that generation uses never shows in the measured process's peak.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import env


def build_weights(out_dir):
    from faceveil.train import TrainerConfig, train_toy

    for task in ("detector", "embedder"):
        train_toy(TrainerConfig(task=task), weights_path=out_dir / f"{task}.mprw")


def build_inputs(name, seed, out_dir, embedder_path):
    from faceveil.imgio import save_frames
    from faceveil.nn import load_weights
    from faceveil.recognize import save_gallery

    import workloads

    workload = workloads.FRAME_WORKLOADS[name]
    frames = workloads.make_frames(workload, seed)
    save_frames([frame for frame, _ in frames], out_dir / "stream.ppm")
    gallery = workloads.make_gallery(workload, seed, load_weights(embedder_path))
    save_gallery(gallery, out_dir / "gallery.csv")
    truth = [[{"box": list(box), "label": label} for box, label in faces] for _, faces in frames]
    (out_dir / "truth.json").write_text(json.dumps(truth))


def main(argv):
    env.prepare()
    if argv[:1] == ["weights"] and len(argv) == 2:
        build_weights(Path(argv[1]))
    elif argv[:1] == ["inputs"] and len(argv) == 5:
        build_inputs(argv[1], int(argv[2]), Path(argv[3]), Path(argv[4]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
