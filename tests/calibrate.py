"""Re-calibrate the detector's score cuts for the toy weights of the default seeds.

    python tests/calibrate.py

Trains the detector from the default TrainerConfig, then applies the
rule of test_calibration.py over CALIBRATION_SEEDS, starting from
DetectorConfig's default cuts: per stage, the cut is the largest
multiple of STEP that lies at least MARGIN below the lowest
best-candidate score of any truth face.  Stages 2 and 3 score what the
earlier cuts pass, so the rule repeats until the cuts stop moving; each
round prints its lowest scores and cuts.  Last, it prints the lowest
scores on HELD_OUT_SEEDS and whether each clears its cut by MARGIN, and
exits 1 unless all three do.  The final line also names the SHA-256 of
the trained detector's weight file, so a change that moves its bytes
records them with the cuts.  Takes a few minutes on one core.
"""

import hashlib
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from faceveil.detect import DetectorConfig  # noqa: E402
from faceveil.nn import save_weights  # noqa: E402
from faceveil.train import TrainerConfig, train_toy  # noqa: E402
from test_calibration import CALIBRATION_SEEDS, MARGIN, lowest_best_scores  # noqa: E402

STEP = 0.05  # the cuts' grid
HELD_OUT_SEEDS = range(7001, 7401)  # disjoint from the calibration and gate seeds
MAX_ROUNDS = 10


def cut_below(low):
    """The largest multiple of STEP at least MARGIN below low, and not below 0."""
    return max(0.0, round(math.floor(round((low - MARGIN) / STEP, 9)) * STEP, 2))


def weights_digest(weights):
    """SHA-256 of the .mprw file the weights save to."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "detector.mprw"
        save_weights(weights, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    weights = train_toy(TrainerConfig(task="detector")).weights
    cuts = DetectorConfig().thresholds
    for round_no in range(1, MAX_ROUNDS + 1):
        lowest = lowest_best_scores(weights, CALIBRATION_SEEDS, cuts)
        new = tuple(cut_below(low) for low in lowest)
        print(f"round {round_no}: at cuts {cuts} lowest {[round(x, 4) for x in lowest]}"
              f" -> cuts {new}", flush=True)
        if new == cuts:
            break
        cuts = new
    else:
        print(f"cuts still moving after {MAX_ROUNDS} rounds")
        return 1
    held = lowest_best_scores(weights, HELD_OUT_SEEDS, cuts)
    ok = [low >= cut + MARGIN for low, cut in zip(held, cuts)]
    print(f"held-out {HELD_OUT_SEEDS.start}-{HELD_OUT_SEEDS.stop - 1}: lowest"
          f" {[round(x, 4) for x in held]}, each >= cut + {MARGIN}: {ok}")
    print(f"cuts {cuts} for detector sha256 {weights_digest(weights)[:12]}")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
