"""Irreversible and keyed face obscuration on uint8 frames.

Three methods: pixelate (tile means, idempotent), Gaussian blur
(separable, edge-replicated inside the region), and keyed scramble
(pixel permutation plus XOR, exactly invertible with the key): scheme v2
sorts SHAKE-256 keys.  Keystreams come from hashlib only, never from
numpy's RNG.

Each method obscures one region (``obscure``); one region loop,
``_each_region``, runs it, or ``Scramble.restore``, over the clipped
boxes of a checked copy of the frame.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .imgio import check_frame


@dataclass(frozen=True)
class Pixelate:
    block: int = 8

    def __post_init__(self):
        if self.block < 1:
            raise ConfigError(f"pixelate block must be >= 1, got {self.block}")

    def obscure(self, region):
        """Each block x block tile (ragged at the far edges) set to its rounded mean."""
        (h, w, _), b = region.shape, self.block
        out = np.empty_like(region)
        for y in range(0, h, b):
            for x in range(0, w, b):
                tile = region[y : y + b, x : x + b]
                # float64 mean of equal values is exact, so a second pass is a no-op
                mean = tile.astype(np.float64).mean(axis=(0, 1))
                out[y : y + b, x : x + b] = np.rint(mean).astype(np.uint8)
        return out


# The separable kernel has 2 * ceil(3 * sigma) + 1 taps, so the cost grows
# with sigma; at the bound its 601 taps already span a whole VGA face box.
MAX_BLUR_SIGMA = 100.0


@dataclass(frozen=True)
class Blur:
    sigma: float = 2.5

    def __post_init__(self):
        if not 0 < self.sigma <= MAX_BLUR_SIGMA:  # also rejects NaN and infinity
            raise ConfigError(f"blur sigma must be in (0, {MAX_BLUR_SIGMA:g}], got {self.sigma}")

    def obscure(self, region):
        """Separable Gaussian blur, rows then columns, edges replicated inside the region."""
        k = gaussian_kernel(self.sigma)
        r = (k.size - 1) // 2
        img = region.astype(np.float64)
        img = np.pad(img, ((r, r), (0, 0), (0, 0)), mode="edge")
        rows = sum(img[i : i + region.shape[0]] * k[i] for i in range(k.size))
        rows = np.pad(rows, ((0, 0), (r, r), (0, 0)), mode="edge")
        out = sum(rows[:, i : i + region.shape[1]] * k[i] for i in range(k.size))
        return np.clip(np.rint(out), 0, 255).astype(np.uint8)


SCRAMBLE_VERSION = 2  # the scheme Scramble writes, recorded in its redaction log


def _keystream(key, shape):
    """Scheme v2 (permutation, (h*w, c) XOR pad) of an (h, w, c) region; see README.

    Without a tied key every sort gives the stable order, so the stable sort
    (about 5x slower) runs only on a tie.
    """
    n, c = shape[0] * shape[1], shape[2]
    seed = len(key).to_bytes(8, "little") + key + b"scramble2|%dx%dx%d" % shape
    stream = hashlib.shake_256(seed).digest(8 * n + c * n)
    sort_keys = np.frombuffer(stream, "<u8", count=n)
    perm = np.argsort(sort_keys)
    ordered = sort_keys[perm]
    if (ordered[1:] == ordered[:-1]).any():
        perm = np.argsort(sort_keys, kind="stable")
    return perm, np.frombuffer(stream, np.uint8, offset=8 * n).reshape(n, c)


@dataclass(frozen=True)
class Scramble:
    key: bytes

    def __post_init__(self):
        if not isinstance(self.key, bytes) or len(self.key) == 0:
            raise ConfigError("scramble key must be non-empty bytes")

    def obscure(self, region):
        """Permute the region's pixels, then XOR their bytes (scheme v2)."""
        perm, pad = _keystream(self.key, region.shape)
        shuffled = region.reshape(pad.shape)[perm]
        return np.bitwise_xor(shuffled, pad, out=shuffled).reshape(region.shape)

    def restore(self, region):
        """``obscure`` undone: XOR the bytes again, then put each pixel back."""
        perm, pad = _keystream(self.key, region.shape)
        out = np.empty_like(pad)
        out[perm] = region.reshape(pad.shape) ^ pad
        return out.reshape(region.shape)


@dataclass(frozen=True)
class RedactionPolicy:
    """Which classified faces get obscured and by how much extra margin.

    Faces whose label is in ``labels`` are redacted; a probe sitting
    exactly on the classification boundary counts as a tie and is always
    redacted too, since either call could be wrong.  Boxes grow by
    ``box_expansion`` of their size about the center before redaction so
    hairline leaks at the crop edge are covered.
    """

    labels: frozenset = frozenset({"child"})
    box_expansion: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        bad = self.labels - {"child", "adult"}
        if bad:
            raise ConfigError(f"unknown redaction labels {sorted(bad)}")
        if not 0 <= self.box_expansion < math.inf:  # also rejects NaN
            raise ConfigError(f"box expansion must be finite and >= 0, got {self.box_expansion}")


def parse_method(text):
    """CLI spelling -> method object: pixelate[:block] | blur[:sigma] | scramble:HEX."""
    name, _, arg = text.partition(":")
    try:
        if name == "pixelate":
            return Pixelate(int(arg)) if arg else Pixelate()
        if name == "blur":
            return Blur(float(arg)) if arg else Blur()
        if name == "scramble":
            if not arg:
                raise ConfigError("scramble needs a hex key, e.g. scramble:a1b2c3")
            return Scramble(bytes.fromhex(arg))
    except ValueError as e:
        raise ConfigError(f"bad argument for {name!r}: {e}") from None
    raise ConfigError(f"unknown denature method {name!r}")


def gaussian_kernel(sigma):
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def _clamp_box(box, height, width):
    """A float box with each edge clamped to the frame; +-inf edges land on its border."""
    return tuple(min(max(float(v), 0.0), side) for v, side in zip(box, (width, height) * 2))


def _clip_box(box, height, width):
    x1, y1, x2, y2 = _clamp_box(box, height, width)  # clamp before int()
    return math.floor(x1), math.floor(y1), math.ceil(x2), math.ceil(y2)


def _each_region(frame, boxes, obscure):
    """Copy the (H, W, 3) uint8 frame, then set each box to ``obscure(region)``.

    Boxes are clipped to the frame and applied in order, each to the
    pixels the boxes before it left; boxes that end up empty are skipped.
    """
    out = check_frame(frame).copy()
    h, w = out.shape[:2]
    for box in boxes:
        x1, y1, x2, y2 = _clip_box(box, h, w)
        if x2 > x1 and y2 > y1:
            out[y1:y2, x1:x2] = obscure(out[y1:y2, x1:x2])
    return out


def denature_regions(frame, boxes, method):
    """Return a copy of the (H, W, 3) uint8 frame with each box obscured by ``method``."""
    if not isinstance(method, (Pixelate, Blur, Scramble)):
        raise ConfigError(f"unknown denature method {method!r}")
    return _each_region(frame, boxes, method.obscure)


def descramble_regions(frame, boxes, key, version=SCRAMBLE_VERSION):
    """Exact inverse of Scramble(key) over the same boxes, in the logged scheme ``version``."""
    if version != SCRAMBLE_VERSION:
        raise ConfigError(
            f"unknown scramble version {version!r}; the one known scheme is {SCRAMBLE_VERSION}"
        )
    # undo in reverse order so stacked overlapping boxes unwind correctly
    return _each_region(frame, reversed(list(boxes)), Scramble(key).restore)


def expand_box(box, fraction):
    """Grow a box's width and height by ``fraction`` about its center."""
    x1, y1, x2, y2 = (float(v) for v in box)
    dx = (x2 - x1) * fraction / 2.0
    dy = (y2 - y1) * fraction / 2.0
    return (x1 - dx, y1 - dy, x2 + dx, y2 + dy)


def apply_policy(frame, faces, policy, method):
    """Redact the faces a policy selects; returns (frame copy, log).

    ``faces`` holds (box, label, score, tie) tuples.  Overlapping regions
    are applied in descending score order so the result is deterministic.
    The log lists one dict per redacted face with the original index, the
    expanded box clamped to the frame and the reason ("label" or "tie");
    a Scramble entry also names its scheme (``"scramble": 2``).
    Logged boxes are finite and cover exactly the pixels that were
    redacted, so ``descramble_regions`` with them restores the frame bit
    for bit.
    """
    selected = []
    for i, (box, label, score, tie) in enumerate(faces):
        if label is not None and label in policy.labels:
            reason = "label"
        elif tie:
            reason = "tie"
        else:
            continue
        grown = expand_box(box, policy.box_expansion)
        selected.append((-float(score), i, grown, label, reason))
    selected.sort(key=lambda s: (s[0], s[1]))
    out = denature_regions(frame, [s[2] for s in selected], method)
    h, w = out.shape[:2]
    scheme = {"scramble": SCRAMBLE_VERSION} if isinstance(method, Scramble) else {}
    log = [
        {"index": i, "box": list(_clamp_box(grown, h, w)), "label": label, "reason": reason,
         **scheme}
        for _, i, grown, label, reason in selected
    ]
    return out, log
