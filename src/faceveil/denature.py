"""Irreversible and keyed face obscuration on uint8 frames.

Three methods: pixelate (tile means, idempotent), Gaussian blur
(separable, edge-replicated inside the region), and keyed scramble
(pixel permutation plus XOR, both driven by a SHA-256 counter
keystream, exactly invertible with the key).  The keystream is built
from hashlib only, so outputs never depend on numpy's RNG internals.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Pixelate:
    block: int = 8

    def __post_init__(self):
        if self.block < 1:
            raise ConfigError(f"pixelate block must be >= 1, got {self.block}")


@dataclass(frozen=True)
class Blur:
    sigma: float = 2.5

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError(f"blur sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class Scramble:
    key: bytes

    def __post_init__(self):
        if not isinstance(self.key, bytes) or len(self.key) == 0:
            raise ConfigError("scramble key must be non-empty bytes")


@dataclass(frozen=True)
class RedactionPolicy:
    """Which classified faces get obscured and by how much extra margin.

    Faces whose label is in ``labels`` are redacted; a probe sitting
    exactly on the classification boundary counts as a tie and is
    redacted too when ``redact_on_tie`` is set (privacy-preferring
    default).  Boxes grow by ``box_expansion`` of their size about the
    center before redaction so hairline leaks at the crop edge are
    covered.
    """

    labels: frozenset = frozenset({"child"})
    redact_on_tie: bool = True
    box_expansion: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        bad = self.labels - {"child", "adult"}
        if bad:
            raise ConfigError(f"unknown redaction labels {sorted(bad)}")
        if self.box_expansion < 0:
            raise ConfigError(f"box expansion must be >= 0, got {self.box_expansion}")


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


def _pixelate_region(region, block):
    h, w, _ = region.shape
    out = np.empty_like(region)
    for y in range(0, h, block):
        for x in range(0, w, block):
            tile = region[y : y + block, x : x + block]
            # float64 mean of equal values is exact, so a second pass is a no-op
            mean = tile.astype(np.float64).mean(axis=(0, 1))
            out[y : y + block, x : x + block] = np.rint(mean).astype(np.uint8)
    return out


def gaussian_kernel(sigma):
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def _blur_region(region, sigma):
    k = gaussian_kernel(sigma)
    r = (k.size - 1) // 2
    img = region.astype(np.float64)
    img = np.pad(img, ((r, r), (0, 0), (0, 0)), mode="edge")
    rows = sum(img[i : i + region.shape[0]] * k[i] for i in range(k.size))
    rows = np.pad(rows, ((0, 0), (r, r), (0, 0)), mode="edge")
    out = sum(rows[:, i : i + region.shape[1]] * k[i] for i in range(k.size))
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


class _KeyStream:
    """Deterministic byte stream: SHA-256(key | tag | counter), counter LE u64."""

    def __init__(self, key, tag):
        self._prefix = bytes(key) + b"|" + tag + b"|"
        self._counter = 0
        self._buf = b""

    def take(self, n):
        if len(self._buf) < n:
            # join the digests once: a bytes += per digest is quadratic in n
            blocks = -(-(n - len(self._buf)) // 32)
            counters = range(self._counter, self._counter + blocks)
            self._buf += b"".join(
                hashlib.sha256(self._prefix + c.to_bytes(8, "little")).digest() for c in counters
            )
            self._counter += blocks
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def randint(self, bound):
        """Uniform int in [0, bound) by rejection sampling."""
        nbytes = max(1, (int(bound - 1).bit_length() + 7) // 8)
        space = 256**nbytes
        limit = (space // bound) * bound
        while True:
            r = int.from_bytes(self.take(nbytes), "little")
            if r < limit:
                return r % bound


def _permutation(n, key, shape):
    tag = b"perm|%dx%d" % shape
    ks = _KeyStream(key, tag)
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):  # Fisher-Yates, descending
        j = ks.randint(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _xor_bytes(flat, key, shape):
    ks = _KeyStream(key, b"xor|%dx%d" % shape)
    pad = np.frombuffer(ks.take(flat.size), dtype=np.uint8)
    return flat ^ pad


def _scramble_region(region, key, inverse=False):
    h, w, c = region.shape
    perm = _permutation(h * w, key, (h, w))
    flat = region.reshape(h * w, c)
    if inverse:
        unxored = _xor_bytes(flat.reshape(-1), key, (h, w)).reshape(h * w, c)
        out = np.empty_like(unxored)
        out[perm] = unxored
    else:
        shuffled = flat[perm]
        out = _xor_bytes(shuffled.reshape(-1), key, (h, w)).reshape(h * w, c)
    return out.reshape(h, w, c)


def _clip_box(box, height, width):
    x1 = max(0, int(math.floor(box[0])))
    y1 = max(0, int(math.floor(box[1])))
    x2 = min(width, int(math.ceil(box[2])))
    y2 = min(height, int(math.ceil(box[3])))
    return x1, y1, x2, y2


def denature_regions(frame, boxes, method):
    """Return a copy of the (H, W, 3) uint8 frame with each box obscured.

    Boxes are clipped to the frame; boxes that end up empty are skipped.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.dtype != np.uint8:
        raise ConfigError(f"expected (H,W,3) uint8 frame, got {frame.dtype} {frame.shape}")
    out = frame.copy()
    h, w = frame.shape[:2]
    for box in boxes:
        x1, y1, x2, y2 = _clip_box(box, h, w)
        if x2 <= x1 or y2 <= y1:
            continue
        region = out[y1:y2, x1:x2]
        if isinstance(method, Pixelate):
            out[y1:y2, x1:x2] = _pixelate_region(region, method.block)
        elif isinstance(method, Blur):
            out[y1:y2, x1:x2] = _blur_region(region, method.sigma)
        elif isinstance(method, Scramble):
            out[y1:y2, x1:x2] = _scramble_region(region, method.key)
        else:
            raise ConfigError(f"unknown denature method {method!r}")
    return out


def descramble_regions(frame, boxes, key):
    """Exact inverse of Scramble over the same boxes and key."""
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.dtype != np.uint8:
        raise ConfigError(f"expected (H,W,3) uint8 frame, got {frame.dtype} {frame.shape}")
    out = frame.copy()
    h, w = frame.shape[:2]
    # undo in reverse order so stacked overlapping boxes unwind correctly
    for box in reversed(list(boxes)):
        x1, y1, x2, y2 = _clip_box(box, h, w)
        if x2 <= x1 or y2 <= y1:
            continue
        out[y1:y2, x1:x2] = _scramble_region(out[y1:y2, x1:x2], key, inverse=True)
    return out


def pixelate_region(frame, box, block=8):
    return denature_regions(frame, [box], Pixelate(block))


def blur_region(frame, box, sigma=2.5):
    return denature_regions(frame, [box], Blur(sigma))


def scramble_region(frame, box, key):
    return denature_regions(frame, [box], Scramble(key))


def unscramble_region(frame, box, key):
    return descramble_regions(frame, [box], key)


def expand_box(box, fraction):
    """Grow a box's width and height by ``fraction`` about its center."""
    x1, y1, x2, y2 = (float(v) for v in box)
    dx = (x2 - x1) * fraction / 2.0
    dy = (y2 - y1) * fraction / 2.0
    return (x1 - dx, y1 - dy, x2 + dx, y2 + dy)


def apply_policy(frame, faces, policy, method):
    """Redact the faces a policy selects; returns (frame copy, log).

    ``faces`` holds (box, label, score, tie) tuples; trailing elements may
    be omitted (score defaults to 0, tie to False).  Overlapping regions
    are applied in descending score order so the result is deterministic.
    The log lists one dict per redacted face with the original index, the
    expanded box and the reason ("label" or "tie").  Logged boxes are the
    exact floats that were redacted, so ``descramble_regions`` with them
    restores the frame bit for bit.
    """
    frame = np.asarray(frame)
    selected = []
    for i, face in enumerate(faces):
        face = tuple(face)
        box, label = face[0], face[1]
        score = float(face[2]) if len(face) > 2 else 0.0
        tie = bool(face[3]) if len(face) > 3 else False
        if label is not None and label in policy.labels:
            reason = "label"
        elif tie and policy.redact_on_tie:
            reason = "tie"
        else:
            continue
        grown = expand_box(box, policy.box_expansion)
        selected.append((-float(score), i, grown, label, reason))
    selected.sort(key=lambda s: (s[0], s[1]))
    out = denature_regions(frame, [s[2] for s in selected], method)
    log = [
        {"index": i, "box": list(grown), "label": label, "reason": reason}
        for _, i, grown, label, reason in selected
    ]
    return out, log
