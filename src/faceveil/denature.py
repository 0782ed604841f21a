"""Irreversible and keyed face obscuration on uint8 frames.

Three methods: pixelate (tile means, idempotent), Gaussian blur
(separable, edge-replicated inside the region), and keyed scramble
(pixel permutation plus XOR, exactly invertible with the key): scheme v2
sorts SHAKE-256 keys; v1 (SHA-256 counter, Fisher-Yates) only decodes old
frames.  Keystreams come from hashlib only, never from numpy's RNG.

Each method obscures one region (``obscure``); one region loop,
``_each_region``, runs it, or the inverse scramble, over the clipped
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


def _unscramble(region, key):
    """Scramble(key).obscure undone: XOR the bytes again, then put each pixel back."""
    perm, pad = _keystream(key, region.shape)
    out = np.empty_like(pad)
    out[perm] = region.reshape(pad.shape) ^ pad
    return out.reshape(region.shape)


class _KeyStream:
    """Scheme v1 (decode only): SHA-256(key | tag | counter), counter LE u64."""

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


# most draws decoded per keystream read; bounds the decode buffers
_DRAW_CHUNK = 4096


def _permutation(n, key, shape):
    """Fisher-Yates over range(n), descending, by rejection sampling.

    The draw for index i reads the next max(1, ceil(bits(i) / 8))
    keystream bytes as a little-endian int r, and retries while r falls
    in the biased tail of its byte space; j = r % (i + 1).  Draws of one
    byte width are decoded together, never more chunks than draws are
    left at that width, so no byte past the last draw is read.
    """
    ks = _KeyStream(key, b"perm|%dx%d" % shape)
    perm = list(range(n))
    i = n - 1
    while i > 0:
        nbytes = max(1, (i.bit_length() + 7) // 8)
        space = 256**nbytes
        count = min(i - 256 ** (nbytes - 1) + 1, _DRAW_CHUNK)
        chunks = np.zeros((count, 8), dtype=np.uint8)
        chunks[:, :nbytes] = np.frombuffer(ks.take(count * nbytes), np.uint8).reshape(count, nbytes)
        for r in chunks.view("<u8").ravel().tolist():
            bound = i + 1
            if r < space - space % bound:
                j = r % bound
                perm[i], perm[j] = perm[j], perm[i]
                i -= 1
    return np.array(perm, dtype=np.int64)


def _unscramble_v1(region, key):
    """Undo a scheme v1 scramble: SHA-256 counter XOR, then Fisher-Yates."""
    h, w, c = region.shape
    pad = _KeyStream(key, b"xor|%dx%d" % (h, w)).take(region.size)
    unxored = region.reshape(h * w, c) ^ np.frombuffer(pad, np.uint8).reshape(h * w, c)
    out = np.empty_like(unxored)
    out[_permutation(h * w, key, (h, w))] = unxored
    return out.reshape(h, w, c)


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
    """Exact inverse of Scramble over the same boxes and key, in the logged scheme ``version``."""
    unscramble = {1: _unscramble_v1, 2: _unscramble}.get(version)
    if unscramble is None:
        raise ConfigError(f"unknown scramble version {version!r}; known: 1, 2")
    # undo in reverse order so stacked overlapping boxes unwind correctly
    return _each_region(frame, reversed(list(boxes)), lambda region: unscramble(region, key))


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
        elif tie and policy.redact_on_tie:
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
