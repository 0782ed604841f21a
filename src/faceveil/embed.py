"""Face chips and embeddings.

A chip is the square detection box cut out of the frame, resized to the
embedder's input size and normalized to the network input range.
Embeddings come out of the net already L2-normalized; a unit-norm check
still runs as a cheap invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError
from .image import crop_resize, normalize_pixels
from .models import embedding_net

CHIP_SIZE = 160
NORM_TOL = 1e-3


@dataclass(frozen=True)
class FaceChip:
    """Normalized pixels of one cropped face plus where it came from.

    Pixel values are (v - 127.5) / 128 of the original 0..255 bytes, so
    they lie strictly inside [-1, 1] (255 maps to 0.99609375).
    """

    pixels: np.ndarray  # (3, S, S) float32 in [-1, 1]
    box: tuple  # (x1, y1, x2, y2) in frame coordinates

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[0] != 3:
            raise ConfigError(f"expected (3,S,S) chip pixels, got shape {p.shape}")
        if p.size and float(np.abs(p).max()) > 1.0:
            raise InvariantError("chip pixels exceed [-1, 1]; pass normalized values")


def align_crop(img, box, out_size=CHIP_SIZE, margin=0.0):
    """Cut the (optionally margin-expanded) box, resize square, normalize.

    ``box`` may be a 4-tuple, a FaceBox or a Detection.  The image holds
    raw 0..255 values; the returned chip is already network-ready.
    """
    box = getattr(box, "box", box)  # Detection -> FaceBox
    if hasattr(box, "x1"):
        box = (box.x1, box.y1, box.x2, box.y2)
    x1, y1, x2, y2 = box
    if margin:
        mw = (x2 - x1) * margin / 2.0
        mh = (y2 - y1) * margin / 2.0
        x1, y1, x2, y2 = x1 - mw, y1 - mh, x2 + mw, y2 + mh
    pixels = normalize_pixels(crop_resize(img, (x1, y1, x2, y2), out_size))
    return FaceChip(pixels=pixels, box=(float(x1), float(y1), float(x2), float(y2)))


def embed_chip(chip, weights, net=None):
    """FaceChip -> unit-norm 128-d float32 vector."""
    if not isinstance(chip, FaceChip):
        raise ConfigError(f"expected a FaceChip, got {type(chip).__name__}")
    pixels = np.asarray(chip.pixels, dtype=np.float32)
    if net is None:
        net = embedding_net(pixels.shape[1])
    emb = net.forward(weights, pixels)["embedding"].astype(np.float32)
    norm = float(np.linalg.norm(emb.astype(np.float64)))
    if not abs(norm - 1.0) <= NORM_TOL:  # also catches a NaN norm
        raise InvariantError(f"embedding norm {norm} drifted from 1")
    return emb
