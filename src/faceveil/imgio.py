"""Frame I/O.

Native format is binary PPM (P6) with maxval 255.  A "video" is simply
several P6 images concatenated in one file; the reader reads and yields
one frame at a time until the file runs out.  PNG support is optional
and only activates when Pillow is importable.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import ConfigError, DataError

_WS = b" \t\r\n\v\f"


def _read_while(f, keep):
    """Consume and return the bytes of f up to the first one ``keep`` rejects."""
    out = bytearray()
    while (c := f.peek(1)[:1]) and keep(c):
        out += f.read(1)
    return bytes(out)


def _next_token(f, what):
    # skip whitespace and '#' comments (comment runs to end of line)
    while True:
        _read_while(f, lambda c: c in _WS)
        if f.peek(1)[:1] != b"#":
            break
        _read_while(f, lambda c: c != b"\n")
    tok = _read_while(f, lambda c: c not in _WS and c != b"#")
    if not tok:
        raise DataError(f"truncated PPM header: missing {what}")
    return tok


def _read_p6(f):
    magic = _next_token(f, "magic")
    if magic != b"P6":
        raise DataError(f"not a binary PPM image (magic {magic!r})")
    dims = []
    for what in ("width", "height", "maxval"):
        tok = _next_token(f, what)
        try:
            dims.append(int(tok))
        except ValueError:
            raise DataError(f"PPM {what} is not a number: {tok!r}") from None
    w, h, maxval = dims
    if w < 1 or h < 1:
        raise DataError(f"PPM size {w}x{h} out of range")
    if maxval != 255:
        raise DataError(f"unsupported PPM maxval {maxval}, only 255 is handled")
    f.seek(1, os.SEEK_CUR)  # exactly one whitespace byte separates the header from the raster
    # check the size before allocating, so a forged header cannot claim gigabytes
    need, have = 3 * w * h, os.fstat(f.fileno()).st_size - f.tell()
    if need > have:
        raise DataError(f"PPM raster truncated: need {need} bytes, have {have}")
    frame = np.empty((h, w, 3), dtype=np.uint8)
    got = f.readinto(frame)
    if got != need:
        raise DataError(f"PPM raster truncated: need {need} bytes, have {got}")
    return frame


def iter_frames(path):
    """Yield every (H, W, 3) uint8 frame in a (possibly multi-image) P6 file.

    Frames are read one at a time, so a long stream never sits in memory.
    """
    got_any = False
    with open(path, "rb") as f:
        while True:
            _read_while(f, lambda c: c in _WS)
            if not f.peek(1):
                break
            frame = _read_p6(f)
            got_any = True
            yield frame
    if not got_any:
        raise DataError(f"{path}: no PPM frames found")


def load_ppm(path):
    """Read the first frame of a P6 file."""
    with contextlib.closing(iter_frames(path)) as frames:
        return next(frames)


def _check_frame(frame):
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise ConfigError(f"expected (H,W,3) uint8 frame, got {frame.dtype} {frame.shape}")
    return frame


def ppm_bytes(frame):
    frame = _check_frame(frame)
    h, w = frame.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(frame).tobytes()


def save_ppm(frame, path):
    with open(path, "wb") as f:
        f.write(ppm_bytes(frame))


def save_frames(frames, path):
    """Concatenate frames into one multi-image P6 stream."""
    with open(path, "wb") as f:
        n = 0
        for frame in frames:
            f.write(ppm_bytes(frame))
            n += 1
    if n == 0:
        raise ConfigError("refusing to write a stream with zero frames")


def _pillow():
    try:
        from PIL import Image
    except ImportError:
        return None
    return Image


def load_image(path):
    """Read a single frame; PPM natively, anything else through Pillow."""
    if os.path.splitext(path)[1].lower() == ".ppm":
        return load_ppm(path)
    pil = _pillow()
    if pil is None:
        raise ConfigError(f"{path}: only .ppm is supported without Pillow installed")
    with pil.open(path) as im:
        return np.asarray(im.convert("RGB"), dtype=np.uint8)


def save_image(frame, path):
    if os.path.splitext(path)[1].lower() == ".ppm":
        save_ppm(frame, path)
        return
    pil = _pillow()
    if pil is None:
        raise ConfigError(f"{path}: only .ppm is supported without Pillow installed")
    pil.fromarray(_check_frame(frame), mode="RGB").save(path)
