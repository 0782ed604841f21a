"""Frame I/O, and the line reader of the text inputs.

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
    f.read(1)  # exactly one whitespace byte separates the header from the raster
    # check the size before allocating, so a forged header cannot claim gigabytes
    need, have = 3 * w * h, os.fstat(f.fileno()).st_size - f.tell()
    if need > have:
        raise DataError(f"PPM raster truncated: need {need} bytes, have {have}")
    frame = np.empty((h, w, 3), dtype=np.uint8)
    got = f.readinto(frame)
    if got != need:
        raise DataError(f"PPM raster truncated: need {need} bytes, have {got}")
    return frame


def text_lines(path):
    """Yield (line number, line) of a UTF-8 text file such as a label or report file.

    A line that is not valid UTF-8 raises DataError naming path:line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for ln, line in enumerate(f, 1):
            try:
                line.encode("utf-8")  # undecodable bytes came through as lone surrogates
            except UnicodeEncodeError:
                raise DataError(f"{path}:{ln}: not UTF-8 text") from None
            yield ln, line


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


def check_frame(frame):
    """The frame as an array, or ConfigError unless it is an (H, W, 3) uint8 frame."""
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise ConfigError(f"expected (H,W,3) uint8 frame, got {frame.dtype} {frame.shape}")
    return frame


def ppm_bytes(frame):
    frame = check_frame(frame)
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


def load_image(path):
    """Read a single frame; PPM natively, anything else through Pillow."""
    if os.path.splitext(path)[1].lower() == ".ppm":
        return load_ppm(path)
    try:
        from PIL import Image
    except ImportError:
        raise ConfigError(f"{path}: only .ppm is supported without Pillow installed") from None
    with Image.open(path) as im:
        return np.asarray(im.convert("RGB"), dtype=np.uint8)
