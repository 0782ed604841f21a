"""Network definitions for the detector cascade and the face embedder.

Stage nets follow the classic three-step cascade: a fully convolutional
proposal net scanning 12x12 windows at stride 2, a 24x24 refinement net,
and a 48x48 output net that also predicts five landmark points.  Pooling
uses ceil-mode output sizes, which is what makes the flattened sizes
(576 and 1152) come out.

Head outputs per sample (``Network.forward`` puts the batch axis first):
  prob       (2, ...) softmax over {not-face, face}; index 1 is the face score
  box        (4, ...) offsets (dx1, dy1, dx2, dy2) in box-size units
  landmarks  (10,)    five (x, y) pairs, interleaved, in unit box coordinates
  embedding  (128,)   unit-norm feature vector
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .errors import ConfigError
from .nn import Conv2D, FullyConnected, L2Normalize, MaxPool2D, Network, PReLU, Softmax

EMBED_DIM = 128
HEAD_INIT = 0.05  # near-zero head outputs keep the first SGD steps sane


def proposal_net():
    """Stage 1: fully convolutional, 12x12 receptive field, stride 2."""
    p = "pnet"
    trunk = [
        Conv2D(f"{p}.conv1", 3, 10, 3),
        PReLU(f"{p}.prelu1", 10),
        MaxPool2D(2, 2),
        Conv2D(f"{p}.conv2", 10, 16, 3),
        PReLU(f"{p}.prelu2", 16),
        Conv2D(f"{p}.conv3", 16, 32, 3),
        PReLU(f"{p}.prelu3", 32),
    ]
    heads = {
        "prob": [Conv2D(f"{p}.head_prob", 32, 2, 1, init_scale=HEAD_INIT), Softmax()],
        "box": [Conv2D(f"{p}.head_box", 32, 4, 1, init_scale=HEAD_INIT)],
    }
    return Network(p, (3, 12, 12), trunk, heads, fully_convolutional=True)


def refine_net():
    """Stage 2: rescores 24x24 crops of surviving proposals."""
    p = "rnet"
    trunk = [
        Conv2D(f"{p}.conv1", 3, 28, 3),
        PReLU(f"{p}.prelu1", 28),
        MaxPool2D(3, 2),
        Conv2D(f"{p}.conv2", 28, 48, 3),
        PReLU(f"{p}.prelu2", 48),
        MaxPool2D(3, 2),
        Conv2D(f"{p}.conv3", 48, 64, 2),
        PReLU(f"{p}.prelu3", 64),
        FullyConnected(f"{p}.fc1", 64 * 3 * 3, 128),
        PReLU(f"{p}.prelu4", 128),
    ]
    heads = {
        "prob": [FullyConnected(f"{p}.head_prob", 128, 2, init_scale=HEAD_INIT), Softmax()],
        "box": [FullyConnected(f"{p}.head_box", 128, 4, init_scale=HEAD_INIT)],
    }
    return Network(p, (3, 24, 24), trunk, heads)


def output_net():
    """Stage 3: final scores, box offsets and landmarks from 48x48 crops."""
    p = "onet"
    trunk = [
        Conv2D(f"{p}.conv1", 3, 32, 3),
        PReLU(f"{p}.prelu1", 32),
        MaxPool2D(3, 2),
        Conv2D(f"{p}.conv2", 32, 64, 3),
        PReLU(f"{p}.prelu2", 64),
        MaxPool2D(3, 2),
        Conv2D(f"{p}.conv3", 64, 64, 3),
        PReLU(f"{p}.prelu3", 64),
        MaxPool2D(2, 2),
        Conv2D(f"{p}.conv4", 64, 128, 2),
        PReLU(f"{p}.prelu4", 128),
        FullyConnected(f"{p}.fc1", 128 * 3 * 3, 256),
        PReLU(f"{p}.prelu5", 256),
    ]
    heads = {
        "prob": [FullyConnected(f"{p}.head_prob", 256, 2, init_scale=HEAD_INIT), Softmax()],
        "box": [FullyConnected(f"{p}.head_box", 256, 4, init_scale=HEAD_INIT)],
        "landmarks": [FullyConnected(f"{p}.head_lmk", 256, 10, init_scale=HEAD_INIT)],
    }
    return Network(p, (3, 48, 48), trunk, heads)


@functools.cache
def embedding_net(input_size=160):
    """Face embedder: aligned chip -> unit-norm 128-d vector.

    input_size must be a multiple of 16 so the three pool stages land on
    an integer grid (160 for real chips, 32 for the toy training task).
    Built once per size; layers own no arrays, so callers share it.
    """
    s = int(input_size)
    if s < 16 or s % 16:
        raise ConfigError(f"input_size must be a positive multiple of 16, got {input_size}")
    p = "embed"
    side = s // 16
    trunk = [
        Conv2D(f"{p}.conv1", 3, 16, 3, stride=2, padding=1),
        PReLU(f"{p}.prelu1", 16),
        MaxPool2D(2, 2),
        Conv2D(f"{p}.conv2", 16, 32, 3, padding=1),
        PReLU(f"{p}.prelu2", 32),
        MaxPool2D(2, 2),
        Conv2D(f"{p}.conv3", 32, 64, 3, padding=1),
        PReLU(f"{p}.prelu3", 64),
        MaxPool2D(2, 2),
        FullyConnected(f"{p}.fc1", 64 * side * side, EMBED_DIM),
    ]
    heads = {"embedding": [L2Normalize()]}
    return Network(p, (3, s, s), trunk, heads)


@functools.cache
def detector_nets():
    """The three stage nets, built once: layers own no arrays, so callers share them."""
    return MappingProxyType({"pnet": proposal_net(), "rnet": refine_net(), "onet": output_net()})
