"""The benchmark reaches into the program by name: it imports faceveil's
functions and its tracer times them by patching.

A patch target that the program no longer has is skipped at run time and
only listed under ``not_traced``, so a refactor could silently drop a
traced span; an import that no longer resolves would only surface as a
failed benchmark run.  These pin both to names that exist.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# detect cuts its crops with crop_resize_batch; the hook is left for a
# change to the benchmark itself
KNOWN_STALE = {"faceveil.detect.crop_resize"}


def test_every_trace_hook_names_an_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = {
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer.PATCHES
        if attr not in vars(owner)
    }
    assert missing == KNOWN_STALE


def _resolves(module_name, name):
    """Whether ``from module_name import name`` would succeed."""
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:  # a package's submodule is imported on demand
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_perfbench_import_resolves():
    imported, missing = [], []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "faceveil":
                for alias in node.names:
                    imported.append(f"{path.name}: {node.module}.{alias.name}")
                    if not _resolves(node.module, alias.name):
                        missing.append(imported[-1])
    assert len(imported) > 20  # the walk found perfbench's imports
    assert missing == []


def test_traced_layer_spans_count_every_layer(monkeypatch):
    # Network.forward may reorder PReLU and pooling, but every layer must
    # still run through the methods the tracer patches, once per call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    from faceveil.models import detector_nets, embedding_net
    from faceveil.nn import MaxPool2D, PReLU

    for net in (*detector_nets().values(), embedding_net(32)):
        weights = net.init_weights(np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(-1, 1, size=net.input_shape + (2,)).astype(np.float32)
        with tracer.Tracer() as t:
            net.forward(weights, x)
            spans, _ = t.take()
        layers = [*net.trunk, *(layer for head in net.heads.values() for layer in head)]
        for span, kind in (("nn.prelu", PReLU), ("nn.pool", MaxPool2D)):
            want = sum(isinstance(layer, kind) for layer in layers)
            assert spans.get(span, [0])[0] == want, (net.name, span)
