"""The benchmark's tracer times the program by patching its functions.

A patch target that the program no longer has is skipped at run time and
only listed under ``not_traced``, so a refactor could silently drop a
traced span.  This pins every target to an attribute that exists.
"""

import importlib
from pathlib import Path

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
