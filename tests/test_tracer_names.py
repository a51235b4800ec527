"""The benchmark's tracer patches library functions by name from outside
``src/``; a name it cannot resolve is silently reported as absent and
its layer reads 0.  These checks keep every name it traces in place."""

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # executed from its source, so that no bytecode is written beside it
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _targets(tracer):
    for layer, targets in tracer.SPAN_LAYERS:
        if isinstance(targets, str):
            # every public function of a module: there must be some
            targets = tracer._public_functions(targets)
            assert targets, layer
        for target, _, _ in targets:
            yield layer, target
    yield from tracer.COUNT_LAYERS
    yield "model_cache", tracer.MODEL_CACHE


def test_every_traced_name_resolves(tracer):
    targets = list(_targets(tracer))
    absent = [(layer, target) for layer, target in targets if tracer._resolve(target) is None]
    assert absent == []
    # the model cache is read through the lru_cache's statistics
    _, _, cache = tracer._resolve(tracer.MODEL_CACHE)
    assert cache.cache_info().maxsize
