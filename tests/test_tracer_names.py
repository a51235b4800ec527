"""The benchmark's tracer patches library functions by name from outside
``src/``; a name it cannot resolve is silently reported as absent and
its layer reads 0.  These checks keep every name it traces in place."""

import importlib
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


# the traced names that a module only forwards, through its module
# ``__getattr__``, to the module and name of the function its callers
# call: wrapping what a name resolves to must wrap that function
FORWARDED = {
    "avgsat._kernel:census_length": ("avgsat.analytic", "_census_length"),
    "avgsat._kernel:enumerate_length": ("avgsat.formula", "enumerate_length"),
    "avgsat._kernel:eval_mask": ("avgsat.formula", "eval_mask"),
    "avgsat._kernel:eval_mask_compact": ("avgsat.formula", "eval_mask_compact"),
    **{f"avgsat.measure:{name}": ("avgsat.weighting", name)
       for name in ("uniform_on", "weights_proportional", "power_law_length", "nu_from_H",
                    "relative_avg")},
    "avgsat.measure:tractability": ("avgsat.trend", "tractability"),
    "avgsat.measure:check_property_2_2": ("avgsat.commands.property_2_2", "check_property_2_2"),
    "avgsat.measure:check_property_2_3": ("avgsat.commands.property_2_3", "check_property_2_3"),
    "avgsat.measure:markov_tail": ("avgsat.commands.markov_tail", "markov_tail"),
    "avgsat.measure:uniform_within_min_layers": ("avgsat.commands.tab_oclass",
                                                 "uniform_within_min_layers"),
    "avgsat.cli:_unrank": ("avgsat.commands.sampling", "_unrank"),
}


def test_forwarded_names_resolve_to_the_functions_called(tracer):
    traced = {target for _, target in _targets(tracer)}
    for target, (home, name) in FORWARDED.items():
        assert target in traced
        module, _, attr = target.partition(":")
        # a forward, not a second binding that a patch could miss
        assert attr not in vars(importlib.import_module(module))
        assert tracer._resolve(target)[2] is getattr(importlib.import_module(home), name)
    # every other plain traced name is bound in its own module
    for target in traced - FORWARDED.keys():
        module, _, path = target.partition(":")
        if "." not in path and not path.endswith("*"):
            assert path in vars(importlib.import_module(module)), target


def test_measure_forwards_only_traced_names(tracer):
    # measure forwards names only so that the tracer can patch them there
    from avgsat import measure
    traced = {target for _, target in _targets(tracer)}
    forwarded = {f"avgsat.measure:{name}" for names in measure._FORWARDS.values()
                 for name in names}
    assert forwarded - traced == set()
