#!/usr/bin/env python3
"""Run one avgsat CLI command with its layers traced from outside.

Usage: python3 bench/tracer.py --stats STATS.json -- <avgsat arguments>

The library is not edited: before ``avgsat.cli.main`` runs, every
function listed in ``SPAN_LAYERS`` and ``COUNT_LAYERS`` is replaced by a wrapper in every avgsat
module that bound it (``compact_model_set``, for example, is bound in
``formula``, ``engines`` and ``measure``).  Each wrapper adds to its
layer's totals; calls of per-item functions are only summed, other
calls are also kept as spans.  A layer's self time is its time minus
the time of the wrapped calls it made.  A name that no longer exists
is reported in ``absent`` instead of failing the run.

The stats file holds, per layer, the number of calls that entered the
layer from another layer, the self time, and a work count where the
layer defines one; plus the model-cache statistics, the spans and the
command's exit code.  The command's own output (its CSV) is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

# A sizer maps (args, result) to the work count a layer reports next to
# its calls.
_len_result = lambda args, result: len(result)
_census_count = lambda args, result: result[0]
_space_items = lambda args, result: len(args[0].items)

# (layer, [(target, per_item, sizer)]), or (layer, module) for every
# public function of the module.  A target is "module:name" or
# "module:Class.method".
SPAN_LAYERS = [
    ("kernel.census", [("avgsat._kernel:census_length", False, _census_count)]),
    ("kernel.enumerate", [("avgsat._kernel:enumerate_length", False, _len_result)]),
    ("kernel.eval", [("avgsat._kernel:eval_mask", True, None),
                     ("avgsat._kernel:eval_mask_compact", True, None)]),
    ("formula.stratify", [("avgsat.formula:stratify_min_layers", False, None)]),
    ("engines", [("avgsat.engines:" + name, True, None)
                 for name in ("rewrite_cost", "tabulate", "min_n", "sat_scan", "negated")]),
    ("measure.space", [("avgsat.measure:covering_space", False, None),
                       ("avgsat.measure:formula_space", False, None),
                       ("avgsat.measure:InputSpace.__init__", False, _space_items)]),
    ("measure.distribution", [("avgsat.measure:" + name, False, None)
                              for name in ("uniform_on", "weights_proportional",
                                           "power_law_length", "uniform_over_model_classes",
                                           "uniform_within_min_layers", "nu_from_H")]),
    ("measure.bound", [("avgsat.measure:" + name, False, None)
                       for name in ("avg_time", "relative_avg", "oclass_member",
                                    "check_property_2_2", "check_property_2_3",
                                    "markov_tail")]),
    ("measure.tractability", [("avgsat.measure:tractability", False, None)]),
    ("analytic", "avgsat.analytic"),
    ("cli.sample", [("avgsat.cli:SequenceSampler.sample", True, None),
                    ("avgsat.cli:_unrank", True, None)]),
    ("cli.emit", [("avgsat.cli:_emit", False, None)]),
    ("cli", [("avgsat.cli:main", False, None)]),
]

# Layers whose calls are counted but not timed: their time stays with
# the caller.
COUNT_LAYERS = [
    ("formula.table_hash", "avgsat.formula:ConnectiveTable.__hash__"),
    ("formula.model_set", "avgsat.formula:model_set"),
]

MODEL_CACHE = "avgsat.formula:compact_model_set"

_MISSING = object()


def _resolve(target):
    """(owner, attribute name, original) or None when the name is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    original = vars(owner).get(name, _MISSING) if inspect.isclass(owner) \
        else getattr(owner, name, _MISSING)
    if original is _MISSING:
        return None
    return owner, name, original


def _patch(owner, name, original, wrapper):
    """Rebind ``original`` to ``wrapper`` on a class, or in every avgsat
    module that holds it under any name."""
    if inspect.isclass(owner):
        setattr(owner, name, wrapper)
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "avgsat" or module_name.startswith("avgsat.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _public_functions(module_name):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return [(module_name + ":*", False, None)]  # resolves to absent
    return [(f"{module_name}:{name}", False, None)
            for name, value in sorted(vars(module).items())
            if inspect.isfunction(value) and value.__module__ == module_name
            and not name.startswith("_")]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = []     # frames: [layer, child seconds, span id]
        self.layers = {}    # layer -> {"calls", "self_s", "work"}
        self.counts = {}    # count-only layer -> calls
        self.spans = []     # [name, layer, start, end, parent span id]
        self.absent = []

    def timed(self, layer, name, fn, per_item, sizer):
        stats = self.layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "work": 0})
        stack, clock, spans, origin = self.stack, self.clock, self.spans, self.origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                stats["calls"] += 1
            span_id = parent[2] if parent else None
            if not per_item:
                spans.append([name, layer, 0.0, 0.0, span_id])
                span_id = len(spans) - 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not per_item:
                    spans[span_id][2:4] = [start - origin, end - origin]
            if sizer is not None:
                stats["work"] += sizer(args, result)
            return result

        return wrapper

    def counted(self, layer, fn):
        counts = self.counts
        counts[layer] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for layer, targets in SPAN_LAYERS:
            if isinstance(targets, str):
                targets = _public_functions(targets)
            for target, per_item, sizer in targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.absent.append(target)
                    continue
                owner, name, original = resolved
                _patch(owner, name, original,
                       self.timed(layer, target, original, per_item, sizer))
        for layer, target in COUNT_LAYERS:
            resolved = _resolve(target)
            if resolved is None:
                self.absent.append(target)
                continue
            owner, name, original = resolved
            _patch(owner, name, original, self.counted(layer, original))


def _cache_info():
    resolved = _resolve(MODEL_CACHE)
    info = getattr(resolved[2], "cache_info", None) if resolved else None
    return info() if info else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write the layer totals")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="avgsat arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import avgsat.cli  # noqa: F401  (loads every module that binds a target)
    kernel = importlib.import_module("avgsat._kernel")
    tracer = Tracer()
    tracer.install()
    cache_before = _cache_info()
    code = sys.modules["avgsat.cli"].main(argv)
    cache_after = _cache_info()

    cache = None
    if cache_before is not None and cache_after is not None:
        cache = {"hits": cache_after.hits - cache_before.hits,
                 "misses": cache_after.misses - cache_before.misses,
                 "entries": cache_after.currsize - cache_before.currsize}
    stats = {
        "argv": argv,
        "exit_code": code,
        "kernel": getattr(kernel, "ACTIVE", None),
        "layers": tracer.layers,
        "counts": tracer.counts,
        "model_cache": cache,
        "absent": tracer.absent,
        "spans": tracer.spans,
    }
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
