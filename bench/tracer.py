"""Per-layer tracing of menuopt from outside the package.

Layers are menuopt's modules. `Tracer.install()` wraps every public
function of each layer module, the public methods of the value classes in
`core`, `menus` and `approachability`, and the few private functions named
in `_EXTRA`. It rebinds every name through which a call can reach the
original: module attributes (`from ... import` bindings included),
module-level dicts such as `maximin.ADVERSARIES`, and class attributes.
`uninstall()` restores them all.

Every wrapped call adds its duration to its function's count and total,
and subtracts it from the self time of the wrapped call that encloses it,
so a function's self time is its duration minus the time spent in other
wrapped calls. A layer's self time is the sum over its functions. Calls
that run per round, per net direction or per linear program (everything in
`lp`, `core` and `menus`, plus `_COUNTED`) are kept as a count and summed
times only; every other call is also recorded as a span
(id, name, start, end, parent span id, command id).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List

LAYERS = (
    "cli",
    "core",
    "lp",
    "menus",
    "stackelberg",
    "nr_commitment",
    "approachability",
    "general_commitment",
    "maximin",
    "playback",
)
_CLASS_LAYERS = ("core", "menus", "approachability")
_EXTRA = ("approachability._net_values",)
_COUNT_ONLY_LAYERS = ("lp", "core", "menus")
_COUNTED = ("maximin.hedge_weights", "maximin.blackwell_abort_step", "playback.pair_to_actions")


def _rows(args, kwargs, result) -> Dict[str, float]:
    prog = args[0] if args else kwargs["lp"]
    bounds = 0 if prog.bounds is None else sum((lo is not None) + (hi is not None) for lo, hi in prog.bounds)
    return {"rows": len(prog.constraints) + bounds}


# Counters read from a wrapped call's arguments or result.
_HOOKS: Dict[str, Callable] = {
    "lp.solve_lp": _rows,
    "lp.zero_sum_value_batch2": lambda a, kw, r: {"games": len(a[0])},
    "approachability._net_values": lambda a, kw, r: {"net_points": len(a[1])},
    "general_commitment.optimize_general": lambda a, kw, r: {"iterations": r.iterations},
    "maximin.run_maximin": lambda a, kw, r: {"rounds": len(r.transcript), "epochs": len(r.epochs)},
    "playback.simulate": lambda a, kw, r: {"rounds": len(r.transcript)},
}


class Stat:
    __slots__ = ("layer", "calls", "total", "self_time", "counters", "durations")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters: Dict[str, float] = {}
        self.durations: List[float] = []


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.spans: List[tuple] = []
        self.command_id = -1
        self._frames: List[list] = []  # [child_time, span_id] of each open wrapped call
        self._patches: List[tuple] = []  # (setter, original, wrapper)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat(layer))
        frames, spans, clock = self._frames, self.spans, time.perf_counter
        hook = _HOOKS.get(name)
        spanned = layer not in _COUNT_ONLY_LAYERS and name not in _COUNTED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, len(spans) if spanned else None]
            if spanned:
                spans.append(None)  # reserve the id; filled in on exit
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if spanned:
                    stat.durations.append(dur)
                    parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                    spans[frame[1]] = (frame[1], name, t0, t1, parent, tracer.command_id)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    stat.counters[key] = stat.counters.get(key, 0) + value
            return result

        return wrapper

    def _targets(self):
        """(qualified name, layer, original) of everything wrapped."""
        for layer in LAYERS:
            mod = importlib.import_module(f"menuopt.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                qual = f"{layer}.{attr}"
                public = not attr.startswith("_") or qual in _EXTRA
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    yield qual, layer, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and layer in _CLASS_LAYERS:
                    for mattr, mobj in sorted(vars(obj).items()):
                        if mattr.startswith("_") and mattr != "__post_init__":
                            continue
                        if isinstance(mobj, staticmethod) and inspect.isfunction(mobj.__func__):
                            yield f"{qual}.{mattr}", layer, mobj
                        elif inspect.isfunction(mobj):
                            yield f"{qual}.{mattr}", layer, mobj

    def install(self) -> None:
        if not self._patches:
            self._build()
        for setter, _, wrapper in self._patches:
            setter(wrapper)

    def uninstall(self) -> None:
        for setter, original, _ in self._patches:
            setter(original)

    def _build(self) -> None:
        originals = {}
        for qual, layer, obj in self._targets():
            if id(obj) in originals:  # an alias such as test_assignment_valid_action_perspective
                continue
            if isinstance(obj, staticmethod):
                wrapped = staticmethod(self._wrap(qual, layer, obj.__func__))
            else:
                wrapped = self._wrap(qual, layer, obj)
            originals[id(obj)] = (obj, wrapped)
        def entry(value):
            found = originals.get(id(value))
            return found if found is not None and found[0] is value else None

        modules = [m for n, m in sorted(sys.modules.items()) if n == "menuopt" or n.startswith("menuopt.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if entry(value):
                    self._patches.append((functools.partial(setattr, mod, attr), *entry(value)))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if entry(item):
                            self._patches.append((functools.partial(value.__setitem__, key), *entry(item)))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if entry(cvalue):
                            self._patches.append((functools.partial(setattr, value, cattr), *entry(cvalue)))

    # -- results --------------------------------------------------------

    def layer_self_time(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for stat in self.stats.values():
            out[stat.layer] += stat.self_time
        return out

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat(name.split(".")[0])

    def dump(self) -> dict:
        return {
            "stats": {
                name: {
                    "layer": s.layer,
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "counters": s.counters,
                }
                for name, s in sorted(self.stats.items())
                if s.calls
            },
            "span_fields": ["id", "name", "start", "end", "parent", "command"],
            "spans": self.spans,
        }
