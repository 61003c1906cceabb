"""In-memory span and count tracing around the public functions of berkdyn.

The tracer wraps functions from the outside: it replaces every binding of a
wrapped function in every loaded ``berkdyn`` module (so names imported with
``from .x import f`` are traced too) and every wrapped method on its class.
Nothing in the library changes; ``uninstall`` puts the originals back.

Three kinds of boundary are recorded:

* spans (name, start, end, parent span, op id, exception class) for the
  layer functions in ``SPANS``;
* call counts by backend kind for the hot ``FieldElement`` operations in
  ``KIND_COUNTS``, which are too frequent and too cheap to time one by one;
* calls and yielded items of the residue-field enumeration generator.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import time

# (module, attribute path, metric name).  Methods are "Class.method".
SPANS = [
    ("residue", "rpoly_eval", "residue.rpoly_eval"),
    ("residue", "rpoly_divmod", "residue.rpoly_divmod"),
    ("residue", "rpoly_gcd", "residue.rpoly_gcd"),
    ("residue", "embed_element", "residue.embed_element"),
    ("fields", "residue_roots", "fields.residue_roots"),
    ("polys", "recenter", "polys.recenter"),
    ("polys", "evaluate", "polys.evaluate"),
    ("polys", "newton_polygon", "polys.newton_polygon"),
    ("polys", "gauss_valuation", "polys.gauss_valuation"),
    ("polys", "mul", "polys.mul"),
    ("roots", "roots_with_mult", "roots.roots_with_mult"),
    ("roots", "squarefree_roots", "roots.squarefree_roots"),
    ("roots", "segment_residue_poly", "roots.segment_residue_poly"),
    ("roots", "lift_residue", "roots.lift_residue"),
    ("ratmap", "RationalMap.preimages", "ratmap.preimages"),
    ("ratmap", "RationalMap.image_point", "ratmap.image_point"),
    ("ratmap", "RationalMap.local_degree", "ratmap.local_degree"),
    ("berkovich", "seminorm_eval", "berkovich.seminorm_eval"),
    ("berkovich", "join", "berkovich.join"),
    ("measures", "pullback", "measures.pullback"),
    ("measures", "AtomicMeasure.__init__", "measures.AtomicMeasure.init"),
    ("measures", "AtomicMeasure.scale", "measures.AtomicMeasure.scale"),
    ("equilibrium", "equilibrium_approx", "equilibrium.equilibrium_approx"),
    ("equilibrium", "entropy_lower_bound", "equilibrium.entropy_lower_bound"),
]

KIND_COUNTS = [
    ("FieldElement.__init__", "fields.init"),
    ("FieldElement.__add__", "fields.add"),
    ("FieldElement.__mul__", "fields.mul"),
    ("FieldElement.inverse", "fields.inverse"),
    ("FieldElement.truncate_below", "fields.truncate_below"),
]

# backend kinds as the library spells them -> names used in metrics
KIND_LABELS = {"padic": "padic", "equichar0": "laurentq", "equicharp": "laurentfp"}

LAYERS = ["residue", "fields", "polys", "roots", "ratmap", "berkovich", "measures", "equilibrium"]

# Pseudo-span around each benchmark op; its self time is work outside every
# traced library function.
OP_SPAN = "bench.op"


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts while installed.  Create one per traced pass."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names = [OP_SPAN]
        self.spans = []  # (name index, t0, t1, parent index, op id, exception)
        self.stack = []
        self.op_id = -1
        self.kind_counts = collections.defaultdict(collections.Counter)
        self.elements_calls = 0
        self.elements_yielded = 0
        self.residue_roots_found = 0
        self.repeats = {"polys.recenter": [0, 0], "ratmap.image_point": [0, 0]}
        self._seen = {name: set() for name in self.repeats}
        self._restore = []

    # -- installation ----------------------------------------------------

    def install(self):
        pkg = "berkdyn"
        modules = {m: importlib.import_module(f"{pkg}.{m}") for m in LAYERS}
        loaded = [m for name, m in sys.modules.items() if name == pkg or name.startswith(pkg + ".")]
        for mod_name, path, metric in SPANS:
            owner, attr = _resolve(modules[mod_name], path)
            orig = owner.__dict__[attr]
            wrapper = self._span_wrapper(metric, orig)
            if owner is modules[mod_name]:
                # rebind every module-level name that holds this function
                for mod in loaded:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        fe = modules["fields"].FieldElement
        for path, metric in KIND_COUNTS:
            attr = path.split(".")[1]
            self._patch(fe, attr, self._kind_wrapper(metric, fe.__dict__[attr], attr == "__init__"))
        rf = modules["residue"].ResidueField
        self._patch(rf, "elements", self._elements_wrapper(rf.__dict__["elements"]))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, metric, fn):
        idx = len(self.names)
        self.names.append(metric)
        spans, stack, clock = self.spans, self.stack, self.clock
        repeat = self.repeats.get(metric)
        seen = self._seen.get(metric)
        counts_roots = metric == "fields.residue_roots"

        def wrapper(*args, **kwargs):
            if repeat is not None:
                if metric == "polys.recenter":
                    key = (tuple(args[0]), args[1])
                else:
                    key = (id(args[0]), args[1])
                repeat[0] += 1
                if key in seen:
                    repeat[1] += 1
                else:
                    seen.add(key)
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            exc = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if counts_roots:
                    self.residue_roots_found += len(out)
                return out
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, self.op_id, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _kind_wrapper(self, metric, fn, is_init):
        counts = self.kind_counts[metric]
        if is_init:
            def wrapper(self_, backend, terms, prec):
                counts[backend.kind] += 1
                fn(self_, backend, terms, prec)
        else:
            def wrapper(self_, *args):
                counts[self_.backend.kind] += 1
                return fn(self_, *args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _elements_wrapper(self, fn):
        tracer = self

        def elements(self_):
            tracer.elements_calls += 1
            for x in fn(self_):
                tracer.elements_yielded += 1
                yield x

        elements.__wrapped__ = fn
        return elements

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of one benchmark op."""
        self.op_id = op_id
        for s in self._seen.values():
            s.clear()
        me = len(self.spans)
        self.spans.append(None)
        self.stack.append(me)
        return me, self.clock()

    def end_op(self, handle, exc=None):
        me, t0 = handle
        t1 = self.clock()
        self.stack.pop()
        self.spans[me] = (0, t0, t1, -1, self.op_id, exc)

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per-function calls, self time, failures; per-layer self time."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = collections.defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                                 "failed": collections.Counter(), "failed_s": 0.0})
        for i, (name, t0, t1, _, _, exc) in enumerate(self.spans):
            st = stats[self.names[name]]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child[i]
            st["total_s"] += t1 - t0
            if exc is not None:
                st["failed"][exc] += 1
                st["failed_s"] += t1 - t0
        layers = collections.Counter()
        for name, st in stats.items():
            if name != OP_SPAN:
                layers[name.split(".")[0]] += st["self_s"]
        return stats, layers

    def write_spans(self, path, start):
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_s", "end_s", "parent", "op", "exception"]}) + "\n")
            for name, t0, t1, parent, op, exc in self.spans:
                fh.write(json.dumps([name, round(t0 - start, 7), round(t1 - start, 7), parent, op, exc]) + "\n")
