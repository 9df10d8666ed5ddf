"""Per-layer spans and counts for one traced round, taken from outside.

``Tracer.install`` wraps the public functions and public methods of each
``pregerst`` layer module, and the arithmetic of ``fractions.Fraction``, then
rebinds every module attribute that holds a wrapped function, so calls made
inside the package go through the wrappers too.  ``Tracer.restore`` puts every
original back and checks that nothing wrapped is left.

A span opens when a call enters a layer from another layer (or from the
benchmark).  Calls within the layer that is already open run unwrapped apart
from their counters, so a layer's self time is the time its spans cover minus
the time their child spans, in other layers, cover.

The wrappers' own work falls inside spans too: a child span's bookkeeping
before it starts its clock and after it stops it is charged to the parent, and
the rest of the wrapper to the child.  ``calibrate`` times wrapped no-ops once
per run, and ``corrected_self_s`` subtracts that cost for every span entry and
every pass-through call, so a layer's self time estimates its untraced time.

Per instance the tracer keeps one record: its suite and index, start and end,
and each layer's calls and corrected self time.  Records stay in memory until
the run writes them out.
"""

from __future__ import annotations

import fractions
import inspect
import statistics
import sys
import time
from collections import Counter
from enum import Enum

LAYERS = ("grading", "words", "fractions", "cooperations", "models", "envelopes", "suites")
MODULE_LAYERS = ("grading", "words", "cooperations", "models", "envelopes", "suites")

# dunder methods that are arithmetic on combinations, and so part of a layer
ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__call__"}
FRACTION_SKIP = {"__repr__", "__str__", "__format__", "__reduce__", "__copy__",
                 "__deepcopy__", "__init_subclass__"}

COPRODUCTS = {"delta_leibniz", "delta_concat", "cocrochet_lie", "delta_cocom",
              "delta_perm", "kappa_prime_sym", "kappa_prime", "kappa"}
ENVELOPE_OPERATORS = {"zinfinity_d", "r2", "l2", "prelie_envelope_q", "l_infinity_q",
                      "m_map", "r_map", "q_total"}

CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5

now = time.perf_counter


class Tracer:
    def __init__(self, cost=None):
        # tracer cost per call in seconds, as ``calibrate`` returns it
        self.cost = cost or {"out": 0.0, "into": 0.0, "through": 0.0}
        # open spans: [layer, start, time covered by child spans,
        #              calls that stayed within the layer]
        self.stack = [["bench", 0.0, 0.0, 0]]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        # plain dicts, not Counters: the wrappers update them on every call
        self.calls = dict.fromkeys(LAYERS, 0)                  # spans entered
        self.opened = dict.fromkeys(LAYERS + ("bench",), 0)    # child spans opened
        self.passes = dict.fromkeys(LAYERS, 0)                 # calls within the layer
        self.counts = Counter()
        self.instances = []
        self._patched = []          # (owner, attribute, original value)
        self._wrappers = set()      # ids of every wrapper made
        self.build_s = 0.0
        self._seen_inputs = set()   # (coproduct, word, arguments) of this instance
        self._operator_depth = 0
        self._first_operator_done = False

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer, count=None, after=None):
        stack, self_s, calls, counts = self.stack, self.self_s, self.calls, self.counts
        opened, passes = self.opened, self.passes

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            top = stack[-1]
            if top[0] == layer:
                top[3] += 1
                if after is None:
                    return fn(*args, **kwargs)
                return after(top, fn, args, kwargs)
            frame = [layer, now(), 0.0, 0]
            stack.append(frame)
            try:
                if after is None:
                    result = fn(*args, **kwargs)
                else:
                    result = after(frame, fn, args, kwargs)
            finally:
                end = now()
                stack.pop()
                span = end - frame[1]
                self_s[layer] += span - frame[2]
                parent = stack[-1]
                parent[2] += span
                opened[parent[0]] += 1
                passes[layer] += frame[3]
                calls[layer] += 1
            if layer == "words" and hasattr(result, "terms"):
                counts["words_result_terms"] += len(result.terms)
            return result

        self._wrappers.add(id(traced))
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _coproduct(self, frame, fn, args, kwargs):
        """Counts the words given to a coproduct and the distinct ones within
        the current instance; the bookkeeping is left out of the layer's time."""
        t0 = now()
        rest = (fn.__name__, args[1:], tuple(sorted(kwargs.items())))
        elem = args[0] if args else kwargs["elem"]
        for word in elem.terms:
            self.counts["coproduct_words"] += 1
            key = (word, rest)
            if key not in self._seen_inputs:
                self._seen_inputs.add(key)
                self.counts["coproduct_distinct_words"] += 1
        frame[2] += now() - t0
        result = fn(*args, **kwargs)
        self.counts["coproduct_result_terms"] += len(result.terms)
        return result

    def _operator(self, frame, fn, args, kwargs):
        """Counts result terms of the envelope operators, and whether the
        outermost operator first applied in an instance returned zero."""
        self._operator_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            self._operator_depth -= 1
        self.counts["envelope_result_terms"] += len(result.terms)
        if self._operator_depth == 0 and not self._first_operator_done:
            self._first_operator_done = True
            if not result.terms:
                self.counts["vacuous"] += 1
        return result

    def _options(self, layer, name):
        if name == "add_term":
            return {"count": "add_terms"}
        if name == "atom" and layer == "models":
            return {"count": "atoms"}
        if layer == "cooperations" and name in COPRODUCTS:
            return {"after": self._coproduct}
        if layer == "envelopes" and name in ENVELOPE_OPERATORS:
            return {"after": self._operator}
        return {}

    # -- installing and restoring ----------------------------------------------

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def corrected_self_s(self):
        """Each layer's self time less the tracer's calibrated cost: ``out``
        for every child span it opened, ``into`` for every span of its own and
        ``through`` for every call that stayed within it."""
        cost = self.cost
        return {layer: self.self_s[layer] - cost["out"] * self.opened[layer]
                - cost["into"] * self.calls[layer] - cost["through"] * self.passes[layer]
                for layer in LAYERS}

    def wrapper_s(self):
        """The calibrated cost subtracted from all layers together."""
        return sum(self.self_s.values()) - sum(self.corrected_self_s().values())

    def install(self):
        wrapped = {}    # id(original function) -> wrapper
        modules = {layer: sys.modules["pregerst.%s" % layer] for layer in MODULE_LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer, **self._options(layer, name))
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(obj, layer,
                                     lambda n: not n.startswith("_") or n in ARITHMETIC)
        self._wrap_class(fractions.Fraction, "fractions",
                         lambda n: (n.startswith("__") or not n.startswith("_"))
                         and n not in FRACTION_SKIP)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pregerst" and not mod_name.startswith("pregerst."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(module, name, wrapped[id(obj)])

    def _wrap_class(self, cls, layer, keep):
        for name, attr in list(vars(cls).items()):
            if not keep(name):
                continue
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(
                    self._wrap(attr.__func__, layer, **self._options(layer, name))))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, layer, **self._options(layer, name)))

    def restore(self):
        """Puts every original back; returns the attributes that still hold a
        wrapper, which is empty unless restoring failed."""
        patched, self._patched = self._patched, []
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        leftover = ["%r.%s" % (owner, name) for owner, name, original in patched
                    if owner.__dict__[name] is not original]
        for mod_name, module in list(sys.modules.items()):
            if mod_name not in ("fractions", "pregerst") and not mod_name.startswith("pregerst."):
                continue
            owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
            for owner in owners:
                for name, attr in list(vars(owner).items()):
                    fn = attr.__func__ if isinstance(attr, staticmethod) else attr
                    if id(fn) in self._wrappers:
                        leftover.append("%s.%s" % (getattr(owner, "__qualname__", mod_name), name))
        return leftover

    # -- instances -------------------------------------------------------------

    def install_builders(self, suite_specs):
        """Wraps each suite builder, so that build time is measured and every
        instance's thunk is wrapped to mark where one verdict starts and ends."""
        for suite, spec in suite_specs.items():
            self._patch(spec, "builder", self._builder(suite, spec.builder))

    def _builder(self, suite, builder):
        def build(config):
            t0 = now()
            instances = builder(config)
            self.build_s += now() - t0
            for index, inst in enumerate(instances):
                inst.thunk = self._instance_thunk(suite, index, inst.thunk)
            return instances
        return build

    def _instance_thunk(self, suite, index, thunk):
        """Marks one verdict; the record keeping around it is taken out of the
        time of the span that runs the instance."""
        def run():
            entered = now()
            self._seen_inputs = set()
            self._first_operator_done = False
            before_self = self.corrected_self_s()
            before_calls = dict(self.calls)
            start = now()
            try:
                return thunk()
            finally:
                end = now()
                after_self = self.corrected_self_s()
                self.instances.append({
                    "id": "%s#%d" % (suite, index), "start": start, "end": end,
                    "layers": {layer: [self.calls[layer] - before_calls[layer],
                                       after_self[layer] - before_self[layer]]
                               for layer in LAYERS
                               if self.calls[layer] != before_calls[layer]}})
                self.stack[-1][2] += (start - entered) + (now() - end)
        return run


def _noop(x, y):
    return None


def _call(child, n):
    # two arguments, as in the binary operations that make most calls
    for _ in range(n):
        child(n, n)


def _loop_self_s(child_layer):
    """Self times of a ``suites`` span that calls a no-op CALIBRATION_CALLS
    times: unwrapped when ``child_layer`` is None, else wrapped in that layer."""
    tracer = Tracer()
    child = _noop if child_layer is None else tracer._wrap(_noop, child_layer)
    tracer._wrap(_call, "suites")(child, CALIBRATION_CALLS)
    return tracer.self_s


def calibrate():
    """The tracer's own cost per call, in seconds, as the median over
    CALIBRATION_REPEATS timings of wrapped no-ops:

    * ``out``: charged to the parent for each child span it opens;
    * ``into``: charged to the child for each of its spans;
    * ``through``: charged to a layer for each call that stays within it.

    ``out`` and ``into`` together are the whole cost of a span entry over
    that of a plain call."""
    samples = {"out": [], "into": [], "through": []}
    for _ in range(CALIBRATION_REPEATS):
        plain = _loop_self_s(None)["suites"]
        entered = _loop_self_s("grading")
        passed = _loop_self_s("suites")["suites"]
        samples["out"].append((entered["suites"] - plain) / CALIBRATION_CALLS)
        samples["into"].append(entered["grading"] / CALIBRATION_CALLS)
        samples["through"].append((passed - plain) / CALIBRATION_CALLS)
    return {key: statistics.median(values) for key, values in samples.items()}
