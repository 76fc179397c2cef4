"""Per-layer tracing from outside the package.

`Tracer` replaces selected public functions of knotcolour with timing
wrappers. Each call becomes a span (id, parent, name, start, end); the
parent is the innermost traced call still open, or the benchmark's own
op span at the root. A layer's self time is its span's duration minus
the time its child spans cover.

A wrapped name is patched in every knotcolour namespace that binds the
same function object: `invariants` imports `validate` by name,
`surface_data` imports `det` and `inverse_unimodular`, and so on. A
call path through such an alias would otherwise be missed.

Self time and call counts are aggregated exactly while the tracer runs.
Span records are kept in memory up to `max_spans` (the hot arithmetic
layers make millions of calls) and written out by `dump`.
"""

import json
import sys
from array import array
from time import perf_counter

# layer name -> (module, public functions). A layer may group several
# functions; their calls and self times add up.
LAYERS = {
    "_intlin.det": ("knotcolour._intlin", ("det",)),
    "_intlin.inverse_unimodular": ("knotcolour._intlin",
                                   ("inverse_unimodular",)),
    "_intlin.smith": ("knotcolour._intlin", ("smith",)),
    "abelian.arith": ("knotcolour.abelian",
                      ("add", "sub", "neg", "mul", "act", "act_pow")),
    "abelian.generates": ("knotcolour.abelian", ("generates",)),
    "abelian.make_group": ("knotcolour.abelian", ("make_group",)),
    "abelian.wedge2": ("knotcolour.abelian", ("wedge2",)),
    "surface_data.validate": ("knotcolour.surface_data", ("validate",)),
    "surface_data.enumerate_colourings": ("knotcolour.surface_data",
                                          ("enumerate_colourings",)),
    "surface_data.moves": ("knotcolour.surface_data",
                           ("lambda1", "lambda2")),
    "surface_data.symplectic_reduce": ("knotcolour.surface_data",
                                       ("symplectic_reduce",)),
    "invariants.su": ("knotcolour.invariants", ("su",)),
    "invariants.cu": ("knotcolour.invariants", ("cu",)),
    "invariants.vector_class": ("knotcolour.invariants", ("vector_class",)),
    "invariants.structured_lift": ("knotcolour.invariants",
                                   ("structured_lift",)),
    "classify.table": ("knotcolour.classify",
                       ("metacyclic_table", "rank2_diag_table",
                        "rank2_nondiag_table")),
    "diagram.enumerate_diagram_colourings": (
        "knotcolour.diagram", ("enumerate_diagram_colourings",)),
    "diagram.quandle_op": ("knotcolour.diagram",
                           ("quandle_op", "quandle_op_inverse")),
    "cli.run": ("knotcolour.cli", ("run",)),
}


def _order(spec):
    out = 1
    for n in spec.orders:
        out *= n
    return out


# layers whose results are also counted: (args, result) -> {counter: n}.
# The diagram search pins the base arc to zero, so it ranges over
# |A|^(arcs - 1) labellings.
OUTPUTS = {
    "surface_data.enumerate_colourings": lambda args, result: {
        "ambient": _order(args[1]) ** len(args[0]), "kept": len(result)},
    "diagram.enumerate_diagram_colourings": lambda args, result: {
        "ambient": _order(args[1]) ** (len(args[0].arcs) - 1),
        "kept": len(result)},
    "classify.table": lambda args, result: {"entries": len(result.entries)},
}


class Tracer:
    """Install with `with Tracer() as tr:`; spans are recorded only while
    `tr.on` is true, so oracle checks between ops stay untraced."""

    def __init__(self, max_spans=100_000):
        self.max_spans = max_spans
        self.on = False
        self.names = []              # name id -> layer or op name
        self._name_ids = {}
        self.calls = {}              # layer -> calls
        self.self_s = {}             # layer -> self seconds
        self.counts = {}             # layer -> {counter: total}
        self.validated = set()       # (op span, datum hash) per validate
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._next_id = 0
        self._op_span = -1           # id of the op span now open
        self._stack = []             # open spans: [id, child seconds]
        self._patched = []           # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "knotcolour"
                                         or name.startswith("knotcolour."))]
        for layer, (modname, funcs) in LAYERS.items():
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
            home = sys.modules[modname]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self.on = False
        return False

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, layer, fn):
        name_id = self._name_id(layer)
        output = OUTPUTS.get(layer)
        track_data = layer == "surface_data.validate"
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[layer] += 1
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self._record(span, parent, name_id, start, end)
            if output is not None:
                totals = self.counts.setdefault(layer, {})
                for key, n in output(args, result).items():
                    totals[key] = totals.get(key, 0) + n
            if track_data:
                self.validated.add((self._op_span, hash(args[0])))
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, span, parent, name_id, start, end):
        if len(self.span_id) >= self.max_spans:
            self.dropped += 1
            return
        self.span_id.append(span)
        self.span_parent.append(parent)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- op spans ---------------------------------------------------------

    def op(self, kind):
        """Context manager for one benchmark op: the root span that every
        library span of the op descends from."""
        return _OpSpan(self, self._name_id("op:" + kind))

    # -- output -----------------------------------------------------------

    def dump(self, path, meta):
        """Write the kept spans as JSON lines: a header, then one
        [id, parent, name, start, end] list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(meta, names=self.names, spans=len(self.span_id),
                          dropped=self.dropped)
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.span_id)):
                fh.write(json.dumps([
                    self.span_id[i], self.span_parent[i],
                    self.names[self.span_name[i]],
                    self.span_start[i], self.span_end[i]]) + "\n")


class _OpSpan:
    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        tr = self.tracer
        self.span = tr._next_id
        tr._next_id += 1
        self.frame = [self.span, 0.0]
        tr._stack.append(self.frame)
        tr._op_span = self.span
        tr.on = True
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.on = False
        tr._stack.pop()
        tr._record(self.span, -1, self.name_id, self.start, end)
        return False
