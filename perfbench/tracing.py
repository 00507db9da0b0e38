"""Per-layer spans for the traced run, recorded from outside the package.

``install`` wraps the public functions of every loaded ``termdepth``
module (plus ``verify._greedy_shrink``, shrinking's only entry) and rebinds
each wrapper under every name any ``termdepth`` module holds for the
original, so calls between modules are traced too; ``Tracer.restore`` puts
every binding back.  Each call records a span (layer, start, end, parent);
spans stay in memory until ``metrics`` folds them into per-op numbers.  A
span's self time is its duration minus its child spans and minus the
tracer's own bookkeeping inside it.

``App`` construction is not wrapped: ``type(node) is App`` checks would
break, so its cost lands in the self time of whichever layer builds nodes.
The run that reports end-to-end metrics never imports this module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import reference as ref

# Layer -> the functions (module.name) whose calls it times.  A public
# function missing here is traced under "unmapped", so its time is still
# kept out of its callers' self time.
LAYERS = {
    "verify.generate": (
        "verify.gen_signature",
        "verify.gen_term",
        "verify.gen_full_term",
        "verify.gen_hyp",
        "verify.gen_full_hyp",
        "verify.trial_stream",
    ),
    "verify.check_theorem": ("verify.check_theorem",),
    "verify.shrink": ("verify._greedy_shrink",),
    "superpose.superpose": ("superpose.superpose",),
    "superpose.predict": ("superpose.predict_depth_general", "superpose.predict_depth_full"),
    "superpose.is_full": ("superpose.is_full",),
    "terms.depth": ("terms.depth",),
    "terms.depth_wrt": ("terms.depth_wrt",),
    "terms.variables": ("terms.variables", "terms.arity_bound"),
    "terms.depth_report": ("terms.depth_report",),
    "terms.length": ("terms.length", "terms.yield_word"),
    "textio.parse": ("textio.parse_term", "textio.parse_signature", "textio.parse_hyp"),
    "textio.render": ("textio.render_term", "textio.render_signature", "textio.render_hyp"),
    "hypersub.apply_hyp": ("hypersub.apply_hyp",),
    "hypersub.compose_hyp": ("hypersub.compose_hyp",),
    "hypersub.predicates": (
        "hypersub.identity_hyp",
        "hypersub.is_full_hyp",
        "hypersub.is_regular_hyp",
        "hypersub.hyp_depth",
        "hypersub.predict_depth_full_hyp",
    ),
    "occurrences.b_of": (
        "occurrences.b_of",
        "occurrences.predict_depth_hyp",
        "occurrences.b_trace",
        "occurrences.beta",
        "occurrences.occurrence_path",
    ),
    "cli.main": ("cli.main",),
}
UNMAPPED = "unmapped"
MEASURES = ("terms.depth", "terms.depth_wrt", "terms.variables", "terms.depth_report", "terms.length")

# Which argument is the term whose distinct nodes set the work, for the
# functions behind the ns-per-node metrics.
_NODE_ARG = {
    "superpose.superpose": 0,
    "hypersub.apply_hyp": 1,
    "occurrences.b_of": 1,
    "occurrences.predict_depth_hyp": 1,
    **{qual: 0 for layer in MEASURES for qual in LAYERS[layer]},
}

CALIBRATION_LEVELS = 20_000


def _family(layer: str | None) -> str | None:
    return "terms.measure" if layer in MEASURES else layer


class Tracer:
    """Spans of every traced call, kept in flat arrays: layer, start, end,
    parent span (-1 for a call from the benchmark itself), and bookkeeping
    time the tracer spent inside the span."""

    def __init__(self, td):
        self.layer_names = list(LAYERS) + [UNMAPPED]
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.bookkeeping = array("d")
        self._stack: list[int] = []
        self._active = True
        self._bindings: list[tuple[object, str, object]] = []
        self._node_cache: dict[int, tuple[object, int]] = {}
        # counts taken at the layer boundaries, summed over the traced calls
        self.work: dict[str, list[float]] = {}  # family -> [ns, input nodes]
        self.generated_nodes = 0
        self.parse_bytes = 0
        self.trials = 0
        self.discrepancies = 0
        self.shrink_candidates = 0
        self.shrink_nodes_before = 0
        self.shrink_nodes_after = 0
        self.absent: list[str] = []
        for info in pkgutil.iter_modules(td.__path__):
            importlib.import_module(f"termdepth.{info.name}")
        self.ns_per_position = _calibrate_b_of(td)

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        modules = {
            name.partition(".")[2] or name: mod
            for name, mod in list(sys.modules.items())
            if name == "termdepth" or name.startswith("termdepth.")
        }
        layer_of = {qual: layer for layer, quals in LAYERS.items() for qual in quals}
        wrappers: dict[object, object] = {}
        for layer, quals in LAYERS.items():
            found = False
            for qual in quals:
                mod_name, _, fn_name = qual.partition(".")
                fn = getattr(modules.get(mod_name), fn_name, None)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(fn, layer, qual)
                    found = True
            if not found:
                self.absent.append(layer)
        for short, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if (
                    inspect.isfunction(fn)
                    and fn not in wrappers
                    and fn.__module__ == mod.__name__
                    and f"{short}.{name}" not in layer_of
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[fn] = self._wrap(fn, UNMAPPED, f"{short}.{name}")
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bindings.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def restore(self) -> None:
        while self._bindings:
            mod, name, original = self._bindings.pop()
            setattr(mod, name, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(self, fn, layer: str, qual: str):
        layer_id = self.layer_names.index(layer)
        family = _family(layer)
        stack, clock = self._stack, time.perf_counter
        before = self._shrink_before if layer == "verify.shrink" else None
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        node_arg = _NODE_ARG.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if before is not None:
                b0 = clock()
                args = before(args)
                self._charge(parent, clock() - b0)
            index = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(parent)
            self.bookkeeping.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.end[index] = clock()
                stack.pop()
            if after is not None or node_arg is not None:
                b0 = clock()
                parent_layer = self.layer_names[self.layer[parent]] if parent >= 0 else None
                if node_arg is not None and len(args) > node_arg and _family(parent_layer) != family:
                    acc = self.work.setdefault(family, [0.0, 0])
                    acc[0] += (end - self.start[index] - self.bookkeeping[index]) * 1e9
                    acc[1] += self._distinct_nodes(args[node_arg])
                if after is not None:
                    after(parent_layer, args, result)
                self._charge(parent, clock() - b0)
            return result

        return wrapper

    def _charge(self, parent: int, seconds: float) -> None:
        if parent >= 0:
            self.bookkeeping[parent] += seconds

    def _distinct_nodes(self, t) -> int:
        hit = self._node_cache.get(id(t))
        if hit is not None and hit[0] is t:
            return hit[1]
        if len(self._node_cache) > 64:
            self._node_cache.clear()
        n = ref.distinct_nodes(t)
        self._node_cache[id(t)] = (t, n)
        return n

    def _value_nodes(self, value) -> int:
        if hasattr(value, "assignment"):
            return sum(self._distinct_nodes(image) for image in value.assignment.values())
        if hasattr(value, "args") or hasattr(value, "index"):
            return self._distinct_nodes(value)
        return 0

    # -- counts taken at the layer boundaries --------------------------------

    def _after_verify_generate(self, parent_layer, args, result) -> None:
        if parent_layer != "verify.generate":
            self.generated_nodes += self._value_nodes(result)

    def _after_textio_parse(self, parent_layer, args, result) -> None:
        self.parse_bytes += len(args[0].encode())

    def _after_verify_check_theorem(self, parent_layer, args, result) -> None:
        self.trials += args[1]
        self.discrepancies += len(result)

    def _shrink_before(self, args):
        slots, fails = args[0], args[1]
        self.shrink_nodes_before += sum(self._value_nodes(v) for v in slots.values())

        def counted(trial):
            self.shrink_candidates += 1
            return fails(trial)

        return (slots, counted) + tuple(args[2:])

    def _after_verify_shrink(self, parent_layer, args, result) -> None:
        self.shrink_nodes_after += sum(self._value_nodes(v) for v in result.values())

    # -- folding spans into metrics ------------------------------------------

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer numbers, per op of the traced run where they are counts
        or seconds."""
        n = len(self.layer)
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        self_time = dict.fromkeys(self.layer_names, 0.0)
        calls = dict.fromkeys(self.layer_names, 0)
        parse_s = 0.0
        for i in range(n):
            layer = self.layer_names[self.layer[i]]
            inclusive = self.end[i] - self.start[i] - self.bookkeeping[i]
            self_time[layer] += inclusive - child_time[i]
            calls[layer] += 1
            if layer == "textio.parse":
                parse_s += inclusive

        def per_op(value: float) -> float:
            return value / ops

        def ns_per_node(family: str) -> float:
            ns, nodes = self.work.get(family, (0.0, 0))
            return ns / nodes if nodes else 0.0

        b_of_ns_per_node = ns_per_node("occurrences.b_of")
        out = {f"{layer}.self_s": (per_op(self_time[layer]), "s") for layer in LAYERS}
        out.update(
            {
                "verify.generate.nodes": (per_op(self.generated_nodes), "count"),
                "superpose.superpose.ns_per_node": (ns_per_node("superpose.superpose"), "ns"),
                "terms.measure.ns_per_node": (ns_per_node("terms.measure"), "ns"),
                "textio.parse.calls": (per_op(calls["textio.parse"]), "count"),
                "textio.parse.bytes_per_s": (self.parse_bytes / parse_s if parse_s else 0.0, "B/s"),
                "hypersub.apply_hyp.ns_per_node": (ns_per_node("hypersub.apply_hyp"), "ns"),
                "occurrences.b_of.ns_per_node": (b_of_ns_per_node, "ns"),
                "occurrences.b_of.positions_per_node": (
                    b_of_ns_per_node / self.ns_per_position if self.ns_per_position else 0.0,
                    "ratio",
                ),
                "verify.shrink.calls": (per_op(calls["verify.shrink"]), "count"),
                "verify.shrink.candidates": (per_op(self.shrink_candidates), "count"),
                "verify.shrink.size_ratio": (
                    self.shrink_nodes_after / self.shrink_nodes_before if self.shrink_nodes_before else 0.0,
                    "ratio",
                ),
                "verify.discrepancy_rate": (self.discrepancies / self.trials if self.trials else 0.0, "ratio"),
                "trace.unmapped.self_s": (per_op(self_time[UNMAPPED]), "s"),
                "trace.absent_layers": (len(self.absent), "count"),
                "trace.spans": (per_op(n), "count"),
                "trace.overhead_ratio": (overhead_ratio, "ratio"),
            }
        )
        return out


def _calibrate_b_of(td) -> float:
    """b_of's cost per tree position, in ns, on a spine whose positions are
    all distinct nodes.  ``occurrences.b_of.positions_per_node`` divides the
    traced ns per distinct node by this: about 1 for a walk linear in
    distinct nodes, about positions/nodes for a walk over tree positions.
    0 when the package no longer has ``b_of``."""
    if not hasattr(td, "b_of"):
        return 0.0
    t = td.Var(1)
    for _ in range(CALIBRATION_LEVELS):
        t = td.App("f", (t, td.Var(2)))
    h = td.identity_hyp(td.Signature({"f": 2}))
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        td.b_of(h, t)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[1] * 1e9 / (2 * CALIBRATION_LEVELS + 1)
