"""In-memory tracing of pogamma's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules
with a timing wrapper, everywhere the function is looked up: in every
module namespace (`theorems` imports `setcalc` names by value, `cli`
imports `sweep`, `formats` imports `validate_structure`, and the package
re-exports almost everything) and in module-level dispatch dicts
(`theorems._SINGLE_CHECKERS`).  `uninstall()` puts the originals back.

Spans are aggregated per node as they close, because a (4, 1) sweep
opens millions of them: for each node the tracer keeps its inclusive
seconds (time inside its outermost spans), its self seconds (span time
minus the time of child spans of other nodes) and its span count, and
for each function its call, yield and error counts.  A node is one
function, or a group of functions that form one layer step; a call into
a node from inside the same node is counted but not timed, and so are
the nested set-calculus helpers listed in FOLD_NESTED.  Generator
functions are timed around each `next()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

MODULES = ("enumeration", "theorems", "setcalc", "model", "formats", "cli")

# functions that share a node with others; every other public function
# `f` of module `mod` is its own node `mod.f`
GROUPS = {
    "enumeration.canonical": ("canonical_key", "relabel", "structure_encoding"),
    "enumeration.tables": ("enumerate_tables",),
    "enumeration.orders": ("enumerate_orders", "order_compatible", "all_partial_orders"),
    "enumeration.structures": ("enumerate_structures",),
    "theorems.thm8": ("check_thm8", "thm8_witness"),
    "theorems.run": ("run_selected", "run_all"),
    "model.validate_structure": ("validate_structure", "validate_gamma_tables",
                                 "validate_order", "validate_compatibility"),
    "formats.load": ("load_named", "load", "doc_to_structure"),
    "formats.serialize_report": ("serialize_report", "report_to_doc", "structure_to_doc"),
    "cli.main": ("main", "cmd_validate", "cmd_analyze", "cmd_check", "cmd_sweep"),
}

# inside a span of the same module these are counted but not timed: the
# set-calculus helpers nest deeply and would otherwise open millions of
# spans per sweep; the four the fact layer targets are always timed
FOLD_NESTED = ("setcalc",)
ALWAYS_TIMED = ("setcalc.all_bi_ideals", "setcalc.regularity",
                "setcalc.bi_ideal_generated_formula", "setcalc.downward_closure")
_DONE = object()   # what a timed next() returns when the generator is exhausted


def node_of(module: str, name: str) -> str:
    for node, names in GROUPS.items():
        if node.split(".")[0] == module and name in names:
            return node
    if module == "theorems" and name.startswith("check_"):
        return f"theorems.{name[len('check_'):]}"
    return f"{module}.{name}"


def _traceable(module, obj) -> bool:
    if inspect.isclass(obj) or getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Aggregated spans and counters for one traced region."""

    def __init__(self):
        self.calls = Counter()      # "module.function" -> calls
        self.yields = Counter()     # "module.function" -> items yielded
        self.errors = Counter()     # "module.function" -> exceptions raised
        self._nodes = {}            # node -> [spans, self seconds, inclusive seconds, open spans]
        self._stack = []            # open spans: [node, seconds of child spans, module]
        self._patched = []          # (namespace dict, key, original)

    @property
    def spans(self) -> dict:
        return {node: st[0] for node, st in self._nodes.items()}

    @property
    def self_s(self) -> dict:
        return {node: st[1] for node, st in self._nodes.items()}

    @property
    def inclusive(self) -> dict:
        return {node: st[2] for node, st in self._nodes.items()}

    # -- spans ---------------------------------------------------------

    def _wrap_function(self, qualname, node, fn, calls=None):
        """`fn` timed as one span of `node` per call, each call counted in
        `calls` (the tracer's call counts unless given).  The span logic
        is inline because this wrapper runs millions of times per sweep:
        calling out to enter/leave helpers raised the tracing overhead
        of a (3, 2) sweep of about 3 s from 1.4 s to 1.9 s (medians of
        three traced runs each, on a 2-core VM)."""
        module = qualname.split(".", 1)[0]
        fold_in_module = module in FOLD_NESTED and qualname not in ALWAYS_TIMED
        st = self._nodes.setdefault(node, [0, 0.0, 0.0, 0])
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        calls = self.calls if calls is None else calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if stack:
                top = stack[-1]
                if top[0] is node or (fold_in_module and top[2] == module):
                    try:
                        return fn(*args, **kwargs)
                    except BaseException:
                        errors[qualname] += 1
                        raise
            frame = [node, 0.0, module]
            stack.append(frame)
            st[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[qualname] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                st[0] += 1
                st[1] += duration - frame[1]
                st[3] -= 1
                if not st[3]:
                    st[2] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _wrap_generator(self, qualname, node, fn):
        # each next() is one span; the steps are not calls of `fn`
        step = self._wrap_function(qualname, node, next, calls=Counter())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qualname] += 1
            return self._timed_iter(qualname, step, fn(*args, **kwargs))

        return wrapper

    def _timed_iter(self, qualname, step, it):
        try:
            while (item := step(it, _DONE)) is not _DONE:
                self.yields[qualname] += 1
                yield item
        finally:
            it.close()

    # -- patching ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module(f"pogamma.{m}") for m in MODULES]
        wrappers = {}
        for module in namespaces:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if name.startswith("_") or not _traceable(module, obj):
                    continue
                qualname, node = f"{short}.{name}", node_of(short, name)
                if inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = self._wrap_generator(qualname, node, obj)
                else:
                    wrappers[id(obj)] = self._wrap_function(qualname, node, obj)
        # module attributes, and module-level dicts that hold functions
        # (theorems dispatches most checkers through one)
        tables = []
        for namespace in namespaces + [importlib.import_module("pogamma")]:
            tables.append(vars(namespace))
            tables.extend(v for v in vars(namespace).values() if type(v) is dict)
        for table in tables:
            for key, obj in list(table.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((table, key, obj))
                    table[key] = wrapper
        return self

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain counters, mergeable across processes with `merge`."""
        return {
            "calls": dict(self.calls), "yields": dict(self.yields),
            "errors": dict(self.errors), "spans": self.spans,
            "inclusive": self.inclusive, "self_s": self.self_s,
        }


def merge(snapshots) -> dict:
    """Sum counters and seconds key by key over several snapshots."""
    out = {}
    for snap in snapshots:
        for field, table in snap.items():
            acc = out.setdefault(field, {})
            for key, value in table.items():
                acc[key] = acc.get(key, 0) + value
    return out
