"""Traced runs: wrap the package's functions from outside, record spans, count work.

`Tracer.install` replaces every public function of each k3lat module, every
public method of the classes a module defines (plus the `__post_init__`,
`__call__` and `__contains__` entry points other modules call), and every
name another module imported for one of them, with a wrapper that records a
span.  Spans are kept in flat arrays in memory: function, parent span,
start and end in ns.  `Tracer.uninstall` puts the originals back.

A layer is a module; its self time is the summed duration of its spans less
the time their child spans cover.  Counters are taken at the same wrappers
and depend only on the inputs, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from time import perf_counter_ns

LAYERS = ("matrices", "discform", "nikulin", "intlat", "modarith", "twisted", "mukai", "zarhin", "cli")
ENTRY_DUNDERS = ("__post_init__", "__call__", "__contains__")


def _entry_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.maxes: dict[str, int] = {}
        self.depth = {"realize": 0, "prime_search": 0}
        self.track_max = True
        self._patches: list[tuple[object, str, object]] = []

    # -- counters ------------------------------------------------------------

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_op(self, op) -> None:
        """Maxima come only from operations meant to succeed: an operation kept
        for a fault has fixed inputs and would pin them whatever the code does."""
        self.track_max = op[2] is None

    def high(self, key: str, value: int) -> None:
        if self.track_max and value > self.maxes.get(key, 0):
            self.maxes[key] = value

    def _matrix_in(self, matrix) -> None:
        self.high("matrices.entry_bits_max", _entry_bits(matrix))

    def _hooks(self):
        """name -> (before(args), after(args, result, exc)); either may be None."""

        def hnf(args):
            rows, cols = len(args[0]), len(args[0][0]) if args[0] else 0
            self.add("matrices.hnf_calls")
            self.add("matrices.hnf_cells", rows * cols)
            self.add("matrices.hnf_transform_cells", rows * rows)
            self.high("matrices.hnf_rows_max", rows)
            self._matrix_in(args[0])

        def snf(args):
            rows, cols = len(args[0]), len(args[0][0]) if args[0] else 0
            self.add("matrices.snf_calls")
            self.add("matrices.snf_cells", rows * cols)
            self._matrix_in(args[0])

        def solve_rational(args):
            self.add("matrices.rational_solves")
            self._matrix_in(args[0])

        def smith_invariants(args):
            if self.depth["realize"]:
                self.add("nikulin.realize_smith_checks")

        def form_elements(args, result, exc):
            form = args[0]
            self.high("discform.group_order_max", form.order)
            if exc is not None:
                if type(exc).__name__ == "SizeLimitError":
                    self.add("discform.size_limit_hits")
            else:
                self.add("discform.elements_enumerated", len(result))

        def subgroup_elements(args, result, exc):
            if exc is not None:
                if type(exc).__name__ == "SizeLimitError":
                    self.add("discform.size_limit_hits")
            else:
                self.high("discform.group_order_max", len(result))
                self.add("discform.elements_enumerated", len(result))

        def realize_before(args):
            self.depth["realize"] += 1

        def realize_after(args, result, exc):
            self.depth["realize"] -= 1
            self.add("nikulin.realize_calls")
            if exc is None and result.found:
                self.add("nikulin.realize_witnesses")

        def enumerate_vectors(args, result, exc):
            lattice, _, bound = args[:3]
            self.add("intlat.box_points", (2 * bound + 1) ** lattice.rank)
            if exc is None:
                self.add("intlat.vectors_found", len(result))

        def is_prime(args):
            self.add("modarith.is_prime_calls")
            if self.depth["prime_search"]:
                self.add("modarith.prime_search_is_prime_calls")

        def prime_search_before(args):
            self.depth["prime_search"] += 1

        def prime_search_after(args, result, exc):
            self.depth["prime_search"] -= 1
            if exc is None:
                self.add("modarith.primes_returned", len(result))

        def witness_sequence(args, result, exc):
            if exc is None:
                self.add("twisted.records", len(result))
                self.high("twisted.r_bits_max", max((rec.r.bit_length() for rec in result), default=0))

        def cli_run(args, result, exc):
            if exc is None:
                self.add("cli.bytes_out", len(result[1]))

        def counter(key):
            return lambda args, result, exc: self.add(key)

        return {
            "matrices.hermite_row_form": (hnf, None),
            "matrices.smith_normal_form": (snf, None),
            "matrices.solve_rational": (solve_rational, None),
            "matrices.solve_integer": (lambda a: self._matrix_in(a[0]), None),
            "matrices.det": (lambda a: self._matrix_in(a[0]), None),
            "matrices.smith_invariants": (smith_invariants, None),
            "discform.DiscriminantForm.elements": (None, form_elements),
            "discform.FiniteSubgroup.elements": (None, subgroup_elements),
            "discform.glue_perp_quotient": (None, counter("discform.glue_quotients")),
            "nikulin.extend_glue": (None, counter("nikulin.extend_calls")),
            "nikulin.realize_embedding": (realize_before, realize_after),
            "intlat.enumerate_vectors": (None, enumerate_vectors),
            "modarith.is_prime": (is_prime, None),
            "modarith.legendre": (None, counter("modarith.legendre_calls")),
            "modarith.prime_search": (prime_search_before, prime_search_after),
            "twisted.witness_sequence": (None, witness_sequence),
            "cli.run": (None, cli_run),
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, func, name: str, layer: int, hooks):
        k = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        before, after = hooks.get(name, (None, None))
        fn_add, parent_add = self.fn.append, self.parent.append
        start_add, end_add = self.start.append, self.end.append
        ends, stack = self.end, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(ends)
            fn_add(k)
            parent_add(stack[-1])
            end_add(0)
            stack.append(idx)
            start_add(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter_ns()
                stack.pop()
                if after is not None:
                    after(args, None, exc)
                raise
            ends[idx] = perf_counter_ns()
            stack.pop()
            if after is not None:
                after(args, result, None)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = self._hooks()
        modules = {name: getattr(self.package, name) for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, (lname, mod) in enumerate(modules.items()):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    if getattr(value, "__module__", None) != mod.__name__:
                        continue
                    wrapper = self._wrap(value, f"{lname}.{attr}", layer, hooks)
                    replaced[id(value)] = wrapper
                    self._patch(mod, attr, wrapper)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, f"{lname}.{attr}", layer, hooks)
        # Names other modules (and the package root) imported for a wrapped function.
        for mod in [self.package] + list(modules.values()):
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(mod, attr, wrapper)

    def _wrap_class(self, cls, qualname: str, layer: int, hooks) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ENTRY_DUNDERS:
                continue
            name = f"{qualname}.{attr}"
            if inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, name, layer, hooks))
            elif isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(value.__func__, name, layer, hooks)))
            elif isinstance(value, functools.cached_property):
                prop = functools.cached_property(self._wrap(value.func, name, layer, hooks))
                prop.attrname = value.attrname
                self._patch(cls, attr, prop)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        n = len(self.fn)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per_layer = [0] * len(LAYERS)
        layer_of, fn = self.layer_of, self.fn
        for i in range(n):
            per_layer[layer_of[fn[i]]] += end[i] - start[i] - child[i]
        return {f"{name}.self_s": per_layer[j] / 1e9 for j, name in enumerate(LAYERS)}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        c, mx = self.counts, self.maxes

        def ratio(num: str, den: str) -> float:
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        out = {name: (value, "s") for name, value in self.self_seconds().items()}
        for key in (
            "matrices.hnf_calls", "matrices.hnf_cells", "matrices.hnf_transform_cells",
            "matrices.snf_calls", "matrices.snf_cells", "matrices.rational_solves",
            "discform.elements_enumerated", "discform.glue_quotients", "discform.size_limit_hits",
            "nikulin.extend_calls", "intlat.box_points",
            "intlat.vectors_found", "modarith.is_prime_calls", "modarith.legendre_calls",
            "twisted.records",
        ):
            out[key] = (c.get(key, 0), "count")
        out["discform.group_order_max"] = (mx.get("discform.group_order_max", 0), "count")
        out["matrices.hnf_rows_max"] = (mx.get("matrices.hnf_rows_max", 0), "rows")
        out["matrices.entry_bits_max"] = (mx.get("matrices.entry_bits_max", 0), "bits")
        out["twisted.r_bits_max"] = (mx.get("twisted.r_bits_max", 0), "bits")
        out["cli.bytes_out"] = (c.get("cli.bytes_out", 0), "bytes")
        out["nikulin.witness_ratio"] = (ratio("nikulin.realize_witnesses", "nikulin.realize_calls"), "ratio")
        out["nikulin.smith_checks_per_realize"] = (
            ratio("nikulin.realize_smith_checks", "nikulin.realize_calls"), "ratio")
        out["modarith.is_prime_per_legendre"] = (
            ratio("modarith.is_prime_calls", "modarith.legendre_calls"), "ratio")
        out["modarith.prime_yield"] = (
            ratio("modarith.primes_returned", "modarith.prime_search_is_prime_calls"), "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON header line, then the four arrays' raw bytes in header order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "functions": self.names,
            "layers": [LAYERS[j] for j in self.layer_of],
            "spans": len(self.fn),
            "arrays": [["fn", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": "native",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)
