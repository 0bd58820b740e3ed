"""Per-layer tracing of rbb from outside the package.

The tracer replaces every binding of a chosen set of public functions with
a timing wrapper.  It rebinds the name in every loaded ``rbb`` module that
holds the same function object, because several modules use from-imports
(``search`` and ``cli`` bind ``validate_model``, ``satisfies`` and
``substitute`` under their own names).  Each module of the package is one
layer.

A wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it contains; a layer's self time sums the self time
of all its spans.  A call of a function that is already on the span stack
(a recursive call) is not a new span, so ``*_calls`` counts calls from
outside the function.  Three things are special-cased:

* the eight Formula classes get a ``__hash__`` that counts and does not time;
* ``search.iter_candidates`` is wrapped as a generator: each ``next()`` is
  one ``search.enumerate`` span and each yield one candidate, and
  ``search.iter_witnesses`` counts the candidates that pass the re-check;
* the bindings of ``validate_model`` and ``satisfies`` inside ``search``
  (the public re-check of candidates) also add to ``search.recheck``.

The private search stages are left alone; splitting time between them
needs counters inside the program.  Spans are aggregated in memory, not
kept one by one: the search makes millions of calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

# (layer, function) pairs that become spans; the layer is the module name.
SPANS = (
    ("syntax", "substitute"),
    ("syntax", "is_free_for"),
    ("parser", "parse"),
    ("parser", "print_formula"),
    ("theory", "match_axiom"),
    ("proof", "check_proof"),
    ("library", "derived_library"),
    ("semantics", "validate_model"),
    ("semantics", "satisfies"),
    ("semantics", "extension"),
    ("semantics", "make_model"),
    ("search", "find_model"),
    ("search", "find_models"),
    ("jtb", "analyze_scenario"),
    ("cli", "main"),
)

FORMULA_CLASSES = (
    "Letter",
    "Not",
    "Or",
    "Supports",
    "Adequate",
    "Believes",
    "Eq",
    "ForAll",
)

LAYERS = ("syntax", "parser", "theory", "proof", "library", "semantics",
          "search", "jtb", "cli")


class Tracer:
    """Installs and removes the wrappers; holds the aggregated counts.

    ``counts`` maps ``"<layer>.<function>_calls"`` style keys to integers
    and ``times`` maps ``"<layer>.<function>_s"`` and ``"<layer>.self_s"``
    to seconds.  Use as a context manager around the traced region.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.times: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._active: set[str] = set()
        self._undo: list[Callable[[], None]] = []
        self._hashes = [0]

    # -- span bookkeeping ---------------------------------------------------

    def _span(self, layer: str, name: str, call: Callable, *args, **kwargs):
        key = f"{layer}.{name}"
        if key in self._active:
            return call(*args, **kwargs)
        self._active.add(key)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self._close(layer, key, frame, time.perf_counter() - start)
            self._active.discard(key)

    def _close(self, layer: str, key: str, frame: list[float], took: float) -> None:
        self._stack.pop()
        self.counts[f"{key}_calls"] += 1
        self.times[f"{key}_s"] += took
        self.times[f"{layer}.self_s"] += took - frame[0]
        if self._stack:
            self._stack[-1][0] += took

    def _wrap(self, layer: str, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self._span(layer, name, func, *args, **kwargs)

        return traced

    def _wrap_candidates(self, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            try:
                while True:
                    frame = [0.0]
                    tracer._stack.append(frame)
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(
                            "search", "search.enumerate", frame,
                            time.perf_counter() - start,
                        )
                    tracer.counts["search.candidates"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def _wrap_witnesses(self, func: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            for witness in func(*args, **kwargs):
                counts["search.witnesses"] += 1
                yield witness

        return traced

    def _wrap_recheck(self, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.times["search.recheck_s"] += time.perf_counter() - start

        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, original: object, replacement: object) -> None:
        """Point every rbb module's binding of ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "rbb" or modname.startswith("rbb.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        functools.partial(setattr, module, attr, original)
                    )

    def install(self) -> "Tracer":
        import rbb.cli  # noqa: F401  (loads every module the CLI binds)

        for layer, name in SPANS:
            original = getattr(sys.modules[f"rbb.{layer}"], name)
            self._rebind(original, self._wrap(layer, name, original))
        search = sys.modules["rbb.search"]
        original = search.iter_candidates
        self._rebind(original, self._wrap_candidates(original))
        original = search.iter_witnesses
        self._rebind(original, self._wrap_witnesses(original))
        for name in ("validate_model", "satisfies"):
            spanned = getattr(search, name)
            setattr(search, name, self._wrap_recheck(spanned))
            self._undo.append(functools.partial(setattr, search, name, spanned))

        syntax = sys.modules["rbb.syntax"]
        cell = self._hashes
        for cls_name in FORMULA_CLASSES:
            cls = getattr(syntax, cls_name)
            plain_hash = cls.__dict__["__hash__"]

            def counted(node, _hash=plain_hash):
                cell[0] += 1
                return _hash(node)

            cls.__hash__ = counted
            self._undo.append(functools.partial(setattr, cls, "__hash__", plain_hash))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        out["syntax.hash_calls"] = self._hashes[0]
        out.update(self.times)
        return out


def diff(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
