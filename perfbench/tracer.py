"""Outside-in span tracer for the hardyrellich layers.

The tracer wraps the public functions of each package module from outside
the program and rebinds every name another module imported with
``from ... import``, so ``hardy.min_generalized_eigenvalue`` and
``suites.bilaplacian_form`` are traced like the originals.  Each call
records one span (name, parent span, start, end, outcome, attributes) on
a thread-local stack; spans stay in memory until the caller reads them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, modules: Iterable[ModuleType], old, new) -> None:
        """Point every module-level name bound to ``old`` at ``new``."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is old:
                    self.set(module, name, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def public_functions(module: ModuleType):
    """(name, function) for each public function the module defines."""
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


class Tracer(Patcher):
    """Records spans for wrapped callables; ``clock`` is injectable so the
    self-time arithmetic can be tested exactly."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn: Callable, name: str,
             attrs: Callable[[tuple, dict, object], dict] | None = None) -> Callable:
        """Traced version of ``fn``; ``attrs(args, kwargs, result)`` adds
        span attributes after a successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1].id if stack else None,
                        name, self.clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def instrument_modules(self, modules: list[ModuleType], prefix: str,
                           hooks: dict | None = None) -> None:
        """Wrap every public function of ``modules`` as span
        ``<module name without prefix>.<function>`` and rebind its aliases
        in all of ``modules``."""
        hooks = hooks or {}
        for module in modules:
            short = module.__name__.removeprefix(prefix)
            for fname, fn in list(public_functions(module)):
                span_name = f"{short}.{fname}"
                self.rebind(modules, fn, self.wrap(fn, span_name, hooks.get(span_name)))

    def instrument_method(self, cls: type, method: str, span_name: str,
                          attrs=None) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, staticmethod):
            self.set(cls, method, staticmethod(self.wrap(raw.__func__, span_name, attrs)))
        else:
            self.set(cls, method, self.wrap(raw, span_name, attrs))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = dict.fromkeys((s.id for s in self.spans), 0.0)
        for s in self.spans:
            if s.parent is not None and s.parent in child:
                child[s.parent] += s.duration
        return {s.id: s.duration - child[s.id] for s in self.spans}
