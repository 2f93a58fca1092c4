"""Outside-in call tracer.

The tracer times calls into a package from outside, without touching its
source: every module-level binding of a target function, across all of the
package's module namespaces, is replaced by a timing wrapper, found by object
identity so that re-exports such as ``from .sparsecut import
sparsest_cut_exact`` are covered too.  Methods are wrapped on their class.
Spans stay in memory, each with the index of the span that was open when it
started, and ``uninstall`` puts every original object back.

Bindings the scan cannot see (a function stored in a container, a default
argument or a closure) are not traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    """One traced call: its name, the index of its parent span (-1 at top
    level), the request it served, start and end in clock units, and what the
    target's info hook extracted from the call."""

    name: str
    parent: int
    request: Any
    start: int = 0
    end: int = 0
    info: Any = None

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A callable to trace: ``attr`` is a module attribute name or
    ``Class.method``.  ``info(args, kwargs, result)`` may extract a value from
    a successful call; it is stored on the span."""

    name: str
    module: str
    attr: str
    info: Callable[[tuple, dict, Any], Any] | None = None


class Tracer:
    """Wraps the targets while installed (also as a context manager) and
    records one span per call.  Single-threaded: spans nest by call order."""

    def __init__(self, targets, package: str, clock: Callable[[], int] = time.perf_counter_ns):
        self.targets = list(targets)
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self.request: Any = None
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []  # (owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install_one(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._patch(owner, meth, original, self._wrap(target, original))
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(target, original)
        for namespace, attr in self._bindings(original):
            self._patch(namespace, attr, original, wrapper)

    def _bindings(self, obj) -> list[tuple[Any, str]]:
        """Every (module, attribute) of the package that is bound to obj."""
        found = []
        for name, module in list(sys.modules.items()):
            if module is None:
                continue
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is obj:
                    found.append((module, attr))
        return found

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        name, info = target.name, target.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.
    Calls nest strictly in one thread, so children never overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
