"""In-memory span tracing by wrapping functions from outside the program.

`Tracer.install` replaces each target function wherever a loaded
`bitguard` module binds it: modules import names directly
(`from .engine import evaluate`), so patching only the defining module
would miss most calls.  Each call records a span with its parent span;
self time is the span's duration minus the time its child spans cover.
`uninstall` puts every original back.
"""

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

Observer = Callable[[tuple, dict, object], dict]


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "info")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def resolve(path: str):
    """Return (owner, attribute, value) for a dotted module[.Class].attr path."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"cannot resolve {path}")


class Tracer:
    """Spans for calls to the target functions, kept in memory."""

    def __init__(self, targets: Dict[str, str],
                 observers: Optional[Dict[str, Observer]] = None,
                 package: str = "bitguard"):
        self.targets = targets  # span name -> dotted path of the function
        self.observers = observers or {}
        self.package = package
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if observe is not None:
                span.info = observe(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, path in self.targets.items():
            owner, attr, fn = resolve(path)
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                # methods are looked up on the class at call time
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package
                                      or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive total_s and exclusive self_s.

        A span nested inside a span of the same name adds to calls and
        self_s but not again to total_s, so self_s never exceeds total_s.
        """
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name,
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_s
            up = span.parent
            while up is not None and up.name != span.name:
                up = up.parent
            if up is None:
                row["total_s"] += span.duration
        return out
