"""In-memory spans recorded around the program's public entry points.

The benchmark wraps each layer's entry points from its own files (the
program itself carries no tracing). A wrapper opens a span on entry and
closes it on exit; spans nest through a per-thread stack, so a span's
parent is the innermost span open in the same thread when it started.
Spans stay in memory until the run ends and are then written as JSONL.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: "int | None"
    name: str
    start: float
    end: float
    #: Run id (cells) or request id(s) (serve) the span worked for.
    ctx: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        """The innermost span open in this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def context(self, ctx: str):
        """Tag spans opened by this thread (outside any span) with ``ctx``."""
        previous = getattr(self._local, "ctx", "")
        self._local.ctx = ctx
        try:
            yield
        finally:
            self._local.ctx = previous

    @contextmanager
    def span(self, name: str, ctx: "str | None" = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ctx is None:
            ctx = parent.ctx if parent else getattr(self._local, "ctx", "")
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, parent.id if parent else None, name,
                    self.clock(), 0.0, ctx, attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def load_spans(path) -> "list[Span]":
    with open(path) as source:
        return [Span(**json.loads(line)) for line in source if line.strip()]


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Span id → duration minus the union of its children's intervals."""
    children: "dict[int, list[Span]]" = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


# --------------------------------------------------------------------- #
# Hooks: wrappers installed around the program's entry points
# --------------------------------------------------------------------- #


@dataclass
class Hook:
    """One span name over one or more ``"module:Attr.path"`` targets.

    ``enter(args, kwargs) -> dict`` and ``exit(args, kwargs, result) ->
    dict`` add span attributes; an ``enter`` result may carry ``ctx``.
    """

    name: str
    targets: "tuple[str, ...]"
    enter: object = None
    exit: object = None


def _resolve(target: str):
    """``(owner, attribute, raw descriptor)`` for a hook target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, attribute)
    else:
        raw = getattr(owner, attribute)
    return owner, attribute, raw


class HookSet:
    """Installs wrappers for a list of hooks and restores the originals.

    A target that no longer exists is recorded in :attr:`missing` (hook
    name → reasons) and skipped; it never fails the run.
    """

    def __init__(self, tracer: Tracer, hooks: "list[Hook]") -> None:
        self.tracer = tracer
        self.hooks = hooks
        self.missing: "dict[str, list[str]]" = {}
        self._restore: list = []

    def install(self) -> "HookSet":
        for hook in self.hooks:
            for target in hook.targets:
                try:
                    owner, attribute, raw = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    reason = f"{target}: {type(exc).__name__}: {exc}"
                    reasons = self.missing.setdefault(hook.name, [])
                    if reason not in reasons:
                        reasons.append(reason)
                    continue
                self._patch(hook, owner, attribute, raw)
        return self

    def _patch(self, hook: Hook, owner, attribute: str, raw) -> None:
        kind = None
        function = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind, function = type(raw), raw.__func__
        wrapper = _wrap(self.tracer, hook, function)
        owned = not inspect.isclass(owner) or attribute in owner.__dict__
        setattr(owner, attribute, kind(wrapper) if kind else wrapper)
        if owned:
            self._restore.append(lambda: setattr(owner, attribute, raw))
        else:
            # Inherited attribute: drop the override to uncover it again.
            self._restore.append(lambda: delattr(owner, attribute))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _wrap(tracer: Tracer, hook: Hook, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        attrs = dict(hook.enter(args, kwargs)) if hook.enter else {}
        ctx = attrs.pop("ctx", None)
        with tracer.span(hook.name, ctx=ctx, **attrs) as span:
            result = function(*args, **kwargs)
            if hook.exit:
                span.attrs.update(hook.exit(args, kwargs, result))
            return result

    return wrapper
