"""Span self-time arithmetic, hook installation and metric status."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import tracing  # noqa: E402


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_nested_tree():
    clock = ManualClock()
    tracer = tracing.Tracer(clock=clock)
    with tracer.context("run-1"):
        with tracer.span("root"):          # [0, 10]
            clock.now = 1.0
            with tracer.span("a"):         # [1, 4]
                clock.now = 2.0
                with tracer.span("a1"):    # [2, 3]
                    clock.now = 3.0
                clock.now = 4.0
            clock.now = 6.0
            with tracer.span("b"):         # [6, 9]
                clock.now = 9.0
            clock.now = 10.0
    own = tracing.self_times(tracer.spans)
    spans = {span.name: span for span in tracer.spans}
    assert {name: own[span.id] for name, span in spans.items()} == {
        "root": 4.0, "a": 2.0, "a1": 1.0, "b": 3.0,
    }
    assert spans["a1"].parent == spans["a"].id
    assert spans["b"].parent == spans["root"].id
    assert {span.ctx for span in tracer.spans} == {"run-1"}


def test_overlapping_children_are_subtracted_once():
    Span = tracing.Span
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "child", 1.0, 5.0),
        Span(3, 1, "child", 3.0, 7.0),    # overlaps the first child
        Span(4, 1, "child", 9.0, 12.0),   # runs past the parent's end
    ]
    assert tracing.self_times(spans)[1] == 10.0 - 6.0 - 1.0


class Widget:
    def work(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls(), x


class Gadget(Widget):
    pass


def test_hooks_wrap_inherited_methods_and_classmethods_then_restore():
    tracer = tracing.Tracer()
    hooks = tracing.HookSet(tracer, [
        tracing.Hook("t.work", (f"{__name__}:Gadget.work",),
                     exit=lambda args, kwargs, result: {"result": result}),
        tracing.Hook("t.build", (f"{__name__}:Widget.build",)),
    ]).install()
    try:
        assert Gadget().work(1) == 2
        assert Widget().work(1) == 2          # the base class stays unwrapped
        assert isinstance(Widget.build(3)[0], Widget)
    finally:
        hooks.uninstall()
    assert [span.name for span in tracer.spans] == ["t.work", "t.build"]
    assert tracer.spans[0].attrs == {"result": 2}
    assert "work" not in Gadget.__dict__
    assert isinstance(Widget.__dict__["build"], classmethod)
    assert not hooks.missing


def test_missing_targets_are_reported_and_never_raise():
    hooks = tracing.HookSet(tracing.Tracer(), [
        tracing.Hook("x", ("json:no_such_function",)),
        tracing.Hook("y", ("no_such_module_for_perfbench:f",)),
    ]).install()
    assert sorted(hooks.missing) == ["x", "y"]


def test_a_missing_hook_leaves_its_metrics_without_a_value():
    report = layers.summarize([], kind="serve", level_sizes=[8, 4, 2, 2, 2],
                              missing={"alignment.kmeans": ["gone"]})
    assert report["alignment.kmeans_fits"]["status"] == "missing"
    assert report["alignment.kmeans_fits"]["value"] is None
    assert report["ml.smo_fits"] == {"value": 0, "unit": "count", "status": "n/a"}
    line = layers.summary_line(report)
    assert "alignment.kmeans_fits" not in line
    assert line["ml.smo_fits"] == {"value": 0, "unit": "count"}
