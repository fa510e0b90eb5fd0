"""``repro.trace``: the zero-wall-clock, deterministic tracing plane.

Public surface::

    from repro.trace import Tracer, Category, NO_TRACE
    from repro.trace import CycleHistogram, attribution, boot_breakdown
    from repro.trace import to_chrome_json, render_timeline

    wasp = Wasp(tracer=True)          # or Wasp(tracer=Tracer())
    wasp.launch(image, ...)
    tree = wasp.tracer.launches()[-1]  # the launch's span tree
    print(render_timeline(tree))
    open("trace.json", "w").write(to_chrome_json(wasp.tracer))
"""

from repro.trace.attribution import (
    attribution,
    boot_breakdown,
    milestone_deltas,
    phase_histograms,
)
from repro.trace.export import (
    cluster_chrome_json,
    cluster_chrome_trace,
    render_timeline,
    to_chrome_json,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.trace.histogram import BUCKETS, CycleHistogram
from repro.trace.tracer import (
    NO_TRACE,
    OTHER,
    Category,
    Event,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NO_TRACE",
    "Span",
    "Event",
    "Category",
    "OTHER",
    "CycleHistogram",
    "BUCKETS",
    "attribution",
    "boot_breakdown",
    "milestone_deltas",
    "phase_histograms",
    "to_chrome_trace",
    "to_chrome_json",
    "cluster_chrome_trace",
    "cluster_chrome_json",
    "validate_chrome_trace",
    "render_timeline",
]
