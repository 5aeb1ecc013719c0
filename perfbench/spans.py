"""In-memory spans around the public calls of each histolim layer, and the
per-layer metrics computed from them.

Tracing is installed from outside the package: `install` replaces the
module-level names that `histolim.cli`, `histolim.diagnostics` and
`histolim.sampling` call (plus the `assemble_sigma` name that
`histolim.systems` and `histolim.conditions` call, and a few class methods)
with wrappers that record a span per call.  No file under `src/` changes.

A span is ``(id, name, start, end, parent, extra)``: ``start``/``end`` are
``time.perf_counter`` readings, ``parent`` is the id of the enclosing span
(or None) and ``extra`` holds counts taken at the boundary.  Spans stay in
memory and are written out once, when the traced command ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

TERMINAL = ("holds", "fails")

# Per-layer metrics: (name, unit, better).  Probe metrics come from
# direct calls (probes.py); `cli.<subcommand>_s` and `trace.overhead_s`
# come from the untraced passes of the traced run.
PER_LAYER = (
    ("partitions.chain_s", "s", "lower"),
    ("partitions.cells_built", "count", "lower"),
    ("partitions.refinement14_s", "s", "lower"),
    ("partitions.refinement16_s", "s", "lower"),
    ("systems.load_s", "s", "lower"),
    ("systems.mean_s", "s", "lower"),
    ("systems.sigma_s", "s", "lower"),
    ("systems.sigma_kernel5_s", "s", "lower"),
    ("systems.sigma_kernel6_s", "s", "lower"),
    ("systems.sigma_kernel7_s", "s", "lower"),
    ("streams.chunks", "count", "higher"),
    ("streams.parallel_efficiency", "ratio", "higher"),
    ("sampling.stack_s", "s", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("sampling.draw_s", "s", "lower"),
    ("sampling.cells_per_s", "1/s", "higher"),
    ("sampling.computed_mb", "MB", "lower"),
    ("sampling.path_s", "s", "lower"),
    ("sampling.stack12_dirichlet_s", "s", "lower"),
    ("sampling.stack12_polya_m2_s", "s", "lower"),
    ("sampling.stack12_gaussian_diagonal_s", "s", "lower"),
    ("histograms.validate_s", "s", "lower"),
    ("histograms.csv_s", "s", "lower"),
    ("histograms.json_s", "s", "lower"),
    ("histograms.out_mb", "MB", "lower"),
    ("histograms.truncation_s", "s", "lower"),
    ("conditions.polya_s", "s", "lower"),
    ("conditions.dirichlet_s", "s", "lower"),
    ("conditions.gaussian_s", "s", "lower"),
    ("conditions.terminal_ratio", "ratio", "higher"),
    ("diagnostics.atomicity_s", "s", "lower"),
    ("diagnostics.domination_s", "s", "lower"),
    ("diagnostics.phase_self_s", "s", "lower"),
    ("diagnostics.tv_curve10_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.check_s", "s", "lower"),
    ("cli.mean_s", "s", "lower"),
    ("cli.diagnose_s", "s", "lower"),
    ("cli.sample_s", "s", "lower"),
    ("cli.path_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Inclusive time of the outermost spans carrying one of these names.
_INCLUSIVE = {
    "partitions.chain_s": ("partitions.dyadic_chain",),
    "systems.load_s": ("systems.system_from_json",),
    "systems.mean_s": ("systems.mean",),
    "systems.sigma_s": ("systems.sigma",),
    "sampling.stack_s": ("sampling.sample_stack",),
    "sampling.path_s": ("sampling.path_from_histogram",),
    "histograms.validate_s": ("histograms.validate",),
    "histograms.csv_s": ("histograms.csv",),
    "histograms.json_s": ("histograms.dump_json",),
    "histograms.truncation_s": ("histograms.truncation_values",),
    "conditions.polya_s": ("conditions.polya",),
    "conditions.dirichlet_s": ("conditions.dirichlet",),
    "conditions.gaussian_s": ("conditions.gaussian",),
    "diagnostics.atomicity_s": ("diagnostics.atomicity_statistic",),
    "diagnostics.domination_s": ("diagnostics.domination_statistic",),
}

# Self time: span duration minus the part its child spans cover.
_SELF = {
    "sampling.self_s": "sampling.sample_stack",
    "diagnostics.phase_self_s": "diagnostics.phase_report",
    "cli.self_s": "cli.main",
}

_CONDITIONS = {
    "polya": ("polya_tight_condition", "polya_leakage_condition",
              "polya_weak_condition"),
    "dirichlet": ("dirichlet_condition", "dirichlet_weak_condition"),
    "gaussian": ("gaussian_conditions",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        extra: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid, extra
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, extra))

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call;
        ``note(extra, result)`` adds counts to the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as (_, extra):
                result = fn(*args, **kwargs)
                if note is not None:
                    note(extra, result)
            return result

        setattr(owner, attr, traced)

    def wrap_run_chunked(self, owner) -> None:
        """Span per `run_chunked` call, and a child span per chunk draw
        (recorded from the worker thread that ran it)."""
        fn = owner.run_chunked

        @functools.wraps(fn)
        def traced(stream, n, draw, *, jobs=1, **kwargs):
            with self.span("streams.run_chunked") as (sid, extra):
                extra["jobs"] = jobs

                def timed_draw(sub, k):
                    with self.span("streams.chunk", parent=sid) as (_, chunk):
                        rows = draw(sub, k)
                        chunk["cells"] = int(rows.size)
                    return rows

                return fn(stream, n, timed_draw, jobs=jobs, **kwargs)

        owner.run_chunked = traced


def _count_cells(extra: dict, chain) -> None:
    extra["cells"] = sum(len(chain[level]) for level in range(chain.depth + 1))


def _count_verdicts(extra: dict, result) -> None:
    verdicts = list(result.values()) if isinstance(result, dict) else [result]
    extra["verdicts"] = len(verdicts)
    extra["terminal"] = sum(v.status in TERMINAL for v in verdicts)


def install() -> Tracer:
    """Wrap the layer entry points of the imported histolim package."""
    import histolim.cli as cli
    import histolim.conditions as conditions
    import histolim.diagnostics as diagnostics
    import histolim.histograms as histograms
    import histolim.sampling as sampling
    import histolim.systems as systems

    t = Tracer()
    for module in (cli, diagnostics):
        for family, names in _CONDITIONS.items():
            for attr in names:
                t.wrap(module, attr, f"conditions.{family}", _count_verdicts)
        t.wrap(module, "sample_stack", "sampling.sample_stack")
    t.wrap(cli, "system_from_json", "systems.system_from_json")
    t.wrap(cli, "dyadic_chain", "partitions.dyadic_chain", _count_cells)
    t.wrap(cli, "path_from_histogram", "sampling.path_from_histogram")
    t.wrap(cli, "stack_to_csv", "histograms.csv")
    t.wrap(cli, "histogram_to_csv", "histograms.csv")
    t.wrap(cli, "dump_json", "histograms.dump_json")
    t.wrap(cli, "phase_report", "diagnostics.phase_report")
    t.wrap(diagnostics, "atomicity_statistic", "diagnostics.atomicity_statistic")
    t.wrap(diagnostics, "domination_statistic", "diagnostics.domination_statistic")
    t.wrap(diagnostics, "truncation_values", "histograms.truncation_values")
    t.wrap(sampling, "sigma_factor", "systems.sigma")
    t.wrap(systems, "assemble_sigma", "systems.sigma")
    t.wrap(conditions, "assemble_sigma", "systems.sigma")
    for cls, attr in ((systems.PolyaTreeSystem, "mean"),
                      (systems.DirichletSystem, "mean"),
                      (systems.GaussianSystem, "centre_histogram"),
                      (systems.GaussianSystem, "q_alpha")):
        t.wrap(cls, attr, "systems.mean")
    for cls in (histograms.Histogram, histograms.HistogramStack):
        t.wrap(cls, "__post_init__", "histograms.validate")
    t.wrap_run_chunked(sampling)
    return t


# ---------------------------------------------------------------------------
# metrics from spans

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def command_layers(spans) -> dict[str, float]:
    """Additive per-layer quantities of one command's spans.  Ratios are
    formed later, from the sums over a pass."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)

    def outermost(span, names) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] in names:
                return False
            parent = by_id.get(parent[4])
        return True

    out = {}
    for metric, names in _INCLUSIVE.items():
        out[metric] = sum(s[3] - s[2] for s in spans
                          if s[1] in names and outermost(s, names))
    for metric, name in _SELF.items():
        out[metric] = sum(
            (s[3] - s[2]) - _covered([(c[2], c[3]) for c in children.get(s[0], ())],
                                     s[2], s[3])
            for s in spans if s[1] == name)

    chunks = [s for s in spans if s[1] == "streams.chunk"]
    out["streams.chunks"] = len(chunks)
    out["sampling.draw_s"] = sum(s[3] - s[2] for s in chunks)
    out["draw_cells"] = sum(s[5].get("cells", 0) for s in chunks)
    out["chunk_capacity_s"] = sum(
        (s[3] - s[2]) * min(s[5]["jobs"], sum(c[1] == "streams.chunk"
                                              for c in children.get(s[0], ())))
        for s in spans if s[1] == "streams.run_chunked")
    out["partitions.cells_built"] = sum(s[5].get("cells", 0) for s in spans
                                        if s[1] == "partitions.dyadic_chain")
    out["verdicts"] = sum(s[5].get("verdicts", 0) for s in spans)
    out["terminal"] = sum(s[5].get("terminal", 0) for s in spans)
    return out


def pass_layers(per_command: list[dict], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its commands' quantities."""
    total: dict[str, float] = {}
    for layers in per_command:
        for key, value in layers.items():
            total[key] = total.get(key, 0) + value
    draw_s = total.pop("sampling.draw_s")
    cells = total.pop("draw_cells")
    capacity = total.pop("chunk_capacity_s")
    verdicts = total.pop("verdicts")
    terminal = total.pop("terminal")
    total["sampling.draw_s"] = draw_s
    total["sampling.cells_per_s"] = cells / draw_s if draw_s > 0 else 0.0
    total["sampling.computed_mb"] = cells * 8 / 1e6
    total["streams.parallel_efficiency"] = draw_s / capacity if capacity > 0 else 0.0
    total["conditions.terminal_ratio"] = terminal / verdicts if verdicts else 0.0
    total["histograms.out_mb"] = out_bytes / 1e6
    return total

