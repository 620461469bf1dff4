"""In-memory span and count recorder wrapped around conecert's public layers.

`Tracer.install()` replaces the public functions of each layer module, and a
few named methods, with wrappers, and rebinds every module attribute that
held the original: `cli` and `verifiers` both bind `verify`, `verifiers`
binds the `indicators` and `chambers` functions, and a call through a stale
binding would go missing without a sign.  Private names are never wrapped.

A wrapper records a span (name, start, end, parent) when it is entered from
a different metric group than the innermost open span, and only counts the
call otherwise, so a group's self time is still exact while recursion and
helpers inside one group add no spans.  `int_dot` is counted, never timed:
it is the kernel operation under `indicators` and `chambers`.

`summarize()` turns a written trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# Layer module -> (metric group of its public functions, per-name overrides).
# Each group is a self-time metric; every span's self time lands in one.
FUNCTION_GROUPS = {
    "cli": ("cli.self_s", {}),
    "corpus": ("corpus.resolve_s", {}),
    "geometry": ("geometry.project_s", {}),
    "partitions": ("partitions.frame_s", {}),
    "verifiers": ("verifiers.verify_s", {"collect_forms": "verifiers.collect_forms_s"}),
    "indicators": ("indicators.eval_s", {}),
    "chambers": (
        "chambers.enumerate_s",
        {"sample_regular": "chambers.sample_s", "wall_point": "chambers.sample_s"},
    ),
    "reports": (
        "reports.record_s",
        {
            "render_json": "reports.render_s",
            "write_text": "reports.render_s",
            "render_report_line": "reports.render_s",
            "render_verdict_line": "reports.render_s",
        },
    ),
}

# (module, class, method, group): the methods the metrics read.
METHODS = (
    ("geometry", "EuclideanBasis", "project", "geometry.project_s"),
    ("geometry", "ProjectedBasis", "__init__", "geometry.project_s"),
    ("partitions", "PartitionFrame", "__init__", "partitions.frame_s"),
    ("verifiers", "CertifySession", "__init__", "verifiers.session_s"),
    ("verifiers", "CertifySession", "run", "verifiers.run_s"),
)

COUNT_ONLY = (("linalg", "int_dot"),)

INDICATOR_FUNCS = ("partition_indicators", "theta_pair", "tau_pair", "sign_counts", "dominance")

# Every traced name a metric reads; a name missing from the package is
# reported as absent and its metrics read 0.
REQUIRED = (
    "cli.main",
    "corpus.resolve_basis",
    "geometry.EuclideanBasis.project",
    "geometry.ProjectedBasis.__init__",
    "partitions.enumerate_ordered_partitions",
    "partitions.build_frame",
    "partitions.PartitionFrame.__init__",
    "verifiers.collect_forms",
    "verifiers.CertifySession.__init__",
    "verifiers.CertifySession.run",
    "verifiers.verify",
    *(f"indicators.{f}" for f in INDICATOR_FUNCS),
    "linalg.int_dot",
    "chambers.enumerate_cells",
    "chambers.sample_regular",
    "reports.report_record",
    "reports.verdict_record",
    "reports.render_json",
)


def _count_cells(extra, result):
    extra["chambers.cells"] += len(result)
    if result:
        extra["chambers.forms_max"] = max(extra["chambers.forms_max"], len(result[0].signs))


def _count_forms(extra, result):
    h_fs, lam_fs = result
    extra["verifiers.h_forms"] += len(h_fs.forms)
    extra["verifiers.lam_forms"] += len(lam_fs.forms)


def _count_evaluated(extra, report):
    extra["verifiers.cells_evaluated"] += len(report.cells)


def _length_counter(key):
    def hook(extra, result):
        extra[key] += len(result)

    return hook


# Counts read off return values, keyed by traced name.
RESULT_HOOKS = {
    "chambers.enumerate_cells": _count_cells,
    "chambers.sample_regular": _length_counter("chambers.sample_points"),
    "partitions.enumerate_ordered_partitions": _length_counter("partitions.partitions"),
    "verifiers.collect_forms": _count_forms,
    "verifiers.CertifySession.run": _count_evaluated,
}


class Tracer:
    """Spans and call counts of one process, kept in memory until `write`."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: dict[str, str] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.absent: list[str] = []
        self._open_spans = [-1]
        self._open_groups = [None]

    def _spanned(self, name, fn, group):
        nid = len(self.names)
        self.names.append(name)
        self.groups[name] = group
        calls, extra = self.calls, self.extra
        hook = RESULT_HOOKS.get(name)
        open_spans, open_groups = self._open_spans, self._open_groups
        span_name, span_parent, start, end = self.span_name, self.span_parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if open_groups[-1] == group:
                result = fn(*args, **kwargs)
            else:
                idx = len(start)
                span_name.append(nid)
                span_parent.append(open_spans[-1])
                end.append(0.0)
                open_spans.append(idx)
                open_groups.append(group)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    open_spans.pop()
                    open_groups.pop()
            if hook is not None:
                hook(extra, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the already imported `conecert` package."""
        replaced = {}  # id(original) -> (original, wrapper)
        seen = set()
        for short, (default, overrides) in FUNCTION_GROUPS.items():
            mod = _module(short)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{short}.{attr}"
                seen.add(name)
                replaced[id(obj)] = (obj, self._spanned(name, obj, overrides.get(attr, default)))
        for short, attr in COUNT_ONLY:
            mod = _module(short)
            obj = getattr(mod, attr, None) if mod is not None else None
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                seen.add(name)
                replaced[id(obj)] = (obj, self._counted(name, obj))
        for mod in [m for n, m in sys.modules.items() if n == "conecert" or n.startswith("conecert.")]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth, group in METHODS:
            mod = _module(short)
            cls = getattr(mod, cls_name, None) if mod is not None else None
            fn = vars(cls).get(meth) if inspect.isclass(cls) else None
            if inspect.isfunction(fn):
                name = f"{short}.{cls_name}.{meth}"
                seen.add(name)
                setattr(cls, meth, self._spanned(name, fn, group))
        self.absent = [n for n in REQUIRED if n not in seen]

    def write(self, path: str) -> None:
        data = {
            "names": self.names,
            "groups": self.groups,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "calls": dict(self.calls),
            "extra": dict(self.extra),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _module(short: str):
    try:
        return importlib.import_module(f"conecert.{short}")
    except ImportError:
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(data: dict) -> Counter:
    """Self time per metric group: span duration minus its child spans."""
    start, end, parent = data["start"], data["end"], data["span_parent"]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    groups = [data["groups"][n] for n in data["names"]]
    out: Counter = Counter()
    for i, nid in enumerate(data["span_name"]):
        out[groups[nid]] += dur[i] - covered[i]
    return out


def summarize(data: dict) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from a written trace."""
    st = self_times(data)
    calls = Counter(data["calls"])
    extra = Counter(data["extra"])
    projects = calls["geometry.EuclideanBasis.project"]
    projections = calls["geometry.ProjectedBasis.__init__"]
    frame_calls = calls["partitions.build_frame"]
    frames = calls["partitions.PartitionFrame.__init__"]
    return {
        "cli.self_s": (st["cli.self_s"], "s"),
        "corpus.resolve_s": (st["corpus.resolve_s"], "s"),
        "geometry.project_calls": (projects, "count"),
        "geometry.projections_built": (projections, "count"),
        "geometry.project_hit_ratio": (_ratio(projects - projections, projects), "ratio"),
        "geometry.project_s": (st["geometry.project_s"], "s"),
        "partitions.partitions": (extra["partitions.partitions"], "count"),
        "partitions.frame_calls": (frame_calls, "count"),
        "partitions.frames_built": (frames, "count"),
        "partitions.frame_hit_ratio": (_ratio(frame_calls - frames, frame_calls), "ratio"),
        "partitions.frame_s": (st["partitions.frame_s"], "s"),
        "verifiers.collect_forms_s": (st["verifiers.collect_forms_s"], "s"),
        "verifiers.h_forms": (extra["verifiers.h_forms"], "count"),
        "verifiers.lam_forms": (extra["verifiers.lam_forms"], "count"),
        "verifiers.sessions": (calls["verifiers.CertifySession.__init__"], "count"),
        "verifiers.session_s": (st["verifiers.session_s"], "s"),
        "verifiers.runs": (calls["verifiers.CertifySession.run"], "count"),
        "verifiers.run_s": (st["verifiers.run_s"], "s"),
        "verifiers.cells_evaluated": (extra["verifiers.cells_evaluated"], "count"),
        "verifiers.verify_calls": (calls["verifiers.verify"], "count"),
        "verifiers.verify_s": (st["verifiers.verify_s"], "s"),
        "indicators.calls": (sum(calls[f"indicators.{f}"] for f in INDICATOR_FUNCS), "count"),
        "indicators.partition_indicators_calls": (
            calls["indicators.partition_indicators"],
            "count",
        ),
        "indicators.eval_s": (st["indicators.eval_s"], "s"),
        "linalg.int_dot_calls": (calls["linalg.int_dot"], "count"),
        "chambers.enumerations": (calls["chambers.enumerate_cells"], "count"),
        "chambers.cells": (extra["chambers.cells"], "count"),
        "chambers.forms_max": (extra["chambers.forms_max"], "count"),
        "chambers.enumerate_s": (st["chambers.enumerate_s"], "s"),
        "chambers.sample_points": (extra["chambers.sample_points"], "count"),
        "chambers.sample_s": (st["chambers.sample_s"], "s"),
        "reports.records": (
            calls["reports.report_record"] + calls["reports.verdict_record"],
            "count",
        ),
        "reports.record_s": (st["reports.record_s"], "s"),
        "reports.render_s": (st["reports.render_s"], "s"),
    }
