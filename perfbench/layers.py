"""Per-layer metrics derived from the spans of a traced run.

A span is ``[name, start_s, end_s, parent_index, run_id, maxrss_kb_at_end]``
as written by ``traced.py``; span names are ``<layer>.<function>``. A layer's
self time is the time its spans cover minus the time their child spans
cover, so the self times of all layers add up to ``cli.main``.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

LAYERS = ("scenario", "infonet", "contactnet", "abm", "meanfield", "cli")

# Metric -> the span whose total duration it reports.
SPAN_TOTALS = {
    "scenario.generate_s": "scenario.generate_scenario",
    "infonet.generate_s": "infonet.generate_synthetic_infonet",
    "scenario.save_s": "scenario.save_scenario",
    "infonet.save_s": "infonet.save_infonet",
    "scenario.load_s": "scenario.load_scenario",
    "infonet.load_s": "infonet.load_infonet",
    "infonet.spread_s": "infonet.spread_misinformation",
    "contactnet.sample_s": "contactnet.sample_population",
    "contactnet.build_s": "contactnet.build_contact_network",
    "contactnet.save_s": "contactnet.save_contact_network",
    "abm.write_result_s": "abm.write_result_csv",
    "abm.run_s": "abm.run",
    "meanfield.integrate_s": "meanfield.integrate",
    "meanfield.sweep_s": "meanfield.sweep",
    "meanfield.sweep_grid_s": "meanfield.sweep_grid",
    "cli.write_trajectory_csv_s": "cli.write_trajectory_csv",
    "cli.main_s": "cli.main",
}
# Measured in the traced set-up (gen-scenario), not in the timed command.
SETUP_METRICS = ("scenario.generate_s", "infonet.generate_s", "scenario.save_s", "infonet.save_s")

# Every per-layer metric, in report order, with its unit.
UNITS = {
    "scenario.generate_s": "s",
    "infonet.generate_s": "s",
    "scenario.save_s": "s",
    "infonet.save_s": "s",
    "scenario.load_s": "s",
    "infonet.load_s": "s",
    "infonet.spread_s": "s",
    "contactnet.sample_s": "s",
    "contactnet.build_s": "s",
    "contactnet.build_edges_per_s": "edges/s",
    "contactnet.blocks": "count",
    "contactnet.edges": "count",
    "contactnet.rss_hwm_mb": "MB",
    "contactnet.save_s": "s",
    "abm.write_result_s": "s",
    "abm.run_s": "s",
    "abm.step_s.p50": "s",
    "abm.step_s.p90": "s",
    "abm.run_self_s": "s",
    "abm.rss_hwm_mb": "MB",
    "abm.node_days": "count",
    "abm.active_fraction": "fraction",
    "abm.live_days": "days",
    "meanfield.integrate_calls": "count",
    "meanfield.integrate_s": "s",
    "meanfield.sweep_s": "s",
    "meanfield.sweep_grid_s": "s",
    "cli.write_trajectory_csv_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class SpanSet:
    """Spans of one traced iteration, possibly from several processes."""

    def __init__(self, files: list[Path]):
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self.smirsim_files: set[str] = set()
        for path in files:
            data = json.loads(path.read_text())
            offset = len(self.spans)
            for name, start, end, parent, run_id, rss in data["spans"]:
                self.spans.append(
                    [name, start, end, parent + offset if parent >= 0 else -1, run_id, rss]
                )
            self.wrapped.update(data["wrapped"])
            self.smirsim_files.add(data["smirsim_file"])
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s = [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def hwm_mb(self, name: str) -> float:
        return max((s[5] for s in self.spans if s[0] == name), default=0) / 1024.0

    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for s, t in zip(self.spans, self.self_s):
            out[s[0].split(".", 1)[0]] += t
        return {layer: out[layer] for layer in LAYERS}


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# Counts read from a pipeline's artifacts; a mean-field iteration has none.
ARTIFACT_COUNTS = ("contactnet.blocks", "contactnet.edges", "abm.node_days",
                   "abm.active_fraction", "abm.live_days")


def layer_metrics(spans: SpanSet, counts: dict) -> dict:
    """Every per-layer metric one traced iteration yields.

    ``counts`` are the iteration's artifact counts (``Iteration.counts``).
    A metric whose wrapped function no longer exists is left out, not 0. A
    layer the workload never calls reports 0 time and 0 counts.
    """
    m = {}
    for metric, name in SPAN_TOTALS.items():
        if name in spans.wrapped and metric not in SETUP_METRICS:
            m[metric] = spans.total(name)
    m.update({k: counts.get(k, 0) for k in ARTIFACT_COUNTS})
    if "contactnet.build_contact_network" in spans.wrapped:
        build = m["contactnet.build_s"]
        m["contactnet.build_edges_per_s"] = m["contactnet.edges"] / build if build else 0.0
        m["contactnet.rss_hwm_mb"] = spans.hwm_mb("contactnet.build_contact_network")
    if {"abm.run", "abm.step"} <= spans.wrapped:
        steps = spans.durations("abm.step")
        m["abm.step_s.p50"] = _nearest_rank(steps, 0.5)
        m["abm.step_s.p90"] = _nearest_rank(steps, 0.9)
        m["abm.run_self_s"] = m["abm.run_s"] - sum(steps)
        m["abm.rss_hwm_mb"] = spans.hwm_mb("abm.run")
    if "meanfield.integrate" in spans.wrapped:
        m["meanfield.integrate_calls"] = len(spans.durations("meanfield.integrate"))
    m["cli.self_s"] = spans.layer_self_s()["cli"]
    return m


def setup_metrics(spans: SpanSet | None) -> dict:
    """Set-up metrics from the traced gen-scenario, or zeros without one."""
    if spans is None:
        return {metric: 0.0 for metric in SETUP_METRICS}
    return {metric: spans.total(SPAN_TOTALS[metric]) for metric in SETUP_METRICS
            if SPAN_TOTALS[metric] in spans.wrapped}
