#!/usr/bin/env python3
"""Per-layer pass behind ``bench/run.py --trace 1``.

Calls the public functions of each dlgraph module in-process, with spans
kept in the benchmark's own code around each call:

    PYTHONPATH=src python3 bench/layers.py --workload verify --seconds 10

A timed pass (no wrappers, no tracemalloc) repeats while another one fits in
``--seconds``, at least once; its seconds are medians over the passes.  One
separate counting pass then wraps public functions to count calls and runs
tracemalloc for peaks, so neither inflates the seconds; ``trace.overhead`` is
its wall time over the timed pass's, span for span.  Outputs are checked
against ``bench/expected.json``.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import dlgraph
from dlgraph import (
    DLGraph,
    DLParams,
    ExportOptions,
    LayeredTree,
    build_scene,
    check_counts,
    check_degree_law,
    check_lamplighter,
    check_level_condition,
    check_local_homogeneity,
    check_scene_graph_agreement,
    run_checks,
    write_scene,
)
from dlgraph import layout
from dlgraph.verify import DEFAULT_BALL_RADIUS

from run import (
    DESK_EXPORT,
    DESK_VERIFY,
    FORMATS,
    OUT_DIR,
    WORKLOADS,
    export_call,
    load_expected,
    sha256_file,
    verify_call,
)

PEAK_SPANS = ("layout.build_scene", "export.")
# Public functions whose calls the counting pass tallies: (metric, owner, attribute).
COUNTED = (
    ("tree.busemann_calls", LayeredTree, "busemann"),
    ("graph.neighbors_calls", DLGraph, "neighbors"),
    ("graph.validate_calls", DLGraph, "validate"),
    ("layout.position_calls", layout, "orange_position"),
    ("layout.position_calls", layout, "brown_position"),
    ("layout.position_calls", layout, "dl_position"),
)


class Spans:
    """Seconds per span name, summed over the calls of one pass; with
    ``traced``, also the peak memory that each build_scene and export span
    allocates, in MB.  tracemalloc runs only inside those spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        watch = self.traced and name.startswith(PEAK_SPANS)
        if watch:
            tracemalloc.start()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started
            if watch:
                self.peak_mb[name] = max(self.peak_mb[name], tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()


class Gate:
    """Compares outputs with the recorded ones and tallies failures."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: {got!r} != {want!r}")


def _scene_for(size, scenes: dict):
    if size not in scenes:
        graph = DLGraph(DLParams(*size))
        scenes[size] = (graph, build_scene(graph))
    return scenes[size]


def layer_pass(name: str, spans: Spans, gate: Gate, with_run_checks: bool) -> dict:
    """Run every layer call of workload ``name`` once; return the counts it produced."""
    work = WORKLOADS[name]
    out = {"layout.segments": 0, **{f"export.{fmt}_bytes": 0 for fmt in FORMATS}}
    scenes: dict = {}
    for size in work.graphs:
        with spans("graph.construct"):
            graph = DLGraph(DLParams(*size))
        with spans("graph.vertices"):
            vertices = sum(1 for _ in graph.vertices())
        with spans("graph.edges"):
            edges = sum(1 for _ in graph.edges())
        with spans("graph.census"):
            census = graph.census()
        gate.check(f"census {size}", (vertices, edges, census.vertex_count, census.edge_count),
                   (graph.params.vertex_count, graph.params.edge_count) * 2)
        with spans("layout.build_scene"):
            scene = build_scene(graph)
        out["layout.segments"] += len(scene.segments)
        scenes[size] = (graph, scene)

    # A layer the workload never calls runs on the desk inputs, so it stays flat there.
    artifact = OUT_DIR / "layer-artifact"
    for size in work.exports or (DESK_EXPORT,):
        _, scene = _scene_for(size, scenes)
        for fmt in FORMATS:
            with open(artifact, "wb") as sink, spans(f"export.{fmt}"):
                write_scene(scene, ExportOptions(format=fmt), sink)
            out[f"export.{fmt}_bytes"] += artifact.stat().st_size
            key = export_call(*size, fmt).key
            gate.check(key, sha256_file(artifact), gate.expected[key])

    for size in work.verifies or (DESK_VERIFY,):
        graph, scene = _scene_for(size, scenes)
        calls = {
            "counts": lambda: check_counts(graph),
            "degree_law": lambda: check_degree_law(graph),
            "level_condition": lambda: check_level_condition(graph),
            "local_homogeneity": lambda: check_local_homogeneity(graph, DEFAULT_BALL_RADIUS),
            "lamplighter": lambda: check_lamplighter(graph),
            "scene_graph_agreement": lambda: check_scene_graph_agreement(graph, scene),
        }
        pairs = []
        for check, call in calls.items():
            with spans(f"verify.{check}"):
                result = call()
            pairs.append([result.name, result.status])
        key = verify_call(*size).key
        gate.check(key, sorted(pairs), gate.expected[key])
        if with_run_checks:
            with spans("verify.run_checks"):
                report = run_checks(graph)
            gate.check(f"run_checks {size}", sorted([e.name, e.status] for e in report.entries),
                       gate.expected[key])
    return out


def counting_pass(name: str, gate: Gate) -> tuple[Spans, dict]:
    """The same calls once more, with call counters and tracemalloc on."""
    counts = dict.fromkeys((metric for metric, _, _ in COUNTED), 0)
    originals = []
    for metric, owner, attr in COUNTED:
        original = getattr(owner, attr)

        def counted(*args, _metric=metric, _original=original, **kwargs):
            counts[_metric] += 1
            return _original(*args, **kwargs)

        originals.append((owner, attr, original))
        setattr(owner, attr, counted)
    spans = Spans(traced=True)
    try:
        layer_pass(name, spans, gate, with_run_checks=False)
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return spans, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-layer pass of the dlgraph benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    gate = Gate(load_expected())
    timed: list[Spans] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        spans = Spans(traced=False)
        produced = layer_pass(args.workload, spans, gate, with_run_checks=True)
        timed.append(spans)
        now = time.perf_counter()
        # The counting pass still follows, so another pass starts only if it fits in --seconds.
        if (now - started) + (now - pass_started) > args.seconds:
            break
    seconds = {key: statistics.median(s.seconds[key] for s in timed) for key in timed[0].seconds}
    traced, counts = counting_pass(args.workload, gate)

    metrics = {f"{key}_s": (value, "s") for key, value in seconds.items()}
    metrics["layout.segments"] = (produced["layout.segments"], "count")
    metrics["layout.build_scene_peak_mb"] = (traced.peak_mb["layout.build_scene"], "MB")
    for fmt in FORMATS:
        metrics[f"export.{fmt}_bytes"] = (produced[f"export.{fmt}_bytes"], "bytes")
        metrics[f"export.{fmt}_peak_mb"] = (traced.peak_mb[f"export.{fmt}"], "MB")
    metrics.update({key: (value, "count") for key, value in counts.items()})
    shared = traced.seconds.keys()
    metrics["trace.overhead"] = (sum(traced.seconds.values()) / sum(seconds[key] for key in shared), "ratio")
    print(json.dumps({
        "dlgraph": dlgraph.__file__,
        "timed_passes": len(timed),
        "attempted": gate.attempted,
        "failures": gate.failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
