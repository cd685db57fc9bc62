"""Command-line front door: generate, export, verify, and render preset figures.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 size cap
exceeded, 4 output could not be written, including a closed pipe on stdout
(one ``error:`` line on stderr).  All artifact output is deterministic;
timing diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager

from .export import FORMATS, MAX_DIGITS, ExportOptions, write_scene
from .graph import DEFAULT_VERTEX_CAP, DLGraph, DLParams
from .layout import DEFAULT_VIEW, build_scene
from .tree import CapExceededError
from .verify import CHECKS, DEFAULT_BALL_RADIUS, MAX_BALL_RADIUS, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_OUTPUT = 4

# name -> ((p, q, layers), (azimuth, elevation))
FIGURE_PRESETS = {
    "dl32": ((2, 3, 3), (165, 10)),
    "dl32-alt": ((2, 3, 3), (15, 25)),
}


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlgraph",
        description="Finite Diestel-Leader graph truncations: stats, exports, verification, preset figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("-p", type=int, default=2, help="branching of the tree in the plane y=0 (default 2)")
    params.add_argument("-q", type=int, default=3, help="branching of the tree in the plane x=0 (default 3)")
    params.add_argument("-L", "--layers", type=int, default=3, help="number of height steps (default 3)")
    params.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP,
                        help=f"maximum vertex count, and maximum edge count per height step on average "
                             f"(default {DEFAULT_VERTEX_CAP})")

    stats = sub.add_parser("stats", parents=[params], help="print the vertex/edge census")
    stats.set_defaults(handler=_cmd_stats)

    export = sub.add_parser("export", parents=[params], help="write the 3D scene in one serialization format")
    export.add_argument("--format", choices=FORMATS, default="tikz")
    export.add_argument("-o", "--output", default="-", help="output file ('-' for stdout)")
    export.add_argument("--view", nargs=2, type=_finite_float, metavar=("AZ", "EL"),
                        default=DEFAULT_VIEW, help=f"azimuth/elevation in degrees (default {DEFAULT_VIEW})")
    export.add_argument("--colors", nargs=3, metavar=("TREE_P", "TREE_Q", "DL"), default=None,
                        help="per-kind colors: TikZ styles, or stroke values for --format svg")
    export.add_argument("--no-axis-labels", action="store_true", help="omit the x/y/z axis labels (tikz)")
    export.add_argument("--digits", type=int, default=6, help=f"max fractional digits, 1-{MAX_DIGITS} (default 6)")
    export.set_defaults(handler=_cmd_export)

    verify = sub.add_parser("verify", parents=[params], help="run the structural checks")
    verify.add_argument("--checks", default=None,
                        help="comma-separated subset of: " + ",".join(CHECKS))
    verify.add_argument("-r", "--radius", type=int, default=DEFAULT_BALL_RADIUS,
                        choices=list(range(1, MAX_BALL_RADIUS + 1)),
                        help=f"ball radius for local homogeneity (default {DEFAULT_BALL_RADIUS})")
    verify.set_defaults(handler=_cmd_verify)

    figure = sub.add_parser("figure", help="emit a preset TikZ figure")
    figure.add_argument("--name", required=True, choices=sorted(FIGURE_PRESETS),
                        help="dl32: the DL(3,2) truncation (p=2, q=3, layers=3) seen from (165,10); "
                             "dl32-alt: the same scene from an alternative viewpoint whose angles "
                             "are this tool's arbitrary choice, not a canonical value")
    figure.add_argument("-o", "--output", default="-", help="output file ('-' for stdout)")
    figure.set_defaults(handler=_cmd_figure)

    return parser


@contextmanager
def _open_sink(path: str):
    if path == "-":
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as sink:
            yield sink


def _cmd_stats(args) -> int:
    graph = DLGraph(DLParams(args.p, args.q, args.layers, vertex_cap=args.cap))
    census = graph.census()
    out = sys.stdout
    out.write(f"DL({args.p},{args.q}) truncation, layers={args.layers}\n")
    out.write(f"vertices: {census.vertex_count}\n")
    out.write(f"edges: {census.edge_count}\n")
    out.write(f"heights (h=0..{args.layers}): " + " ".join(str(c) for c in census.heights) + "\n")
    out.write("degrees: " + " ".join(f"{d}:{c}" for d, c in census.degree_histogram.items()) + "\n")
    return EXIT_OK


def _cmd_export(args) -> int:
    graph = DLGraph(DLParams(args.p, args.q, args.layers, vertex_cap=args.cap))
    opts = ExportOptions(format=args.format, colors=args.colors, axis_labels=not args.no_axis_labels,
                         decimal_digits=args.digits)
    scene = build_scene(graph, args.view)
    with _open_sink(args.output) as sink:
        write_scene(scene, opts, sink)
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = DLGraph(DLParams(args.p, args.q, args.layers, vertex_cap=args.cap))
    names = args.checks.split(",") if args.checks else None
    report = run_checks(graph, names=names, radius=args.radius)
    sys.stdout.write(report.to_text())
    for entry in report.entries:
        sys.stderr.write(f"{entry.name}: {entry.elapsed:.3f}s\n")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_figure(args) -> int:
    (p, q, layers), view = FIGURE_PRESETS[args.name]
    graph = DLGraph(DLParams(p, q, layers))
    scene = build_scene(graph, view)
    with _open_sink(args.output) as sink:
        write_scene(scene, ExportOptions(format="tikz"), sink)
    return EXIT_OK


def _discard_stdout() -> None:
    """Point stdout at devnull, so the interpreter's flush at exit cannot raise
    BrokenPipeError again (the "Note on SIGPIPE" in the ``signal`` docs)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # stdout replaced by an object without a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe must fail here, not in the flush at exit
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            _discard_stdout()
        return EXIT_OUTPUT
    sys.stderr.write(f"total: {time.perf_counter() - started:.3f}s\n")
    return status


def entrypoint() -> None:
    raise SystemExit(main())
