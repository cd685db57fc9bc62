"""Command-line front door: generate, export, verify, and render preset figures.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 size cap
exceeded, 4 output could not be written, including a closed pipe or a
closed descriptor on stdout, for ``--help`` too (one ``error:`` line on
stderr), 130 interrupted by SIGINT (Ctrl-C; one ``error: interrupted``
line).  All artifact output is deterministic; timing diagnostics go to
stderr only, and a closed or unwritable stderr drops them without changing
the exit code.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from contextlib import nullcontext, suppress

from .graph import DEFAULT_VERTEX_CAP, DLGraph, DLParams
from .tree import CapExceededError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_OUTPUT = 4
EXIT_INTERRUPTED = 130

# name -> ((p, q, layers), (azimuth, elevation))
FIGURE_PRESETS = {
    "dl32": ((2, 3, 3), (165, 10)),
    "dl32-alt": ((2, 3, 3), (15, 25)),
}

# The parser's values, spelled out so that each command loads only the modules it runs; tests pin each to the library value
FORMATS = ("tikz", "json", "obj", "svg")
MAX_DIGITS = 1000
DEFAULT_VIEW = (165, 10)
CHECK_NAMES = ("counts", "degree_law", "lamplighter", "level_condition", "local_homogeneity", "scene_graph_agreement")
DEFAULT_BALL_RADIUS, MAX_BALL_RADIUS = 2, 3


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """The help on stdout, or exit 4 with one ``error:`` line: with stdout
        closed, argparse would print it on stderr and exit 0."""
        try:
            _stdout().write(self.format_help())
            sys.stdout.flush()
        except OSError as exc:
            raise SystemExit(_output_failed(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    export.add_argument("--view", nargs=2, type=float, metavar=("AZ", "EL"),
                        default=DEFAULT_VIEW, help=f"azimuth/elevation in degrees (default {DEFAULT_VIEW})")
    export.add_argument("--colors", nargs=3, metavar=("TREE_P", "TREE_Q", "DL"), default=None,
                        help="per-kind colors: TikZ styles, or stroke values for --format svg")
    export.add_argument("--no-axis-labels", action="store_true", help="omit the x/y/z axis labels (tikz)")
    export.add_argument("--digits", type=int, default=6, help=f"max fractional digits, 1-{MAX_DIGITS} (default 6)")
    export.set_defaults(handler=_cmd_export)

    verify = sub.add_parser("verify", parents=[params], help="run the structural checks")
    verify.add_argument("--checks", default=None,
                        help="comma-separated subset of: " + ",".join(CHECK_NAMES))
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


def _stdout():
    """``sys.stdout``, which Python sets to None when descriptor 1 was closed
    at start; then this raises the error a write to it would."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _diagnose(line: str) -> None:
    """One line on stderr, dropped if it cannot be written: diagnostics never change the exit code."""
    with suppress(OSError):
        sys.stderr.write(line + "\n")
    _flush_stderr()


def _flush_stderr() -> None:
    """Flush stderr, or point its descriptor at devnull if it cannot be written: a buffered stderr keeps
    the bytes of a failed write, and the interpreter's flush at exit would fail on them with status 120."""
    try:
        sys.stderr.flush()
    except OSError:
        _discard(sys.stderr)


def _cmd_stats(args) -> int:
    graph = DLGraph(DLParams(args.p, args.q, args.layers, vertex_cap=args.cap))
    census = graph.census()
    out = _stdout()
    out.write(f"DL({args.p},{args.q}) truncation, layers={args.layers}\n")
    out.write(f"vertices: {census.vertex_count}\n")
    out.write(f"edges: {census.edge_count}\n")
    out.write(f"heights (h=0..{args.layers}): " + " ".join(str(c) for c in census.heights) + "\n")
    out.write("degrees: " + " ".join(f"{d}:{c}" for d, c in census.degree_histogram.items()) + "\n")
    return EXIT_OK


def _write_scene(graph: DLGraph, view, output: str, **options) -> int:
    from .export import ExportOptions, _write_all, render
    from .layout import build_scene

    opts = ExportOptions(**options)
    # rendered and encoded before -o is opened, so a failure or Ctrl-C until then leaves the path as it was;
    # main flushes stdout
    data = render(build_scene(graph, view), opts).encode("utf-8")
    with open(output, "wb") if output != "-" else nullcontext(_stdout().buffer) as sink:
        _write_all(data, sink)
    return EXIT_OK


def _cmd_export(args) -> int:
    graph = DLGraph(DLParams(args.p, args.q, args.layers, vertex_cap=args.cap))
    return _write_scene(graph, args.view, args.output, format=args.format, colors=args.colors,
                        axis_labels=not args.no_axis_labels, decimal_digits=args.digits)


def _cmd_verify(args) -> int:
    from .verify import run_checks

    graph = DLGraph(DLParams(args.p, args.q, args.layers, vertex_cap=args.cap))
    names = args.checks.split(",") if args.checks is not None else None
    report = run_checks(graph, names=names, radius=args.radius)
    _stdout().write(report.to_text())
    for entry in report.entries:
        _diagnose(f"{entry.name}: {entry.elapsed:.3f}s")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_figure(args) -> int:
    (p, q, layers), view = FIGURE_PRESETS[args.name]
    return _write_scene(DLGraph(DLParams(p, q, layers)), view, args.output, format="tikz")


def _discard(stream) -> None:
    """Point the descriptor of ``stream`` at devnull, so the interpreter's flush at exit cannot fail on it
    again (the "Note on SIGPIPE" in the ``signal`` docs)."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # a stream replaced by an object without a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _output_failed(exc: OSError) -> int:
    _diagnose(f"error: {exc}")
    if isinstance(exc, BrokenPipeError):
        _discard(sys.stdout)
    return EXIT_OUTPUT


def main(argv=None) -> int:
    if sys.stderr is None:  # descriptor 2 was closed at start; argparse would fall back to stdout
        sys.stderr = open(os.devnull, "w")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except OSError:  # argparse before 3.11 lets a failed write of its usage message escape parser.exit(2)
        return EXIT_USAGE
    finally:
        _flush_stderr()  # argparse 3.11+ ignores that failure, and stderr still holds the message
    started = time.perf_counter()
    try:
        status = args.handler(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe must fail here, not in the flush at exit
    except CapExceededError as exc:
        _diagnose(f"error: {exc}")
        return EXIT_CAP
    except ValueError as exc:
        _diagnose(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        return _output_failed(exc)
    except KeyboardInterrupt:
        _diagnose("error: interrupted")
        return EXIT_INTERRUPTED
    _diagnose(f"total: {time.perf_counter() - started:.3f}s")
    return status


def entrypoint() -> None:
    raise SystemExit(main())
