"""CLI tests: subcommand behaviour, exit codes, determinism of emitted files."""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlgraph
from dlgraph import VerificationReport
from dlgraph.cli import (CHECK_NAMES, EXIT_CAP, EXIT_INTERRUPTED, EXIT_OK, EXIT_OUTPUT, EXIT_USAGE,
                         EXIT_VERIFY_FAILED, build_parser, entrypoint, main)

from support import forbid_layout


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# stats

def test_stats_defaults(capsys):
    code, out, _ = run(capsys, "stats")
    assert code == EXIT_OK
    assert "DL(2,3) truncation, layers=3" in out
    assert "vertices: 65" in out
    assert "edges: 114" in out
    assert "heights (h=0..3): 27 18 12 8" in out
    assert "degrees: 2:27 3:8 5:30" in out


def test_stats_with_parameters(capsys):
    code, out, _ = run(capsys, "stats", "-p", "3", "-q", "2", "-L", "2")
    assert code == EXIT_OK
    assert "vertices: 19" in out


# ---------------------------------------------------------------------------
# export

def test_export_tikz_to_file(tmp_path, capsys):
    target = tmp_path / "out.tex"
    code, out, _ = run(capsys, "export", "--format", "tikz", "-o", str(target))
    assert code == EXIT_OK
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.count(r"\addplot3") == 167
    assert "view={165}{10}" in text


def test_export_to_stdout(capsys):
    code = main(["export", "--format", "obj", "-p", "2", "-q", "2", "-L", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("\ng ") == 3 or out.startswith("v ")


def test_export_json_params_flow_through(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(capsys, "export", "--format", "json", "-p", "2", "-q", "2", "-L", "2",
                     "--view", "30", "45", "-o", str(target))
    assert code == EXIT_OK
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["params"] == {"p": 2, "q": 2, "layers": 2}
    assert doc["view"] == [30, 45]


def test_export_color_and_label_overrides(tmp_path, capsys):
    target = tmp_path / "out.tex"
    code, _, _ = run(capsys, "export", "--colors", "red", "green", "blue",
                     "--no-axis-labels", "-o", str(target))
    assert code == EXIT_OK
    text = target.read_text(encoding="utf-8")
    assert r"\addplot3[red,thick]" in text
    assert "xlabel" not in text

    svg_target = tmp_path / "out.svg"
    code, _, _ = run(capsys, "export", "--format", "svg", "--colors", "#101010", "#202020", "#303030",
                     "-o", str(svg_target))
    assert code == EXIT_OK
    assert "#202020" in svg_target.read_text(encoding="utf-8")


@pytest.mark.parametrize("format", ["tikz", "json", "obj", "svg"])
def test_export_is_byte_deterministic(tmp_path, capsys, format):
    first = tmp_path / f"a.{format}"
    second = tmp_path / f"b.{format}"
    assert run(capsys, "export", "--format", format, "-o", str(first))[0] == EXIT_OK
    assert run(capsys, "export", "--format", format, "-o", str(second))[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("format,view", [("obj", ()), ("tikz", ("--view", "33.3", "-71.7"))])
def test_digits_reach_only_the_view_angles(capsys, format, view):
    # every coordinate is a multiple of 1/2, printed exactly at any --digits; only TikZ's view= line can round
    outputs = []
    for digits in ("1", "6", "1000"):
        code, out, _ = run(capsys, "export", "-L", "3", "--format", format, *view, "--digits", digits)
        assert code == EXIT_OK
        outputs.append(out.splitlines())
    coordinates = [[line for line in lines if not line.startswith("    view=")] for lines in outputs]
    assert coordinates[0] == coordinates[1] == coordinates[2]
    assert (outputs[0] == outputs[2]) == (format == "obj")  # at 1000 digits the view prints the float 33.3 in full


@pytest.mark.parametrize("argv", [
    *(("export", "-p", "2", "-q", "3", "-L", "3", "--format", fmt) for fmt in ("tikz", "json", "obj", "svg")),
    ("verify", "-p", "2", "-q", "2", "-L", "4"),
])
def test_stdout_is_identical_across_hash_seeds(argv):
    # separate interpreters, so set and dict order cannot leak into the output
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(dlgraph.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-m", "dlgraph", *argv], env=env,
                              capture_output=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_prints_report(capsys):
    code, out, err = run(capsys, "verify", "-p", "2", "-q", "2", "-L", "4")
    assert code == EXIT_OK
    assert "[PASS] check_lamplighter(layers=4 p=2 q=2)" in out
    assert "0 failed" in out
    assert "elapsed" not in out  # timings go to stderr only
    assert "check_counts:" in err


def test_verify_report_stdout_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify")
    assert code == EXIT_OK
    code, second, _ = run(capsys, "verify")
    assert first == second


def test_verify_check_selection(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "counts,degree_law")
    assert code == EXIT_OK
    assert out.count("[PASS]") == 2


def test_verify_radius_flows_through(capsys):
    code, out, _ = run(capsys, "verify", "-p", "2", "-q", "2", "-L", "2",
                       "--checks", "local_homogeneity", "-r", "1")
    assert code == EXIT_OK
    assert "radius=1" in out


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    from dlgraph.verify import CheckResult

    failing = VerificationReport((
        CheckResult("check_counts", {"p": 2, "q": 3, "layers": 3}, "fail",
                    "enumerated 1 vertices, closed form 65", 0.0),
    ))
    monkeypatch.setattr("dlgraph.verify.run_checks", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_VERIFY_FAILED
    assert "FAILURES detected" in out


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--checks", "bogus")
    assert code == EXIT_USAGE
    assert "unknown check" in err


def test_verify_empty_check_list_is_usage_error(capsys):
    # an empty list names the check '', as "--checks ," does; it does not select every check
    assert main(["verify", "--checks", ""]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: unknown check ''")


# ---------------------------------------------------------------------------
# figure presets

def test_figure_dl32_matches_reference_export(tmp_path, capsys):
    fig = tmp_path / "fig.tex"
    exp = tmp_path / "exp.tex"
    assert run(capsys, "figure", "--name", "dl32", "-o", str(fig))[0] == EXIT_OK
    assert run(capsys, "export", "-p", "2", "-q", "3", "-L", "3", "--format", "tikz", "-o", str(exp))[0] == EXIT_OK
    assert fig.read_bytes() == exp.read_bytes()
    text = fig.read_text(encoding="utf-8")
    assert text.count(r"\addplot3") == 167
    for needle in ("view={165}{10}", "compat=1.18", "Orange!20", "MFCB!20", "DeepSkyBlue4", "on background layer"):
        assert needle in text


def test_figure_alt_view(tmp_path, capsys):
    target = tmp_path / "alt.tex"
    assert run(capsys, "figure", "--name", "dl32-alt", "-o", str(target))[0] == EXIT_OK
    assert "view={15}{25}" in target.read_text(encoding="utf-8")


def test_figure_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.tex", tmp_path / "b.tex"
    run(capsys, "figure", "--name", "dl32", "-o", str(a))
    run(capsys, "figure", "--name", "dl32", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-command"])
    assert excinfo.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", "--name", "unknown"])
    assert excinfo.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        main(["export", "--view", "x", "0"])  # an angle that is not a float; a non-finite one is Scene3D's error
    assert excinfo.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "argument --view: invalid float value: 'x'" in err


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, "stats", "-p", "1")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_cap_exceeded_exits_three(capsys):
    code, _, err = run(capsys, "stats", "-p", "4", "-q", "4", "-L", "10")
    assert code == EXIT_CAP
    assert "cap" in err
    # a raised cap admits the same parameters
    code, out, _ = run(capsys, "stats", "-p", "4", "-q", "4", "-L", "6", "--cap", "50000")
    assert code == EXIT_OK
    assert "vertices: 28672" in out


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_negative_cap_exits_two(capsys, cap):
    code, out, err = run(capsys, "stats", "--cap", cap)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: vertex_cap must be >= 0, got {cap}\n"


@pytest.mark.parametrize("layers", ["100000", "1000000000"])
def test_cap_exceeded_by_huge_layers_exits_three(capsys, layers):
    # 2**layers alone exceeds the cap, so the count is neither summed nor printed
    code, out, err = run(capsys, "stats", "-L", layers)
    assert code == EXIT_CAP
    assert out == ""
    assert err == f"error: DL(2,3) with layers={layers} holds at least 2**{layers} vertices (cap: 200000)\n"


def test_cap_exceeded_by_huge_branching_exits_three(capsys):
    # a 2001-digit p: the count would have over 6000 digits, past the int-to-str limit
    code, out, err = run(capsys, "stats", "-p", str(10**2000), "-L", "3")
    assert code == EXIT_CAP
    assert out == ""
    assert err.startswith("error: DL(1000") and err.endswith(") with layers=3 holds at least 2**19929 vertices (cap: 200000)\n")


@pytest.mark.parametrize("command", ["stats", "export", "verify"])
def test_edge_cap_exceeded_exits_three(capsys, command):
    # 20,000 vertices pass the vertex cap, but 10**8 edges exceed 1 x 200000
    code, out, err = run(capsys, command, "-p", "10000", "-q", "10000", "-L", "1")
    assert code == EXIT_CAP
    assert out == ""
    assert err == "error: DL(10000,10000) with layers=1 holds 100000000 edges (cap: 1 x 200000)\n"


@pytest.mark.parametrize("digits", ["0", "1001", "100000000"])
def test_digits_outside_their_range_exit_two(capsys, digits):
    code, out, err = run(capsys, "export", "--digits", digits)
    assert code == EXIT_USAGE
    assert out == ""
    bound = ">= 1" if digits == "0" else "<= 1000"
    assert err == f"error: decimal_digits must be {bound}, got {digits}\n"


def test_unwritable_output_exits_four(tmp_path, capsys):
    target = tmp_path / "missing" / "out.tex"
    code, out, err = run(capsys, "export", "-o", str(target))
    assert code == EXIT_OUTPUT
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("view", [("inf", "0"), ("0", "nan"), ("1e400", "0")])
def test_non_finite_view_is_usage_error(monkeypatch, capsys, view):
    # the parser reads each angle as a float, and Scene3D, the one home of the finite-angle rule, refuses it
    # before build_scene lays out a segment
    forbid_layout(monkeypatch)
    code, out, err = run(capsys, "export", "--view", *view)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: view angles must be finite floats, got {[float(angle) for angle in view]!r}\n"


# ---------------------------------------------------------------------------
# closed pipes

def _env(unbuffered: bool) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(dlgraph.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("stats", "-L", "6"),
    ("export", "-p", "2", "-q", "3", "-L", "6"),
    ("verify", "-p", "2", "-q", "2", "-L", "3"),
    ("figure", "--name", "dl32"),
])
def test_closed_pipe_exits_four_with_one_error_line(argv, unbuffered):
    # the reader end is closed before the command starts, so every write meets EPIPE;
    # buffered, the text commands would otherwise first meet it in the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _env(unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "dlgraph", *argv], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OUTPUT
    error_lines = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert error_lines == ["error: [Errno 32] Broken pipe"]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_export_into_a_reader_that_stops_early_exits_four(unbuffered):
    # the reader takes 10 bytes and closes while the export is still writing
    env = _env(unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "dlgraph", "export", "-p", "2", "-q", "3", "-L", "7"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OUTPUT
    assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: [Errno 32] Broken pipe"]
    assert "Traceback" not in err


COMMANDS = [("stats",), ("export", "-L", "2"), ("verify", "-L", "2"), ("figure", "--name", "dl32")]


@pytest.mark.parametrize("argv", [*COMMANDS, ("--help",), ("verify", "--help")])
def test_closed_stdout_exits_four_with_one_error_line(argv):
    # a process started with descriptor 1 closed gets sys.stdout = None from Python;
    # argparse would then print the help on stderr
    proc = subprocess.run([sys.executable, "-m", "dlgraph", *argv], env=_env(False), stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1), timeout=120, text=True)
    assert proc.returncode == EXIT_OUTPUT
    assert proc.stderr.splitlines() == ["error: [Errno 9] Bad file descriptor"]


def test_closed_stdout_leaves_an_output_file_alone(tmp_path):
    target = tmp_path / "dl32.tex"
    proc = subprocess.run([sys.executable, "-m", "dlgraph", "figure", "--name", "dl32", "-o", str(target)],
                          env=_env(False), stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120)
    assert proc.returncode == EXIT_OK
    assert target.read_bytes() == (Path(__file__).parent / "golden" / "dl32.tex").read_bytes()


@pytest.mark.parametrize("existing", [None, b"an earlier export\n"], ids=["absent", "present"])
def test_a_failed_export_leaves_the_output_path_as_it_was(tmp_path, existing):
    # the stroke is the argv byte 0xff, which fails only when the rendered document is encoded as UTF-8
    target = tmp_path / "out.svg"
    if existing is not None:
        target.write_bytes(existing)
    argv = ["export", "-L", "1", "--format", "svg", "--colors", ESCAPED, "a", "b", "-o", str(target)]
    proc = subprocess.run([sys.executable, "-m", "dlgraph", *argv], env=_env(False), stderr=subprocess.PIPE,
                          timeout=120, text=True, errors="replace")
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: 'utf-8' codec can't encode")
    assert (target.read_bytes() if target.exists() else None) == existing


def _close_stderr():
    os.close(2)  # Python then sets sys.stderr to None


def _read_only_stderr():
    # Python opens sys.stderr on descriptor 2, and each write to it fails with EBADF
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


@pytest.mark.parametrize("broken", [_close_stderr, _read_only_stderr])
@pytest.mark.parametrize("argv,code", [
    *((argv, EXIT_OK) for argv in COMMANDS),
    (("stats", "-p", "1"), EXIT_USAGE),
    (("stats", "--cap", "1"), EXIT_CAP),
])
def test_unwritable_stderr_keeps_the_exit_code_and_the_output(argv, code, broken, capsysbinary):
    # the diagnostics (timings, total, error line) are dropped; stdout is what an in-process run prints
    proc = subprocess.run([sys.executable, "-m", "dlgraph", *argv], env=_env(False), stdout=subprocess.PIPE,
                          preexec_fn=broken, timeout=120)
    assert proc.returncode == code
    assert main(list(argv)) == code
    assert proc.stdout == capsysbinary.readouterr().out


@pytest.mark.parametrize("broken", [_close_stderr, _read_only_stderr])
def test_unwritable_stderr_keeps_the_usage_exit_code(broken):
    # argparse's usage message goes nowhere, not to stdout, and the code is 2 on every supported Python
    proc = subprocess.run([sys.executable, "-m", "dlgraph", "stats", "-p", "x"], env=_env(False),
                          stdout=subprocess.PIPE, preexec_fn=broken, timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == b""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the wait channel from /proc")
def test_sigint_exits_130_with_one_error_line(tmp_path):
    # export -o FIFO blocks in open() until a reader comes, so the interrupt arrives there whatever the host's speed
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a shell without job control starts background jobs with SIGINT ignored, and Python would leave it ignored
    proc = subprocess.Popen([sys.executable, "-m", "dlgraph", "export", "-L", "3", "-o", str(fifo)], env=_env(False),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while Path(f"/proc/{proc.pid}/wchan").read_text() != "wait_for_partner":  # the kernel's wait for a FIFO's peer
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED
    assert err == "error: interrupted\n"
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert os.read(reader, 1) == b""
    finally:
        os.close(reader)


# ---------------------------------------------------------------------------
# the argv grammar

ESCAPED = "\udcff"  # a non-UTF-8 argv byte, as Python decodes it (surrogateescape)
HUGE = "1" + "0" * 30
SIZES = ("-p", "-q", "-L", "--layers")  # a huge one exceeds the default cap before any graph is built
# each flag: the number of values it takes, its valid spellings and its invalid or huge ones
VALUES = {
    "-p": (1, ["2", "3"], ["1", "-2", "x", "2.5", HUGE, "9" * 5000]),
    "-q": (1, ["2", "3"], ["0", "x", HUGE]),
    "-L": (1, ["1", "2", "4"], ["0", "-1", "x", HUGE, "9" * 5000]),
    "--layers": (1, ["3"], ["0", HUGE]),
    "--cap": (1, ["0", "1000", "200000"], ["-1", "x"]),
    "-o": (1, ["-", "out", "missing/out", ""], []),  # each path but "-" is joined to a temporary directory
    "--format": (1, ["tikz", "json", "obj", "svg"], ["pdf"]),
    "--view": (2, ["30", "-71.7", "1e-300", "1e300"], ["inf", "nan", "x", "9" * 5000]),
    "--colors": (3, ["red", "#00ff00", "not a colour"], []),
    "--no-axis-labels": (0, [], []),
    "--digits": (1, ["1", "6", "1000"], ["0", "-1", "x", HUGE]),
    "--checks": (1, ["counts", "lamplighter,local_homogeneity", ",".join(CHECK_NAMES)], ["bogus", ","]),
    "-r": (1, ["1", "2", "3"], ["0", "4", "x", HUGE]),
    "--radius": (1, ["2"], ["9"]),
    "--name": (1, ["dl32", "dl32-alt"], ["dl33"]),
    "-h": (0, [], []),
    "--bogus": (0, [], []),
}
PARAMS = ["-p", "-q", "-L", "--layers", "--cap"]
FLAGS = {
    "stats": PARAMS,
    "export": [*PARAMS, "-o", "--format", "--view", "--colors", "--no-axis-labels", "--digits"],
    "verify": [*PARAMS, "--checks", "-r", "--radius"],
    "figure": ["--name", "-o"],
}
DOCUMENTED_EXITS = {EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_CAP, EXIT_OUTPUT}


@st.composite
def argvs(draw, directory: str):
    """A command, valid, invalid or missing, with flags of that command or of any, and values that are valid,
    invalid, huge, empty, surrogate-escaped or too few.  A huge cap comes only with parameters small enough to build."""
    command = draw(st.sampled_from([*FLAGS, "bogus", "", ESCAPED, None]))
    own, bad, huge_cap = (draw(st.booleans()) for _ in range(3))
    own = own and command in FLAGS
    tokens = []
    flags = draw(st.lists(st.sampled_from(FLAGS[command] if own else list(VALUES)), max_size=6))
    if own and command == "figure":
        flags.insert(0, "--name")  # the one required flag
    for flag in flags:
        count, valid, invalid = VALUES[flag]
        if bad and not (huge_cap and flag in SIZES):
            valid = [*valid, *invalid, "", ESCAPED, "2" + ESCAPED]
        values = [draw(st.sampled_from(valid)) for _ in range(count)]
        if flag == "-o":
            values = [value if value == "-" else os.path.join(directory, value) for value in values]
        if bad and values and draw(st.integers(0, 9)) == 0:  # too few values
            values = values[: draw(st.integers(0, count - 1))]
        tokens += [flag, *values]
    if huge_cap:
        tokens += ["--cap", HUGE]
    if command is not None:
        tokens.insert(0 if own else draw(st.integers(0, len(tokens))), command)
    return tokens


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_every_argv_ends_in_a_documented_exit_with_at_most_one_error_line(data):
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(argvs(directory), label="argv")
        out, err = io.BytesIO(), io.BytesIO()
        # what Python gives a UTF-8 process: strict stdout, backslash-escaping stderr
        stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
        stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace", write_through=True)
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    lines = err.getvalue().decode("utf-8").splitlines()
    assert code in DOCUMENTED_EXITS
    assert sum("error:" in line for line in lines) <= 1
    assert not any("Traceback" in line for line in lines)
    if code in (EXIT_USAGE, EXIT_CAP):
        assert out.getvalue() == b""


def test_the_cli_imports_only_the_standard_library():
    # -S skips site, whose .pth files may import third-party modules (certifi, say) before dlgraph is imported
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import dlgraph.cli, dlgraph.export, dlgraph.verify; "
            "new = {name.partition('.')[0] for name in set(sys.modules) - before} - {'dlgraph'}; "
            "print(sorted(new - sys.stdlib_module_names))")
    src = Path(dlgraph.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _option(command, flag):
    parser = build_parser()
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return next(action for action in commands.choices[command]._actions if flag in action.option_strings)


def test_parser_values_are_the_library_values():
    # cli.py spells them out so that no command loads a module it does not run:
    # a writer, check or bound added on one side only fails here
    from dlgraph import export, layout, verify

    assert _option("export", "--format").choices == export.FORMATS
    assert _option("export", "--digits").help == f"max fractional digits, 1-{export.MAX_DIGITS} (default 6)"
    assert _option("export", "--view").default == layout.DEFAULT_VIEW
    assert _option("verify", "--checks").help == "comma-separated subset of: " + ",".join(verify.CHECKS)
    radius = _option("verify", "--radius")
    assert radius.choices == list(range(1, verify.MAX_BALL_RADIUS + 1))
    assert radius.default == verify.DEFAULT_BALL_RADIUS


def _command(*argv):
    """A statement that runs one command with its output discarded."""
    return (f"from dlgraph.cli import main; sys.stdout = sys.stderr = open(os.devnull, 'w'); "
            f"assert main({list(argv)!r}) == 0")


@pytest.mark.parametrize("statement, modules", [
    # a graph needs graph.py and tree.py alone: every other public name loads on first use
    ("import dlgraph; dlgraph.DLGraph(dlgraph.DLParams(2, 2, 8))", ["dlgraph", "dlgraph.graph", "dlgraph.tree"]),
    ("import dlgraph; dlgraph.layout.build_scene", ["dlgraph", "dlgraph.graph", "dlgraph.layout", "dlgraph.tree"]),
    # each command imports what it runs: no command but verify loads verify.py, and only the writers load export.py
    (_command("stats", "-L", "2"), ["dlgraph", "dlgraph.cli", "dlgraph.graph", "dlgraph.tree"]),
    (_command("figure", "--name", "dl32"), ["dlgraph", "dlgraph.cli", "dlgraph.export", "dlgraph.graph",
                                            "dlgraph.layout", "dlgraph.tree"]),
    (_command("export", "-L", "2", "--format", "svg"), ["dlgraph", "dlgraph.cli", "dlgraph.export", "dlgraph.graph",
                                                        "dlgraph.layout", "dlgraph.tree"]),
    (_command("verify", "-L", "2"), ["dlgraph", "dlgraph.cli", "dlgraph.graph", "dlgraph.layout", "dlgraph.tree",
                                     "dlgraph.verify"]),
])
def test_starting_a_command_loads_no_module_it_does_not_need(statement, modules):
    # these cost every process milliseconds to import, and only the library functions that use them import them
    unneeded = ["dataclasses", "fractions", "inspect", "json", "typing"]
    code = (f"import os, sys; sys.path.insert(0, sys.argv[1]); {statement}; "
            f"print(sorted(name for name in sys.modules if name.partition('.')[0] in {{'dlgraph', *{unneeded}}}), "
            "file=sys.__stdout__)")
    src = Path(dlgraph.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{modules}\n", "")


@pytest.mark.parametrize("argv", [["figure", "--name", "dl32"], ["export", "--format", "tikz", "--view", "33.3", "-71.7"]],
                         ids=["figure", "export-tikz"])
def test_tikz_commands_leave_fractions_unloaded(tmp_path, argv):
    # the two view angles are printed from their integer ratios: fractions, and the decimal it loads, stay out
    target = tmp_path / "out.tex"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from dlgraph.cli import main; "
            f"status = main({argv!r} + ['-o', sys.argv[2]]); "
            "print(status, [name for name in ('fractions', 'decimal') if name in sys.modules])")
    src = Path(dlgraph.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src), str(target)], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, f"{EXIT_OK} []\n")
    if argv[0] == "figure":
        assert target.read_bytes() == (Path(__file__).parent / "golden" / "dl32.tex").read_bytes()


def test_console_script_writes_the_dl32_figure(monkeypatch, capsysbinary):
    monkeypatch.setattr(sys, "argv", ["dlgraph", "figure", "--name", "dl32"])
    with pytest.raises(SystemExit) as exit_info:
        entrypoint()
    assert exit_info.value.code == EXIT_OK
    assert capsysbinary.readouterr().out == (Path(__file__).parent / "golden" / "dl32.tex").read_bytes()
