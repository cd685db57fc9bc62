"""CLI tests: subcommand behaviour, exit codes, determinism of emitted files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dlgraph
from dlgraph import VerificationReport
from dlgraph.cli import EXIT_CAP, EXIT_OK, EXIT_OUTPUT, EXIT_USAGE, EXIT_VERIFY_FAILED, main


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
    monkeypatch.setattr("dlgraph.cli.run_checks", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_VERIFY_FAILED
    assert "FAILURES detected" in out


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--checks", "bogus")
    assert code == EXIT_USAGE
    assert "unknown check" in err


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


@pytest.mark.parametrize("view", [("inf", "0"), ("0", "nan"), ("x", "0")])
def test_non_finite_view_is_usage_error(capsys, view):
    with pytest.raises(SystemExit) as excinfo:
        main(["export", "--view", *view])
    assert excinfo.value.code == EXIT_USAGE
    assert "angle must be a finite number" in capsys.readouterr().err


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


def test_the_cli_imports_only_the_standard_library():
    # -S skips site, whose .pth files may import third-party modules (certifi, say) before dlgraph is imported
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import dlgraph.cli; "
            "new = {name.partition('.')[0] for name in set(sys.modules) - before} - {'dlgraph'}; "
            "print(sorted(new - sys.stdlib_module_names))")
    src = Path(dlgraph.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
