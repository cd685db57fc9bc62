#!/usr/bin/env python3
"""Benchmark for dlgraph: closed-loop CLI workloads and a traced per-layer pass.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 50 --trace 0

One client issues ``python -m dlgraph ...`` processes one at a time (a closed
loop) against ``<checkout>/src``; neither the client nor the program uses
threads.  With ``--trace 0`` it times whole rounds of the workload's calls
and prints the end-to-end metrics.  With ``--trace 1`` it runs
``bench/layers.py``, which calls each module's public functions in-process
and prints the per-layer metrics.  Every artifact is checked against the
SHA-256 digests in ``bench/expected.json``; a call whose exit code or output
differs counts as failed.

Human-readable lines come first on stdout.  The line before last records the
run: seed, failures, the code under test (SHA-256 of src/, git sha when the
checkout has one), Python, nproc and, per round, the call order, loadavg
before and after, and the time of a fixed loop that shows host drift.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
OUT_DIR = ROOT / ".bench_out"

# A run must end well inside three minutes, whatever the program does.
RUN_DEADLINE_S = 170.0
IMPORT_REPS = 7
PROBE_LOOP = 1_500_000

FORMATS = ("tikz", "json", "obj", "svg")
KINDS = tuple(f"export_{fmt}" for fmt in FORMATS) + ("verify", "figure")
UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_rate": "ratio",
         **{f"{kind}_s": "s" for kind in KINDS}}

_REPORT_LINE = re.compile(r"^\[(PASS|FAIL|SKIP) *\] (\w+)\(")


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  ``kind`` names the metric its wall time feeds."""

    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def writes_file(self) -> bool:
        return self.argv[0] in ("export", "figure")


def export_call(p: int, q: int, layers: int, fmt: str, *extra: str) -> Call:
    argv = ("export", "-p", str(p), "-q", str(q), "-L", str(layers), "--format", fmt, *extra)
    return Call(f"export_{fmt}", argv)


def verify_call(p: int, q: int, layers: int) -> Call:
    return Call("verify", ("verify", "-p", str(p), "-q", str(q), "-L", str(layers)))


@dataclass(frozen=True)
class Workload:
    """The calls of one round, the graph the set-up process builds, how many
    set-up processes (each with its reference calls) run per round, and the
    (p, q, layers) graphs the traced pass hands to each layer."""

    calls: tuple[Call, ...]
    setup: tuple[int, int, int]
    extras: int
    graphs: tuple[tuple[int, int, int], ...]
    exports: tuple[tuple[int, int, int], ...]
    verifies: tuple[tuple[int, int, int], ...]


# Desk-scale inputs: the README examples and the paper figure.
DESK_EXPORT = (2, 3, 3)
DESK_VERIFY = (2, 2, 4)

# Sizes are fixed so that figures stay comparable across commits.
#   export-L8: build_scene and the four renderers do almost all the work at
#     DL(2,3) L=8 (19,171 vertices, 37,830 edges); tree and verify are idle.
#   verify: busemann (level_condition), local_homogeneity and neighbors do the
#     work; p = q on the second call makes lamplighter run, so all six checks
#     are timed.  export is idle.
#   desk: the same code on tiny inputs, so interpreter start, `import dlgraph`
#     and per-call costs dominate; work moved into import or set-up shows here.
# ``extras`` gives every short call (set-up, and the reference calls of the
# kinds a round lacks) about 25 samples per 50 s run or more: the mean of
# fewer desk-scale calls moves with the share of the host's two speed levels.
# BENCHMARK.json lists verify and desk; export-L8 runs by hand.  On a shared
# 2-core VM whose speed drifted by up to a third between minutes, ten runs of
# export-L8 spread by 25-36% of their median (quartile distance), above the
# largest bound a regression gate may use here (25%).
WORKLOADS = {
    "export-L8": Workload(
        calls=tuple(export_call(2, 3, 8, fmt) for fmt in FORMATS),
        setup=(2, 3, 8),
        extras=4,
        graphs=((2, 3, 8),),
        exports=((2, 3, 8),),
        verifies=(),
    ),
    "verify": Workload(
        calls=(verify_call(2, 3, 6), verify_call(2, 2, 8)),
        setup=(2, 2, 8),
        extras=12,
        graphs=((2, 3, 6), (2, 2, 8)),
        exports=(),
        verifies=((2, 3, 6), (2, 2, 8)),
    ),
    "desk": Workload(
        calls=(
            Call("figure", ("figure", "--name", "dl32")),
            Call("figure", ("figure", "--name", "dl32-alt")),
            Call("stats", ("stats", "-p", "2", "-q", "3", "-L", "3")),
            export_call(*DESK_EXPORT, "tikz"),
            export_call(*DESK_EXPORT, "json"),
            export_call(*DESK_EXPORT, "obj"),
            Call("export_svg", ("export", "--format", "svg", "--view", "165", "10")),
            verify_call(*DESK_VERIFY),
        ),
        setup=DESK_EXPORT,
        extras=1,
        graphs=(DESK_EXPORT, DESK_VERIFY),
        exports=(DESK_EXPORT,),
        verifies=(DESK_VERIFY,),
    ),
}

# A workload reports every end-to-end metric.  A kind its round never issues
# is timed on the matching desk call, kept out of run_s, cpu_s and
# peak_rss_mb; it stays flat there.
REFERENCE_CALLS = {call.kind: call for call in reversed(WORKLOADS["desk"].calls) if call.kind in KINDS}


class SetupError(RuntimeError):
    """The code under test cannot be found or imported from the checkout."""


class DeadlineExceeded(Exception):
    pass


def child_env() -> dict:
    """Environment for children: the checkout's src/ only, fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Outputs do not depend on it; fixing it removes one source of timing noise.
    env["PYTHONHASHSEED"] = "0"
    return env


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def report_pairs(text: str) -> list[list[str]]:
    """The sorted (check, status) pairs of a verification report; details are ignored."""
    pairs = []
    for line in text.splitlines():
        match = _REPORT_LINE.match(line)
        if match:
            pairs.append([match.group(2), match.group(1).lower()])
    return sorted(pairs)


def judge(call: Call, returncode: int, stdout_path: Path, artifact: Path | None, expected: dict) -> str | None:
    """None when the call's outputs match the recorded ones, else the reason."""
    if call.key not in expected:
        return f"no recorded output for {call.key!r}"
    if returncode != 0:
        return f"exit code {returncode}"
    want = expected[call.key]
    if call.kind == "verify":
        got = report_pairs(stdout_path.read_text(encoding="utf-8"))
        return None if got == want else f"report {got} != {want}"
    if artifact is not None and not artifact.exists():
        return "no output file"
    got = sha256_file(artifact if artifact is not None else stdout_path)
    return None if got == want else f"sha256 {got} != {want}"


def _alarm(signum, frame):
    raise DeadlineExceeded


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def spawn(argv: list[str], env: dict, stdout_path: Path, deadline: float):
    """Run one child to completion; return (wall seconds, returncode, rusage)."""
    with open(stdout_path, "wb") as out, open(OUT_DIR / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # deadline or SIGTERM: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


class Client:
    """Issues CLI calls one at a time and keeps the tally of failures."""

    def __init__(self, expected: dict, deadline: float):
        self.expected = expected
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, call: Call) -> tuple[float, float, float]:
        """Run ``call``; return (wall s, user+sys s, max RSS MB).  Output is judged after timing."""
        argv = [sys.executable, "-m", "dlgraph", *call.argv]
        artifact = OUT_DIR / "artifact" if call.writes_file else None
        if artifact is not None:
            artifact.unlink(missing_ok=True)
            argv += ["-o", str(artifact)]
        stdout_path = OUT_DIR / "stdout"
        self.attempted += 1
        wall, code, usage = spawn(argv, self.env, stdout_path, self.deadline)
        reason = judge(call, code, stdout_path, artifact, self.expected)
        if reason is not None:
            self.failures.append(f"{call.key}: {reason}")
            tail = (OUT_DIR / "stderr").read_text(encoding="utf-8", errors="replace")[-400:]
            print(f"FAILED {call.key}: {reason}\n{tail}", file=sys.stderr)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def python(self, code: str) -> tuple[float, int, str]:
        """Run ``python -c code`` against the checkout; return (wall s, exit code, stdout)."""
        stdout_path = OUT_DIR / "stdout"
        wall, returncode, _ = spawn([sys.executable, "-c", code], self.env, stdout_path, self.deadline)
        return wall, returncode, stdout_path.read_text(encoding="utf-8")


def pin_code_under_test(client: Client) -> dict:
    """Import every dlgraph module from <checkout>/src (writing its .pyc) and
    prove that the children run that code and no other copy."""
    src = (ROOT / "src").resolve()
    code = ("import json, sys, dlgraph, dlgraph.cli; "
            "print(json.dumps({'file': dlgraph.__file__, 'python': sys.version.split()[0]}))")
    _, returncode, out = client.python(code)
    if returncode != 0:
        raise SetupError(f"cannot import dlgraph from {src}")
    found = json.loads(out)
    if not Path(found["file"]).resolve().is_relative_to(src):
        raise SetupError(f"dlgraph imported from {found['file']}, not from {src}")
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {"dlgraph": found["file"], "python": found["python"], "git_sha": git_sha(),
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: records host drift beside each round."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i & 7
    return time.perf_counter() - started


def setup_once(client: Client, code: str) -> float:
    """Wall time of one process that imports dlgraph, builds the workload's graph and exits."""
    client.attempted += 1
    wall, returncode, _ = client.python(code)
    if returncode != 0:
        client.failures.append(f"set-up {code!r}: exit code {returncode}")
    return wall


def run_rounds(client: Client, workload: Workload, rng: random.Random, seconds: float) -> dict:
    """Closed loop: whole rounds in seeded order, as many as come nearest to
    ``seconds`` (at least one).

    ``workload.extras`` set-up processes run per round, spread evenly between
    its calls, each followed by one reference call of every kind the round
    lacks, so that both are sampled across the whole run rather than in one
    burst.  None of them counts in the round.
    """
    setup_code = "import dlgraph; dlgraph.DLGraph(dlgraph.DLParams(%d, %d, %d))" % workload.setup
    issued = {call.kind for call in workload.calls}
    references = [REFERENCE_CALLS[kind] for kind in KINDS if kind not in issued]
    out = {"rounds": [], "setups": [], "walls": {}, "context": []}
    started = time.perf_counter()
    # Stop where the next round would end further past ``seconds`` than the run already falls short.
    while not out["rounds"] or (time.perf_counter() - started) * (1 + 0.5 / len(out["rounds"])) < seconds:
        order = list(workload.calls)
        rng.shuffle(order)
        record = {"probe_s": round(host_probe(), 4), "load_before": os.getloadavg()}
        round_ = {"wall": 0.0, "cpu": 0.0, "rss": 0.0}
        extras = 0
        for done, call in enumerate(order, 1):
            wall, cpu, rss = client.invoke(call)
            round_["wall"] += wall
            round_["cpu"] += cpu
            round_["rss"] = max(round_["rss"], rss)
            out["walls"].setdefault(call, []).append(wall)
            while extras < workload.extras * done // len(order):
                out["setups"].append(setup_once(client, setup_code))
                for reference in references:
                    out["walls"].setdefault(reference, []).append(client.invoke(reference)[0])
                extras += 1
        record["load_after"] = os.getloadavg()
        record["order"] = [call.key for call in order]
        out["rounds"].append(round_)
        out["context"].append(record)
    return out


def end_to_end(client: Client, workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Round totals are medians over rounds.  Single calls are means: set-up
    over all set-up processes, and a kind over its distinct calls of each
    call's mean wall time, since the verify workload's two verify calls
    differ in size.  Host speed on a shared 2-core machine switches between
    levels about 40% apart from one call to the next, so a median of short
    calls jumps between the levels with the mix: on the verify workload's
    reference calls, ten runs of the median spread by 0.21-0.26 of their
    median (quartile distance) where the same runs' means spread by 0.11-0.14."""
    run = run_rounds(client, workload, random.Random(seed), seconds)
    rounds = run["rounds"]
    values = {
        "run_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
        "setup_s": statistics.fmean(run["setups"]),
    }
    for kind in KINDS:
        means = [statistics.fmean(walls) for call, walls in run["walls"].items() if call.kind == kind]
        values[f"{kind}_s"] = statistics.fmean(means)
    error_rate = len(client.failures) / client.attempted
    values["ok_rate"] = 1.0 - error_rate
    print(f"rounds: {len(rounds)}, calls: {client.attempted}, error_rate: {error_rate} ratio")
    return values, {"rounds": run["context"]}


def per_layer(client: Client, name: str, seconds: float) -> tuple[dict, dict]:
    """Process-level CLI numbers here, then every other layer in bench/layers.py."""
    imports, commands = [], []
    probe = "import time; t = time.perf_counter(); import dlgraph; print(time.perf_counter() - t)"
    for _ in range(IMPORT_REPS):
        _, returncode, out = client.python(probe)
        client.attempted += 1
        if returncode != 0:
            client.failures.append(f"import probe: exit code {returncode}")
            continue
        imports.append(float(out))
        commands.append(client.invoke(Call("stats", ("stats", "-L", "1")))[0])
    stdout_path = OUT_DIR / "layers.json"
    argv = [sys.executable, str(BENCH_DIR / "layers.py"), "--workload", name, "--seconds", str(seconds)]
    _, returncode, _ = spawn(argv, client.env, stdout_path, client.deadline)
    if returncode != 0:
        tail = (OUT_DIR / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise SetupError(f"layers.py exited with {returncode}:\n{tail}")
    layers = json.loads(stdout_path.read_text(encoding="utf-8"))
    if not Path(layers["dlgraph"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SetupError(f"layers.py imported dlgraph from {layers['dlgraph']}")
    client.attempted += layers["attempted"]
    client.failures += layers["failures"]
    metrics = {"cli.import_s": (statistics.median(imports), "s"),
               "cli.min_command_s": (statistics.median(commands), "s"),
               **{key: tuple(value) for key, value in layers["metrics"].items()}}
    return metrics, {"timed_passes": layers["timed_passes"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="permutes the call order within each round")
    parser.add_argument("--seconds", type=float, required=True, help="measure for this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    signal.signal(signal.SIGTERM, _terminate)
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir()
    try:
        client = Client(load_expected(), deadline)
        pinned = pin_code_under_test(client)
        client.invoke(Call("stats", ("stats", "-L", "1")))  # warm-up after the .pyc writes; untimed
        if args.trace:
            metrics, context = per_layer(client, args.workload, args.seconds)
        else:
            values, context = end_to_end(client, WORKLOADS[args.workload], args.seed, args.seconds)
            metrics = {key: (value, UNITS[key]) for key, value in values.items()}
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeadlineExceeded:
        print(f"error: run exceeded {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "failures": client.failures, **pinned, **context}))
    print(json.dumps({
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
