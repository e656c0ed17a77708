"""Workloads, process runner, output checks and artifact digests.

Every timed command is the real CLI, ``python -m smirsim.cli``, started as
its own process with ``smirsim`` imported from this checkout's ``src/``. The
benchmark only generates inputs (``gen-scenario`` and flags derived from the
seed) and reads the files the CLI writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
PROBE = Path(__file__).resolve().parent / "probe.py"

# A child that runs longer than this is killed and its iteration fails, so a
# hung program cannot push a benchmark run past its time limit.
COMMAND_TIMEOUT_S = 120.0
SETUP_REPEATS = 3
K_BAR = 25.0
STEPS = 100
INITIAL_INFECTED = 100
REL_TOL = 1e-9
# Time of probe.py's speed kernel on the 2-vCPU Xeon VM the benchmark was
# tuned on, in a typical minute. Timings are reported at this speed.
REFERENCE_KERNEL_S = 0.040


@dataclass(frozen=True)
class Workload:
    """One input set. ``kind`` is "pipeline" or "meanfield".

    Why each workload was chosen, and which layer metric it is expected to
    move, is recorded in BENCHMARK.json and perfbench/README.md.
    """

    name: str
    kind: str
    nodes: int = 0
    reps: int = 1
    rates: tuple = ()
    meanfield_runs: tuple = ()
    grid_shape: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline_sparse_200k",
            kind="pipeline",
            nodes=200_000,
            reps=1,
        ),
        Workload(
            name="pipeline_dense_20k",
            kind="pipeline",
            nodes=20_000,
            reps=10,
            rates=("--p-o", "0.006", "--p-m", "0.03", "--gamma", "0.05"),
        ),
        Workload(
            name="meanfield_sweep",
            kind="meanfield",
            meanfield_runs=(
                ("sweep", ("--beta-o", "0.3", "--gamma", "0.2", "--alpha", "0.75",
                           "--method", "rk4", "--sweep", "lambda=1:5:2")),
                ("grid", ("--lambda", "3", "--method", "rk4",
                          "--sweep", "alpha=0.5:1:0.05", "--grid", "beta-o=0.05:0.5:0.05")),
            ),
            grid_shape=(10, 11),
        ),
    )
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("SMIRSIM_OUT", None)
    return env


@dataclass
class Proc:
    """One finished child process."""

    argv: list
    wall_s: float
    maxrss_kb: int
    code: int
    stderr: str


def run_process(argv: list, log_dir: Path, tag: str) -> Proc:
    """Run to completion; peak RSS comes from wait4 on this child alone."""
    log_dir.mkdir(parents=True, exist_ok=True)
    err_path = log_dir / f"{tag}.stderr"
    with open(log_dir / f"{tag}.stdout", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return Proc(argv, wall, usage.ru_maxrss, code, err_path.read_text(errors="replace"))


def cli_argv(args: list, trace_spans: Path | None = None, run_id: str = "") -> list:
    if trace_spans is None:
        return [sys.executable, "-m", "smirsim.cli", *args]
    return [sys.executable, str(TRACED), str(trace_spans), run_id, "--", *args]


def voters_total(scenario_dir: Path) -> int:
    with open(scenario_dir / "counties.csv", newline="") as f:
        return sum(int(row["voters"]) for row in csv.DictReader(f))


def commands(w: Workload, seed: int, scenario_dir: Path | None, out: Path) -> list:
    """(tag, CLI arguments) for each command of one iteration."""
    if w.kind == "meanfield":
        return [(tag, ["meanfield", *flags, "--out", str(out / tag)])
                for tag, flags in w.meanfield_runs]
    sample = w.nodes / voters_total(scenario_dir)
    args = [
        "pipeline", "--scenario-dir", str(scenario_dir), "--sample", repr(sample),
        "--k-bar", repr(K_BAR), "--reps", str(w.reps), "--steps", str(STEPS),
        *w.rates, "--seed", str(seed), "--out", str(out),
    ]
    return [("pipeline", args)]


def setup_commands(w: Workload, seed: int, out: Path) -> list:
    """The work a workload needs before its timed commands.

    Pipelines need a scenario from ``gen-scenario`` (341 counties, the
    default). The mean-field commands need no inputs; their set-up is one
    CLI start-up (interpreter plus package import), the fixed cost every
    command pays before its own work.
    """
    if w.kind == "pipeline":
        return ["gen-scenario", "--seed", str(seed), "--out", str(out)]
    return ["--version"]


# ---------------------------------------------------------------- digests


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out: Path) -> dict:
    """SHA-256 of every CSV and .bin artifact, keyed by path under ``out``."""
    return {
        str(p.relative_to(out)): sha256(p)
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.suffix in (".csv", ".bin")
    }


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def source_digest() -> str:
    """Identifies the program under test: SHA-256 over every file in src/smirsim."""
    h = hashlib.sha256()
    for p in sorted((SRC / "smirsim").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class DigestRegistry:
    """First digests seen per (program, workload, seed), kept across runs.

    Every run's digests also go into its results file, whatever the commit;
    only runs of the same program source and workload definition are
    compared here, because some changes alter artifacts on purpose.
    """

    def __init__(self, root: Path, program: str):
        self.dir = root / program[:16]

    def _path(self, w: Workload, seed: int) -> Path:
        definition = hashlib.sha256(repr(w).encode()).hexdigest()[:12]
        return self.dir / f"{w.name}-{definition}-seed{seed}.json"

    def load(self, w: Workload, seed: int) -> dict | None:
        path = self._path(w, seed)
        return json.loads(path.read_text()) if path.exists() else None

    def store(self, w: Workload, seed: int, digests: dict) -> dict:
        path = self._path(w, seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return digests


# ---------------------------------------------------------------- checks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def probe(*args: str) -> dict:
    """Run probe.py in a child process; see its docstring for why."""
    out = subprocess.run([sys.executable, str(PROBE), *args], capture_output=True,
                         text=True, env=child_env(), cwd=ROOT, timeout=COMMAND_TIMEOUT_S)
    if out.returncode != 0:
        raise ValueError(f"probe {' '.join(args)} failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout)


def speed_factor(kernel_before_s: float, kernel_after_s: float) -> float:
    """Scales a time measured between two speed probes to the reference speed.

    The machine's speed drifts by tens of percent over minutes; a time
    multiplied by this factor reads what it would at the reference speed.
    """
    return REFERENCE_KERNEL_S / ((kernel_before_s + kernel_after_s) / 2)


def check_pipeline(w: Workload, out: Path) -> tuple[list[str], dict]:
    """Problems with one pipeline iteration's artifacts, and counts read from them."""
    problems = []
    net = probe("net", str(out / "contactnet.bin"))
    if abs(net["nodes"] - w.nodes) > 0.001 * w.nodes:
        problems.append(f"contactnet.bin: {net['nodes']} nodes, target {w.nodes}")
    if net["edges"] != round(K_BAR * net["nodes"] / 2):
        problems.append(f"contactnet.bin: {net['edges']} edges != round(k*N/2)")
    rows = read_csv(out / "result.csv")
    if len(rows) != STEPS + 1:
        problems.append(f"result.csv: {len(rows)} rows, expected {STEPS + 1}")
        return problems, {}
    col = {k: [float(r[k]) for r in rows] for k in
           ("mean_cum", "mean_cum_ord", "mean_cum_mis", "mean_new_inf", "mean_prev_I")}
    cum, prev = col["mean_cum"], col["mean_prev_I"]
    if prev[0] != INITIAL_INFECTED:
        problems.append(f"result.csv: day-0 mean_prev_I {prev[0]}")
    for d in range(len(rows)):
        if not _close(cum[d], col["mean_cum_ord"][d] + col["mean_cum_mis"][d]):
            problems.append(f"result.csv day {d}: mean_cum != ord + mis")
            break
    for d in range(1, len(rows)):
        if cum[d] < cum[d - 1]:
            problems.append(f"result.csv day {d}: mean_cum decreases")
            break
        if not _close(cum[d] - cum[d - 1], col["mean_new_inf"][d]):
            problems.append(f"result.csv day {d}: mean_cum step != mean_new_inf")
            break
    node_days = net["nodes"] * STEPS * w.reps
    # Infected node-days a step scans: prevalence at the start of days 0..steps-1.
    infected = sum(prev[:STEPS]) * w.reps
    counts = {
        "contactnet.blocks": net["blocks"],
        "contactnet.edges": net["edges"],
        "abm.node_days": node_days,
        "abm.active_fraction": infected / node_days,
        "abm.live_days": sum(1 for p in prev[1:] if p > 0),
    }
    return problems, counts


def check_meanfield(w: Workload, out: Path) -> tuple[list[str], dict]:
    """Problems with one mean-field iteration's artifacts; it has no layer counts."""
    problems = []
    for path in sorted((out / "sweep" / "trajectories").glob("traj_*.csv")):
        for r in read_csv(path):
            total = sum(float(r[k]) for k in ("S_O", "I_O", "R_O", "S_M", "I_M", "R_M"))
            if abs(total - 1.0) > REL_TOL:
                problems.append(f"{path.name} day {r['day']}: compartments sum to {total!r}")
                break
    summary = sorted(
        (float(r["value"]), float(r["total_infected"]))
        for r in read_csv(out / "sweep" / "sweep_summary.csv")
    )
    if any(b[1] < a[1] for a, b in zip(summary, summary[1:])):
        problems.append("sweep_summary.csv: total_infected decreases in lambda")
    cells = read_csv(out / "grid" / "grid.csv")
    shape = (len({r["beta_o"] for r in cells}), len({r["alpha"] for r in cells}))
    if shape != w.grid_shape or len(cells) != shape[0] * shape[1]:
        problems.append(f"grid.csv: {len(cells)} cells in shape {shape}, expected {w.grid_shape}")
    return problems, {}


# ---------------------------------------------------------------- iterations


@dataclass
class Iteration:
    """One execution of a workload's timed commands, and what was checked."""

    wall_s: float
    peak_rss_mb: float
    speed_factor: float = 1.0
    artifact_mb: float = 0.0
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    traced: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def execute(w: Workload, seed: int, scenario_dir: Path | None, out: Path,
            trace_dir: Path | None = None) -> list[Proc]:
    """Run one iteration's commands, stopping at the first that fails."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    procs = []
    for tag, args in commands(w, seed, scenario_dir, out):
        spans = None if trace_dir is None else trace_dir / f"{tag}.json"
        procs.append(run_process(cli_argv(args, spans, tag), out.parent / "logs", tag))
        if procs[-1].code != 0:
            break
    return procs


def evaluate(w: Workload, procs: list, out: Path, reference: dict | None) -> Iteration:
    """Check exit codes, stderr, artifacts and digests of one executed iteration.

    ``reference`` is the digest set this iteration must reproduce, or None
    for the first iteration of a program and seed.
    """
    it = Iteration(
        wall_s=sum(p.wall_s for p in procs),
        peak_rss_mb=max(p.maxrss_kb for p in procs) / 1024.0,
    )
    for p in procs:
        if p.code != 0:
            it.problems.append(f"{' '.join(p.argv[-6:])}: exit code {p.code}")
        if "Traceback" in p.stderr:
            it.problems.append(f"{' '.join(p.argv[-6:])}: traceback on stderr")
    if it.problems:
        return it
    it.artifact_mb = tree_bytes(out) / 1e6
    it.digests = artifact_digests(out)
    try:
        checker = check_pipeline if w.kind == "pipeline" else check_meanfield
        problems, it.counts = checker(w, out)
        it.problems += problems
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        it.problems.append(f"artifact check raised {type(e).__name__}: {e}")
    if reference is not None and it.digests != reference:
        changed = sorted(k for k in set(reference) | set(it.digests)
                         if reference.get(k) != it.digests.get(k))
        it.problems.append(f"artifact digests differ from the first run: {changed}")
    return it


# ---------------------------------------------------------------- statistics


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, count."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "p_high": None, "p_high_value": None}
    if n >= 11:
        out["p_high"] = 100 * (n - 10) // n
        out["p_high_value"] = s[n - 11]
    return out
