"""Benchmark of the smirsim CLI: end-to-end metrics untraced, per-layer traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline_sparse_200k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets the workload up (``gen-scenario`` for pipelines, three times,
reporting the median as ``setup_s``), then repeats the workload's timed CLI
commands until ``--seconds`` have passed, checking every iteration's exit
code, stderr, artifacts and artifact digests. With ``--trace 1`` each
iteration is run once untraced and once under ``traced.py``, and the
per-layer metrics come from the traced spans. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. A results file with the environment, every iteration and the
per-layer self times is written under ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import ROOT, SRC, WORKLOADS, Workload
import layers

WORK = ROOT / ".perfbench-work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}


class CheckoutError(Exception):
    """The directory is not a smirsim checkout this benchmark can run."""


def program_info() -> dict:
    """Where this checkout's smirsim imports from, and the numpy version.

    Asked of a child process, because the harness itself must not import
    numpy (see probe.py).
    """
    if not (SRC / "smirsim" / "__init__.py").is_file():
        raise CheckoutError(f"no smirsim package under {SRC}")
    try:
        info = harness.probe("info")
    except (ValueError, OSError, subprocess.SubprocessError) as e:
        raise CheckoutError(f"cannot import smirsim from {SRC}: {e}") from e
    if not Path(info["smirsim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise CheckoutError(f"smirsim imported from {info['smirsim_file']}, not {SRC}")
    return info


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(info: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": harness.source_digest(),
        "smirsim_file": info["smirsim_file"],
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        # uint32 (lo, hi) pairs, the array abm.step gathers every day.
        "edge_array_bytes": {w.name: 8 * round(harness.K_BAR * w.nodes / 2)
                             for w in WORKLOADS.values() if w.kind == "pipeline"},
    }


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.dir = WORK / f"run-{os.getpid()}-{w.name}"
        self.registry = harness.DigestRegistry(WORK / "digests", harness.source_digest())
        self.reference: dict | None = None
        self.setup_s: list[float] = []
        self.setup_factors: list[float] = []
        self.kernel_s: list[float] = []
        self.setup_layers: dict = {}
        self.iterations: list[harness.Iteration] = []
        self.layer_runs: list[dict] = []
        self.layer_self: list[dict] = []
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.setup_s) + len(self.iterations)

    @property
    def failed(self) -> int:
        return sum(not it.ok for it in self.iterations) + (1 if self.problems else 0)

    def calibrate(self) -> float:
        """Probe the machine's speed after a timed item; returns the item's speed factor.

        Untraced runs bracket every set-up and iteration with speed probes;
        traced runs report raw times and take none.
        """
        if self.trace:
            return 1.0
        self.kernel_s.append(harness.probe("speed")["kernel_s"])
        return harness.speed_factor(self.kernel_s[-2], self.kernel_s[-1])

    def set_up(self) -> Path | None:
        """Run the set-up; returns the scenario directory pipelines read."""
        repeats = 1 if self.trace else harness.SETUP_REPEATS
        if self.trace and self.w.kind == "meanfield":
            self.setup_layers = layers.setup_metrics(None)
            return None
        first = None
        for i in range(repeats):
            out = self.dir / f"setup{i}"
            args = harness.setup_commands(self.w, self.seed, out)
            spans = self.dir / "setup-spans.json" if self.trace else None
            p = harness.run_process(harness.cli_argv(args, spans, "setup"), self.dir / "logs", f"setup{i}")
            self.setup_s.append(p.wall_s)
            self.setup_factors.append(self.calibrate())
            if p.code != 0 or "Traceback" in p.stderr:
                raise RuntimeError(f"set-up {' '.join(args)} failed with exit {p.code}:\n{p.stderr}")
            if self.w.kind == "pipeline":
                digests = harness.artifact_digests(out)
                if first is None:
                    first = digests
                elif digests != first:
                    self.problems.append(f"set-up {i} artifacts differ from set-up 0")
            if spans is not None:
                self.setup_layers = layers.setup_metrics(layers.SpanSet([spans]))
        return self.dir / "setup0" if self.w.kind == "pipeline" else None

    def iterate(self, scenario_dir: Path | None, traced: bool) -> None:
        out = self.dir / "out"
        trace_dir = self.dir / "spans" if traced else None
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        procs = harness.execute(self.w, self.seed, scenario_dir, out, trace_dir)
        if self.reference is None:
            self.reference = self.registry.load(self.w, self.seed)
        it = harness.evaluate(self.w, procs, out, self.reference)
        it.traced = traced
        if not traced:
            it.speed_factor = self.calibrate()
        if it.ok and self.reference is None:
            self.reference = self.registry.store(self.w, self.seed, it.digests)
        self.iterations.append(it)
        if traced and it.ok:
            spans = layers.SpanSet(sorted(trace_dir.glob("*.json")))
            for f in spans.smirsim_files:
                if not Path(f).resolve().is_relative_to(SRC.resolve()):
                    it.problems.append(f"traced run imported smirsim from {f}")
            metrics = layers.layer_metrics(spans, it.counts)
            self_s = spans.layer_self_s()
            if abs(sum(self_s.values()) - metrics["cli.main_s"]) > 1e-6 * max(1.0, metrics["cli.main_s"]):
                it.problems.append("layer self times do not add up to cli.main_s")
            self.layer_runs.append(metrics)
            self.layer_self.append(self_s)

    def execute(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        if not self.trace:
            self.kernel_s.append(harness.probe("speed")["kernel_s"])
        try:
            scenario_dir = self.set_up()
            start = time.perf_counter()
            while True:
                self.iterate(scenario_dir, traced=False)
                if self.trace:
                    self.iterate(scenario_dir, traced=True)
                if time.perf_counter() - start >= self.seconds:
                    break
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    def end_to_end(self) -> dict:
        plain = [it for it in self.iterations if not it.traced]
        ok = [it for it in plain if it.ok] or plain
        return {
            "wall_s": [it.wall_s * it.speed_factor for it in plain],
            "setup_s": [t * f for t, f in zip(self.setup_s, self.setup_factors)],
            "peak_rss_mb": [it.peak_rss_mb for it in plain],
            "artifact_mb": [it.artifact_mb for it in ok],
        }

    def per_layer(self) -> dict:
        names = set().union(*self.layer_runs) if self.layer_runs else set()
        m = {k: statistics.median(r[k] for r in self.layer_runs if k in r) for k in names}
        m.update(self.setup_layers)
        traced = [it.wall_s for it in self.iterations if it.traced]
        plain = [it.wall_s for it in self.iterations if not it.traced]
        if traced:
            m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return m

    def extras(self) -> dict:
        """Figures reported beside the end-to-end metrics."""
        plain = [it for it in self.iterations if not it.traced]
        out = {"fail_rate": self.failed / self.attempted if self.attempted else 0.0}
        if self.w.kind == "pipeline":
            node_days = self.w.nodes * harness.STEPS * self.w.reps
            out["node_days_per_s"] = node_days / statistics.median(self.end_to_end()["wall_s"])
        if not self.trace:
            out["raw_wall_s"] = statistics.median(it.wall_s for it in plain)
            out["raw_setup_s"] = statistics.median(self.setup_s)
        return out


def contract_line(run: Run) -> dict:
    if run.trace:
        values = run.per_layer()
        metrics = {k: {"value": values[k], "unit": layers.UNITS[k]}
                   for k in layers.UNITS if k in values}
    else:
        samples = run.end_to_end()
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
                   for k, v in samples.items() if v}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def report(run: Run) -> None:
    plain = sum(not it.traced for it in run.iterations)
    print(f"== {run.w.name}  seed {run.seed}  trace {int(run.trace)}  "
          f"iterations {plain}  attempted {run.attempted}  failed {run.failed}")
    if not run.trace:
        print(f"   {'metric':<18}{'unit':<8}{'median':>12}{'p_high':>18}{'n':>5}")
        for k, v in run.end_to_end().items():
            if not v:
                continue
            s = harness.summarize(v)
            high = f"p{s['p_high']}={s['p_high_value']:.4g}" if s["p_high"] is not None else "- (n<11)"
            print(f"   {k:<18}{END_TO_END_UNITS[k]:<8}{s['median']:>12.5g}{high:>18}{s['n']:>5}")
        units = {"fail_rate": "1", "node_days_per_s": "1/s"}
        for k, v in run.extras().items():
            print(f"   {k:<18}{units.get(k, 's'):<8}{v:>12.5g}")
    else:
        values = run.per_layer()
        for k in (k for k in layers.UNITS if k in values):
            print(f"   {k:<32}{layers.UNITS[k]:<9}{values[k]:>14.6g}")
        if run.layer_self:
            print("   self time per layer (median s):",
                  {k: round(statistics.median(r[k] for r in run.layer_self), 4) for k in layers.LAYERS})
    for it in run.iterations:
        for p in it.problems:
            print(f"   FAILED: {p}")
    for p in run.problems:
        print(f"   FAILED: {p}")


def write_results(run: Run, env: dict, line: dict, why: str) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{run.w.name}-seed{run.seed}-trace{int(run.trace)}-{stamp}-{os.getpid()}.json"
    doc = {
        "environment": env,
        "workload": {"name": run.w.name, "why": why, "seed": run.seed,
                     "seconds": run.seconds, "trace": run.trace},
        "result": line,
        "end_to_end": {k: harness.summarize(v) for k, v in run.end_to_end().items() if v},
        "extras": run.extras(),
        "setup_s": run.setup_s,
        "setup_speed_factors": run.setup_factors,
        "speed_kernel_s": run.kernel_s,
        "iterations": [vars(it) for it in run.iterations],
        "layer_self_s": run.layer_self,
        "problems": run.problems,
        # Must stay below every peak_rss_mb sample, which wait4 would otherwise inflate.
        "harness_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        env = environment(program_info())
    except CheckoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        try:
            run.execute()
        except RuntimeError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 3
        lines[name] = contract_line(run)
        report(run)
        print(f"   results: {write_results(run, env, lines[name], whys[name]).relative_to(ROOT)}")
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{n}.{k}": v for n, r in lines.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
