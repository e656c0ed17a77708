"""Self-test of the benchmark harness at toy sizes (about 20 s).

Usage: python3 perfbench/selftest.py

Runs a 12-county scenario and a 10,000-node pipeline through the same
execute/evaluate path the benchmark uses, then shows that a forced non-zero
exit, a corrupted ``result.csv``, a corrupted mean-field trajectory and a
digest mismatch each count as a failed iteration and raise ``fail_rate``,
and that a traced iteration's layer self times add up to ``cli.main``.
Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import shutil
import sys
from dataclasses import replace

import harness
import layers
from harness import Workload
from run import WORK, program_info

SEED = 3
TOY = Workload(name="toy_pipeline", kind="pipeline", nodes=10_000, reps=2)
TOY_MEANFIELD = Workload(
    name="toy_meanfield", kind="meanfield",
    meanfield_runs=(
        ("sweep", ("--sweep", "lambda=1:3:1")),
        ("grid", ("--sweep", "alpha=0.5:1:0.25", "--grid", "beta-o=0.1:0.3:0.1")),
    ),
    grid_shape=(3, 3),
)


class Tally:
    def __init__(self):
        self.iterations: list[harness.Iteration] = []
        self.errors: list[str] = []

    @property
    def fail_rate(self) -> float:
        return sum(not it.ok for it in self.iterations) / len(self.iterations)

    def record(self, label: str, it: harness.Iteration, expect_ok: bool) -> None:
        before = self.fail_rate if self.iterations else 0.0
        self.iterations.append(it)
        raised = self.fail_rate > before
        print(f"{label:<34} ok={it.ok!s:<5} fail_rate={self.fail_rate:.3f}  {it.problems[:1]}")
        if it.ok != expect_ok or (not expect_ok and not raised):
            self.errors.append(f"{label}: ok={it.ok}, fail_rate {before:.3f} -> {self.fail_rate:.3f}")


def rewrite_csv(path, row_index: int, column: str, value: str) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    rows[row_index][column] = value
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def main() -> int:
    program_info()
    tmp = WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tally = Tally()
    try:
        scenario = tmp / "scenario"
        gen = harness.run_process(
            harness.cli_argv(["gen-scenario", "--counties", "12", "--seed", str(SEED),
                              "--out", str(scenario)]), tmp / "logs", "gen")
        if gen.code != 0:
            print(gen.stderr)
            return 1
        out = tmp / "out"

        procs = harness.execute(TOY, SEED, scenario, out)
        first = harness.evaluate(TOY, procs, out, None)
        tally.record("clean pipeline run", first, True)
        procs = harness.execute(TOY, SEED, scenario, out)
        tally.record("identical rerun", harness.evaluate(TOY, procs, out, first.digests), True)

        wrong = dict(first.digests, **{"result.csv": "0" * 64})
        tally.record("digest mismatch", harness.evaluate(TOY, procs, out, wrong), False)

        rewrite_csv(out / "result.csv", 5, "mean_cum", "1e9")
        tally.record("corrupted result.csv", harness.evaluate(TOY, procs, out, None), False)

        bad = replace(TOY, rates=("--p-o", "2"))
        procs = harness.execute(bad, SEED, scenario, out)
        tally.record("forced non-zero exit (--p-o 2)", harness.evaluate(bad, procs, out, None), False)

        procs = harness.execute(TOY_MEANFIELD, SEED, None, out)
        tally.record("clean meanfield run", harness.evaluate(TOY_MEANFIELD, procs, out, None), True)
        traj = sorted((out / "sweep" / "trajectories").glob("*.csv"))[0]
        rewrite_csv(traj, 3, "S_O", "0.5")
        tally.record("corrupted trajectory", harness.evaluate(TOY_MEANFIELD, procs, out, None), False)

        spans_dir = tmp / "spans"
        spans_dir.mkdir()
        procs = harness.execute(TOY, SEED, scenario, out, spans_dir)
        traced = harness.evaluate(TOY, procs, out, first.digests)
        tally.record("traced run, same digests", traced, True)
        spans = layers.SpanSet(sorted(spans_dir.glob("*.json")))
        metrics = layers.layer_metrics(spans, traced.counts)
        total = sum(spans.layer_self_s().values())
        print(f"layer self times {total:.6f} s, cli.main_s {metrics['cli.main_s']:.6f} s")
        if abs(total - metrics["cli.main_s"]) > 1e-6:
            tally.errors.append("layer self times do not add up to cli.main_s")
        missing = [k for k in layers.UNITS if k not in metrics
                   and k not in layers.SETUP_METRICS and k != "trace.overhead_s"]
        if missing:
            tally.errors.append(f"traced run lacks per-layer metrics {missing}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for e in tally.errors:
        print(f"SELFTEST FAILED: {e}")
    print("selftest", "failed" if tally.errors else "passed")
    return 1 if tally.errors else 0


if __name__ == "__main__":
    sys.exit(main())
