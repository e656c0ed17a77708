import contextlib
import csv
import io
import json
import multiprocessing
import os
import re
import resource
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smirsim import abm, cli, contactnet, meanfield, scenario
from smirsim.cli import _Run, main, write_trajectory_csv
from smirsim.contactnet import ContactNetwork, save_contact_network


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


SCENARIO_FILES = ("counties.csv", "mobility.csv", "infonet_nodes.csv", "infonet_edges.csv")

PIPELINE_BASE = [
    "pipeline", "--synthetic", "--counties", "4", "--sample", "0.05",
    "--k-bar", "10", "--steps", "15", "--reps", "2",
    "--initial-infected", "20", "--seed", "7",
]


@pytest.fixture
def outputs_outside_stages(monkeypatch):
    """The names `_Run.output` is given while no `_Run.stage` is open, as a
    list that fills while the test runs."""
    open_stages, outside = [], []
    stage, output = _Run.stage, _Run.output

    @contextlib.contextmanager
    def tracked_stage(self, name):
        with stage(self, name):
            open_stages.append(name)
            try:
                yield
            finally:
                open_stages.pop()

    def tracked_output(self, name):
        if not open_stages:
            outside.append(name)
        return output(self, name)

    monkeypatch.setattr(_Run, "stage", tracked_stage)
    monkeypatch.setattr(_Run, "output", tracked_output)
    return outside


class TestMeanfieldCommand:
    def test_lambda_sweep_has_21_rows_and_reference_peaks(self, tmp_path, capsys):
        out = tmp_path / "mf"
        rc = run_cli(
            "meanfield", "--beta-o", "0.3", "--gamma", "0.2", "--mu", "0.5",
            "--sweep", "lambda=1:3:0.1", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "sweep_summary.csv")
        assert len(rows) == 21
        by_value = {float(r["value"]): r for r in rows}
        assert int(float(by_value[1.0]["peak_day"])) == 59
        assert int(float(by_value[3.0]["peak_day"])) == 21
        diff = float(by_value[3.0]["total_infected"]) - float(by_value[1.0]["total_infected"])
        assert diff == pytest.approx(0.292, abs=0.015)
        assert (out / "manifest.json").exists()
        table = capsys.readouterr().out
        assert "lambda" in table and "peak_day" in table

    def test_single_run_writes_trajectory(self, tmp_path):
        out = tmp_path / "one"
        rc = run_cli("meanfield", "--beta-o", "0.3", "--gamma", "0.2",
                     "--lambda", "3", "--svg", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 101
        assert rows[0]["S_O"] == "0.4995"
        assert (out / "trajectory.svg").exists()

    def test_grid_emits_heatmap_panels(self, tmp_path):
        out = tmp_path / "grid"
        rc = run_cli(
            "meanfield", "--lambda", "3", "--method", "rk4",
            "--sweep", "alpha=0.5:1.0:0.125", "--grid", "beta-o=0.1:0.4:0.15",
            "--svg", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "grid.csv")
        assert len(rows) == 5 * 3
        assert {"beta_o", "alpha", "ordinary", "misinformed", "overall"} <= rows[0].keys()
        ax = read_csv(out / "grid_argmax.csv")
        assert len(ax) == 3
        for panel in ("ordinary", "misinformed", "overall"):
            assert (out / f"grid_{panel}.svg").exists()

    def test_grid_default_step_layout(self, tmp_path):
        # step omitted on --grid: 13 evenly spaced values across the range
        out = tmp_path / "g13"
        rc = run_cli(
            "meanfield", "--lambda", "3",
            "--sweep", "alpha=0.5:1:0.025", "--grid", "beta-o=0.1:0.4",
            "--svg", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "grid.csv")
        assert len(rows) == 21 * 13
        assert (out / "grid_overall.svg").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        rc = run_cli("meanfield", "--beta-o", "2.0", "--gamma", "0.2",
                     "--out", str(tmp_path / "x"))
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_bad_argument_exit_code(self):
        with pytest.raises(SystemExit) as e:
            run_cli("meanfield", "--beta-o", "lots")
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "method,name,values", [("euler", "lambda", (1, 2, 3)), ("rk4", "tau", (2, 4, 6))]
    )
    def test_sweep_trajectories_match_single_runs(self, tmp_path, method, name, values):
        out = tmp_path / "mf"
        spec = f"{name}={values[0]}:{values[-1]}:{values[1] - values[0]}"
        rc = run_cli("meanfield", "--lambda", "2", "--method", method, "--horizon", "40",
                     "--sweep", spec, "--out", str(out))
        assert rc == 0
        base = meanfield.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=2.0)
        expected = tmp_path / "expected.csv"
        for v in values:
            p = meanfield.apply_param(base, name, float(v))
            write_trajectory_csv(meanfield.integrate(p, 40, None, method), expected)
            produced = out / "trajectories" / f"traj_{name}_{v:g}.csv"
            assert produced.read_bytes() == expected.read_bytes(), produced.name

    def test_bad_sweep_spec_is_input_error(self, tmp_path, capsys):
        rc = run_cli("meanfield", "--sweep", "lambda=banana",
                     "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestPipelineCommand:
    def test_runs_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "p"
        rc = run_cli(*PIPELINE_BASE, "--phi", "1", "--out", str(out))
        assert rc == 0
        for name in (
            "contactnet.bin", "result.csv", "summary.json", "manifest.json",
            "counties.csv", "mobility.csv", "infonet_nodes.csv", "infonet_edges.csv",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_degree"] == pytest.approx(10.0, rel=0.02)
        assert summary["n_nodes"] > 1000
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    def test_stages_report_their_time_on_stderr(self, tmp_path, capsys):
        assert run_cli(*PIPELINE_BASE, "--out", str(tmp_path / "p")) == 0
        err = capsys.readouterr().err
        started = re.findall(r"^stage (\S+)$", err, re.M)
        done = re.findall(r"^stage (\S+) done in \d+\.\d{3}s$", err, re.M)
        assert started == done
        assert {"generate_scenario", "build_contact_network", "abm"} <= set(done)

    def test_each_stderr_line_is_one_write(self, tmp_path, monkeypatch):
        # Parallel sweep rows share stderr: a line written in two calls can
        # have another process's output land between its text and newline.
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stderr", Recorder())
        assert run_cli(*PIPELINE_BASE, "--out", str(tmp_path / "p")) == 0
        assert writes
        assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes), writes

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*PIPELINE_BASE, "--out", str(a)) == 0
        assert run_cli(*PIPELINE_BASE, "--out", str(b)) == 0
        for name in ("contactnet.bin", "result.csv", "summary.json",
                     "counties.csv", "mobility.csv", "infonet_edges.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = PIPELINE_BASE[:-1]  # strip seed value
        assert run_cli(*base, "3", "--out", str(a)) == 0
        assert run_cli(*base, "4", "--out", str(b)) == 0
        assert (a / "result.csv").read_bytes() != (b / "result.csv").read_bytes()

    def test_missing_scenario_dir_exit_2_names_stage(self, tmp_path, capsys):
        rc = run_cli("pipeline", "--scenario-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "load_scenario" in capsys.readouterr().err

    def test_scenario_dir_round_trip(self, tmp_path):
        gen = tmp_path / "scen"
        assert run_cli("gen-scenario", "--counties", "4", "--seed", "5",
                       "--out", str(gen)) == 0
        out = tmp_path / "p"
        rc = run_cli(
            "pipeline", "--scenario-dir", str(gen), "--sample", "0.05",
            "--k-bar", "8", "--steps", "10", "--reps", "1",
            "--initial-infected", "10", "--seed", "5", "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["input_hashes"]) == 4

    def test_regen_network_flag(self, tmp_path):
        out = tmp_path / "r"
        rc = run_cli(*PIPELINE_BASE, "--regen-network", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "result.csv")
        assert len(rows) == 16

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*PIPELINE_BASE, "--out", str(a)) == 0
        rc = run_cli("pipeline", "--from-manifest", str(a / "manifest.json"),
                     "--out", str(b))
        assert rc == 0
        for name in ("contactnet.bin", "result.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_scenario_source_is_input_error(self, tmp_path, capsys):
        rc = run_cli("pipeline", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "scenario source" in capsys.readouterr().err

    def test_retry_budget_exit_3_names_the_county_pair(self, tmp_path, capsys, monkeypatch):
        # Two sampled nodes, one edge, one draw: a self-loop exhausts the budget.
        monkeypatch.setattr(contactnet, "RETRY_FACTOR", 1)
        scen = tmp_path / "scen"
        scen.mkdir()
        for name, text in (
            ("counties.csv", "fips,voters,republican_share,twitter_users\n1000,100,0.5,2\n"),
            ("mobility.csv", "x_fips,y_fips,value\n1000,1000,1.0\n"),
            ("infonet_nodes.csv",
             "id,county_fips,alignment,misinformed_seed\n0,1000,1.0,1\n1,1000,-1.0,1\n"),
            ("infonet_edges.csv", "src,dst,weight\n"),
        ):
            (scen / name).write_text(text)
        codes = []
        for seed in range(32):
            codes.append(run_cli(
                "pipeline", "--scenario-dir", str(scen), "--sample", "0.02", "--k-bar", "1",
                "--steps", "1", "--reps", "1", "--initial-infected", "1",
                "--seed", str(seed), "--out", str(tmp_path / f"o{seed}"),
            ))
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if codes[-1] == 3:
                last = err.splitlines()[-1]
                assert "stage build_contact_network" in last
                assert "county pair (1000, 1000)" in last
        assert 3 in codes and set(codes) <= {0, 3}


class TestSweepCommand:
    def test_phi_sweep_misinformed_non_increasing(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli(
            "sweep", "--synthetic", "--counties", "4", "--sample", "0.05",
            "--k-bar", "10", "--steps", "15", "--reps", "2",
            "--initial-infected", "20", "--seed", "7",
            "--vary", "phi", "--values", "1,3,8", "--svg", "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "sweep_summary.csv")
        assert [float(r["value"]) for r in rows] == [1.0, 3.0, 8.0]
        mis = [float(r["misinformed_fraction"]) for r in rows]
        assert mis[0] >= mis[1] >= mis[2]
        # largest phi anchors the relative column
        assert float(rows[-1]["relative_increase_vs_baseline"]) == 0.0
        assert (out / "rows" / "phi_1" / "result.csv").exists()
        assert (out / "sweep_cumulative.svg").exists()

    def test_single_value_sweep_matches_pipeline(self, tmp_path):
        sweep_out = tmp_path / "s"
        pipe_out = tmp_path / "p"
        rc = run_cli(
            "sweep", *PIPELINE_BASE[1:], "--phi", "2",
            "--vary", "phi", "--values", "2", "--out", str(sweep_out),
        )
        assert rc == 0
        assert run_cli(*PIPELINE_BASE, "--phi", "2", "--out", str(pipe_out)) == 0
        row = read_csv(sweep_out / "sweep_summary.csv")[0]
        summary = json.loads((pipe_out / "summary.json").read_text())
        assert float(row["cumulative_final_mean"]) == summary["cumulative_final_mean"]
        assert (
            (sweep_out / "rows" / "phi_2" / "result.csv").read_bytes()
            == (pipe_out / "result.csv").read_bytes()
        )

    def test_from_manifest_reproduces_pipeline(self, tmp_path):
        pipe_out, sweep_out = tmp_path / "p", tmp_path / "s"
        assert run_cli(*PIPELINE_BASE, "--phi", "2", "--out", str(pipe_out)) == 0
        rc = run_cli("sweep", "--from-manifest", str(pipe_out / "manifest.json"),
                     "--vary", "phi", "--values", "2", "--out", str(sweep_out))
        assert rc == 0
        assert (
            (sweep_out / "rows" / "phi_2" / "result.csv").read_bytes()
            == (pipe_out / "result.csv").read_bytes()
        )

    def test_parallel_rows_match_serial(self, tmp_path):
        serial, par = tmp_path / "ser", tmp_path / "par"
        argv = [
            "sweep", "--synthetic", "--counties", "3", "--sample", "0.04",
            "--k-bar", "6", "--steps", "8", "--reps", "1",
            "--initial-infected", "5", "--seed", "2",
            "--vary", "phi", "--values", "1,4",
        ]
        assert run_cli(*argv, "--out", str(serial)) == 0
        assert run_cli(*argv, "--jobs", "2", "--out", str(par)) == 0
        row_files = [f"{row}/{name}" for row in ("phi_1", "phi_4")
                     for name in ("contactnet.bin", "result.csv")]
        for out in (serial, par):
            # The scenario is saved once, at the top; rows hold only their own runs.
            assert sorted(
                p.relative_to(out / "rows").as_posix()
                for p in (out / "rows").rglob("*") if p.is_file()
            ) == row_files
            assert all((out / name).is_file() for name in SCENARIO_FILES)
        for name in ["sweep_summary.csv", *(f"rows/{f}" for f in row_files)]:
            assert (serial / name).read_bytes() == (par / name).read_bytes(), name

    def test_scenario_dir_sweep_records_inputs(self, tmp_path):
        gen = tmp_path / "scen"
        assert run_cli("gen-scenario", "--counties", "4", "--seed", "5",
                       "--out", str(gen)) == 0
        out = tmp_path / "s"
        rc = run_cli(
            "sweep", "--scenario-dir", str(gen), "--sample", "0.05",
            "--k-bar", "8", "--steps", "10", "--reps", "1",
            "--initial-infected", "10", "--seed", "5",
            "--vary", "phi", "--values", "1,3", "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["input_hashes"]) == sorted(str(gen / n) for n in SCENARIO_FILES)
        names = [s["name"] for s in manifest["stages"]]
        assert names[0] == "load_scenario" and names.count("load_scenario") == 1
        assert not any((out / name).exists() for name in SCENARIO_FILES)

    def test_scenario_config_sweep_records_the_config(self, tmp_path):
        config = tmp_path / "scenario.txt"
        config.write_text("county_count = 3\n")
        out = tmp_path / "s"
        rc = run_cli(
            "sweep", "--synthetic", "--scenario-config", str(config), "--sample", "0.04",
            "--k-bar", "6", "--steps", "5", "--reps", "1", "--initial-infected", "5",
            "--vary", "k-bar", "--values", "4,6", "--out", str(out),
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["input_hashes"]) == [str(config)]


# A sweep small enough to run in well under a second per row.
SMALL_SWEEP = [
    "sweep", "--synthetic", "--counties", "3", "--sample", "0.04", "--k-bar", "6",
    "--steps", "3", "--reps", "1", "--initial-infected", "5", "--seed", "2",
]


class FakePool:
    """A ProcessPoolExecutor stand-in that starts no process: it records each
    pool's max_workers and the shares it is given, and maps them serially."""

    def __init__(self, max_workers=None, mp_context=None):
        self.calls.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, shares, chunksize=1):
        self.calls[-1]["shares"] = list(shares)
        return map(fn, self.calls[-1]["shares"])


@pytest.fixture
def fake_pool(monkeypatch):
    """FakePool in place of concurrent.futures.ProcessPoolExecutor; returns
    its list of calls."""
    import concurrent.futures

    pool = type("RecordingPool", (FakePool,), {"calls": []})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pool


class TestSweepShares:
    """Phi rows share one sample and each network built; --jobs splits a
    sweep's rows into contiguous shares, at most one worker per share."""

    @pytest.fixture(scope="class")
    def lone_runs(self, tmp_path_factory):
        """contactnet.bin and result.csv of a lone pipeline per phi and
        --regen-network setting."""
        out = tmp_path_factory.mktemp("lone")
        runs = {}
        for regen in ([], ["--regen-network"]):
            for phi in (1, 3, 5):
                run = out / f"{len(regen)}_{phi}"
                assert run_cli(*PIPELINE_BASE, *regen, "--phi", str(phi), "--out", str(run)) == 0
                runs[bool(regen), phi] = {name: (run / name).read_bytes()
                                          for name in ("contactnet.bin", "result.csv")}
        return runs

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("regen", [[], ["--regen-network"]], ids=["one_network", "regen"])
    def test_rows_equal_lone_pipelines(self, tmp_path, lone_runs, jobs, regen):
        out = tmp_path / "s"
        assert run_cli("sweep", *PIPELINE_BASE[1:], *regen, "--vary", "phi", "--values", "1,3,5",
                       "--jobs", jobs, "--out", str(out)) == 0
        for phi in (1, 3, 5):
            for name, data in lone_runs[bool(regen), phi].items():
                assert (out / "rows" / f"phi_{phi}" / name).read_bytes() == data, (phi, name)
        names = [s["name"] for s in json.loads((out / "manifest.json").read_text())["stages"]]
        # One share at --jobs 1; at --jobs 2 the shares are [1] and [3, 5].
        firsts = ["phi_1"] if jobs == "1" else ["phi_1", "phi_3"]
        builds = ["[rep=0]", "[rep=1]"] if regen else [""]
        assert [n for n in names if "sample_population" in n] == [
            f"{row}/sample_population" for row in firsts]
        assert [n for n in names if "build_contact_network" in n] == [
            f"{row}/build_contact_network{b}" for row in firsts for b in builds]
        assert [n for n in names if "spread_misinformation" in n] == [
            f"phi_{phi}/spread_misinformation" for phi in (1, 3, 5)]
        assert [n for n in names if "/abm" in n] == [
            f"phi_{phi}/abm{b}" for phi in (1, 3, 5) for b in builds]

    @pytest.mark.parametrize("vary, values, jobs, shares", [
        ("phi", "1,3,5", "2", [[1], [3, 5]]),
        ("phi", "1,3,5", "16", [[1], [3], [5]]),
        ("phi", "1,2,3,4,5", "3", [[1], [2, 3], [4, 5]]),
        ("k-bar", "4,5,6", "2", [[4.0], [5.0], [6.0]]),
        ("sample", "0.03,0.04", "16", [[0.03], [0.04]]),
    ])
    def test_workers_capped_at_the_share_count(self, tmp_path, fake_pool, vary, values, jobs,
                                               shares):
        assert run_cli(*SMALL_SWEEP, "--vary", vary, "--values", values, "--jobs", jobs,
                       "--out", str(tmp_path / "s")) == 0
        workers = min(int(jobs), len(shares))
        assert fake_pool.calls == [{"max_workers": workers, "shares": shares}]

    def test_one_job_starts_no_pool(self, tmp_path, fake_pool):
        assert run_cli(*SMALL_SWEEP, "--vary", "k-bar", "--values", "4,6",
                       "--out", str(tmp_path / "s")) == 0
        assert fake_pool.calls == []

    def test_dead_worker_exits_3(self, tmp_path, fake_pool, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        def broken_map(self, fn, shares, chunksize=1):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(fake_pool, "map", broken_map)
        out = tmp_path / "s"
        assert run_cli(*SMALL_SWEEP, "--vary", "phi", "--values", "1,3", "--jobs", "2",
                       "--out", str(out)) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "numeric failure: a sweep worker died (killed, or out of memory)"
        assert not (out / "manifest.json").exists()


needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="repetitions fan out only where the platform forks safely")


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs this process may use to range(k) and lets a network of any
    size fan its repetitions out."""
    monkeypatch.setattr(cli, "_FORK_MIN_EDGES", 0)
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@needs_fork
class TestForkedRepetitions:
    """A pipeline's repetitions run in forked workers, one per CPU it may use,
    with the same artifacts and exit codes as a serial run, and no worker left."""

    @pytest.mark.parametrize("command, files", [
        ([*PIPELINE_BASE, "--reps", "3"], ["result.csv", "summary.json", "contactnet.bin"]),
        (["sweep", *PIPELINE_BASE[1:], "--reps", "3", "--vary", "phi", "--values", "1,3",
          "--jobs", "1"],
         ["sweep_summary.csv", *(f"rows/phi_{phi}/{name}" for phi in (1, 3)
                                 for name in ("result.csv", "contactnet.bin"))]),
    ], ids=["pipeline", "phi_sweep"])
    def test_artifacts_equal_for_any_worker_count(self, tmp_path, cpus, command, files):
        artifacts = []
        for k in (1, 2, 3):
            cpus(k)
            out = tmp_path / str(k)
            assert run_cli(*command, "--out", str(out)) == 0
            artifacts.append({name: (out / name).read_bytes() for name in files})
            assert multiprocessing.active_children() == []
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_workers_capped_at_the_repetitions(self, tmp_path, cpus, fake_pool):
        cpus(64)
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(tmp_path / "p")) == 0
        assert fake_pool.calls == [{"max_workers": 3, "shares": [0, 1, 2]}]

    @pytest.mark.parametrize("jobs, calls", [
        ("1", [{"max_workers": 3, "shares": [0, 1, 2]}] * 2),  # each row fans out
        ("2", [{"max_workers": 2, "shares": [[1], [3]]}]),  # rows in workers stay serial
    ])
    def test_sweep_rows_fan_out_only_in_its_own_process(self, tmp_path, cpus, fake_pool, jobs,
                                                        calls):
        cpus(64)
        assert run_cli("sweep", *PIPELINE_BASE[1:], "--reps", "3", "--vary", "phi",
                       "--values", "1,3", "--jobs", jobs, "--out", str(tmp_path / "s")) == 0
        assert fake_pool.calls == calls

    def test_small_network_stays_serial(self, tmp_path, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(tmp_path / "p")) == 0
        assert fake_pool.calls == []

    def test_no_fork_runs_serially(self, tmp_path, cpus, fake_pool, monkeypatch):
        cpus(64)
        monkeypatch.delattr(os, "fork")
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(tmp_path / "p")) == 0
        assert fake_pool.calls == []

    def test_worker_input_error_exits_2_as_serial(self, tmp_path, cpus, capsys):
        lines = []
        for k in (1, 2):
            cpus(k)
            assert run_cli(*PIPELINE_BASE, "--initial-infected", "100000",
                           "--out", str(tmp_path / str(k))) == 2
            lines.append(capsys.readouterr().err.splitlines()[-1])
            assert multiprocessing.active_children() == []
        assert lines[0] == lines[1]
        assert lines[0].startswith("error: stage abm: cannot seed 100000 infections")

    def test_killed_worker_exits_3(self, tmp_path, cpus, capsys, monkeypatch):
        rep_counts = abm._rep_counts

        def dies_on_rep_1(net, cfg, master_seed, rep):
            if rep == 1:
                os._exit(1)
            return rep_counts(net, cfg, master_seed, rep)

        monkeypatch.setattr(abm, "_rep_counts", dies_on_rep_1)
        cpus(2)
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--reps", "3", "--out", str(out)) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == ("numeric failure: stage abm: a repetition worker died "
                        "(killed, or out of memory)")
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()

    def test_stage_rss_covers_reaped_workers(self, tmp_path, monkeypatch):
        getrusage = resource.getrusage

        def large_children(who):
            usage = getrusage(who)
            if who != resource.RUSAGE_CHILDREN:
                return usage
            return type("Usage", (), {"ru_maxrss": 1 << 30})  # KiB: 1 TiB

        monkeypatch.setattr(resource, "getrusage", large_children)
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert {s["max_rss_mb"] for s in stages} == {(1 << 30) / 1024}


MANIFEST_KEYS = {
    "engine_version", "subcommand", "parameters", "input_hashes", "master_seed",
    "duration_seconds", "outputs", "stages",
}


class TestRunRecord:
    """manifest.json records each stage that stderr reports as done."""

    @pytest.mark.parametrize("extra", [[], ["--regen-network"]])
    def test_manifest_stages_match_stderr(self, tmp_path, capsys, extra):
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, *extra, "--out", str(out)) == 0
        done = re.findall(r"^stage (\S+) done in \d+\.\d{3}s$", capsys.readouterr().err, re.M)
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert [s["name"] for s in stages] == done
        assert ("build_contact_network[rep=1]" in done) == bool(extra)
        rss = [s["max_rss_mb"] for s in stages]
        assert rss == sorted(rss) and rss[0] > 0  # a high-water mark never falls
        assert all(s.keys() == {"name", "wall_s", "max_rss_mb"} for s in stages)
        assert all(s["wall_s"] >= 0 for s in stages)

    def test_parallel_sweep_lists_every_row_stage(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli(
            "sweep", *PIPELINE_BASE[1:], "--vary", "phi", "--values", "1,3",
            "--jobs", "2", "--out", str(out),
        ) == 0
        names = [s["name"] for s in json.loads((out / "manifest.json").read_text())["stages"]]
        row = ["spread_misinformation", "sample_population", "expected_edges",
               "build_contact_network", "abm", "write_outputs"]
        assert names == ["generate_scenario", "save_scenario",
                         *(f"phi_1/{n}" for n in row), *(f"phi_3/{n}" for n in row),
                         "write_outputs"]
        assert not list((out / "rows").rglob("manifest.json"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_manifest_lists_row_outputs(self, tmp_path, jobs):
        out = tmp_path / "s"
        assert run_cli(
            "sweep", *PIPELINE_BASE[1:], "--reps", "1", "--vary", "phi", "--values", "1,3",
            "--jobs", jobs, "--out", str(out),
        ) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        written = sorted(str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
        assert outputs == written
        assert str(out / "rows" / "phi_3" / "contactnet.bin") in outputs

    @pytest.mark.parametrize("mode", [
        [], ["--sweep", "lambda=1:3:1"], ["--sweep", "alpha=0.5:1:0.25", "--grid", "beta-o=0.1:0.3:0.1"],
    ], ids=["single", "sweep", "grid"])
    def test_meanfield_names_every_output_inside_a_stage(self, tmp_path, outputs_outside_stages,
                                                         mode):
        out = tmp_path / "m"
        assert run_cli("meanfield", "--horizon", "5", *mode, "--svg", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == ["integrate", "write_outputs"]
        assert manifest["outputs"] and outputs_outside_stages == []

    @pytest.mark.parametrize("command, last_written", [
        (["pipeline"], {"summary.json", "epidemic.svg"}),
        (["sweep", "--vary", "phi", "--values", "1,2"], {"sweep_summary.csv", "sweep_cumulative.svg"}),
    ], ids=["pipeline", "sweep"])
    def test_pipeline_names_every_output_inside_a_stage(self, tmp_path, outputs_outside_stages,
                                                        command, last_written):
        out = tmp_path / "p"
        assert run_cli(*command, "--synthetic", "--counties", "3", *SMALL_PIPELINE, "--svg",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert last_written <= {p.name for p in out.iterdir()}
        assert manifest["outputs"] and outputs_outside_stages == []
        top_stages = [s["name"] for s in manifest["stages"] if "/" not in s["name"]]
        assert top_stages.count("write_outputs") == 1

    def test_out_of_memory_in_a_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(scenario, "generate_scenario", exhausted)
        assert run_cli("gen-scenario", "--seed", "1", "--out", str(tmp_path / "g")) == 3
        err = capsys.readouterr().err
        assert err.endswith("numeric failure: stage generate_scenario: "
                            "out of memory (Unable to allocate 7.45 GiB)\n")

    def test_other_value_error_in_a_stage_is_not_out_of_memory(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("Maximum allowed size is a bug here")

        monkeypatch.setattr(scenario, "generate_scenario", broken)
        with pytest.raises(ValueError, match="a bug here"):
            run_cli("gen-scenario", "--seed", "1", "--out", str(tmp_path / "g"))

    def test_out_of_memory_outside_a_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        # The summary printed after the stages is computed outside any stage.
        monkeypatch.setattr(meanfield, "summarize", exhausted)
        assert run_cli("meanfield", "--horizon", "2", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith("numeric failure: out of memory\n")

    def test_meanfield_out_of_memory_names_the_integrate_stage(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(meanfield, "integrate", exhausted)
        assert run_cli("meanfield", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith("numeric failure: stage integrate: out of memory\n")

    def test_meanfield_sweep_out_of_memory_names_the_integrate_stage(self, tmp_path, capsys,
                                                                     monkeypatch):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(meanfield, "sweep", exhausted)
        assert run_cli("meanfield", "--sweep", "lambda=1:2", "--out", str(tmp_path / "m")) == 3
        assert capsys.readouterr().err.endswith("numeric failure: stage integrate: out of memory\n")

    def test_failed_stage_writes_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--k-bar", "nan", "--out", str(out)) == 2
        assert "stage expected_edges" in capsys.readouterr().err
        assert (out / "counties.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_bad_flag_creates_no_out_dir(self, tmp_path):
        out = tmp_path / "x"
        assert run_cli("meanfield", "--sweep", "lambda=banana", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["meanfield", "--horizon", "10"],
        ["meanfield", "--horizon", "10", "--sweep", "lambda=1:2:1"],
        ["gen-scenario", "--counties", "2", "--seed", "1"],
        [*PIPELINE_BASE, "--reps", "1"],
        ["sweep", *PIPELINE_BASE[1:], "--reps", "1", "--vary", "phi", "--values", "1"],
    ])
    def test_manifest_keys(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.keys() == MANIFEST_KEYS
        assert manifest["subcommand"] == argv[0]
        assert manifest["stages"], "every command records its stages"


class TestOtherCommands:
    def test_gen_scenario_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("gen-scenario", "--counties", "3", "--seed", "1",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("inspect", str(out / "counties.csv")) == 0
        assert "3 counties" in capsys.readouterr().out

    def test_inspect_contact_network(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli(*PIPELINE_BASE, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("inspect", str(out / "contactnet.bin")) == 0
        text = capsys.readouterr().out
        assert "contact network" in text and "mean degree" in text

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert run_cli("inspect", str(tmp_path / "ghost.bin")) == 2

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMIRSIM_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-scenario", "--counties", "2", "--seed", "1") == 0
        assert (tmp_path / "envout" / "counties.csv").exists()


def _small_contactnet_bytes(path) -> bytes:
    """A saved 3-node, 2-edge contact network, as written to `path`."""
    net = ContactNetwork(
        county_ids=np.array([1000]),
        county_index=np.zeros(3, dtype=np.int32),
        misinformed=np.array([True, False, False]),
        edges=np.array([[0, 1], [1, 2]], dtype=np.uint32),
        k_bar=2.0,
        seed=0,
    )
    save_contact_network(net, path)
    return path.read_bytes()


def _write_bad_inputs(d):
    """Malformed files for the error-contract table below."""
    (d / "malformed.json").write_text("{not json")
    (d / "no_parameters.json").write_text(json.dumps({"subcommand": "pipeline"}))
    (d / "unknown_key.json").write_text(
        json.dumps({"subcommand": "pipeline", "parameters": {"phi": 1, "colour": "red"}})
    )
    for name, params in {
        "phi_text": {"phi": "x"},
        "counties_text": {"counties": "4"},
        "reps_fraction": {"reps": 2.5},
        "seed_bool": {"seed": True},
        "seed_negative": {"seed": -1},
        "regen_number": {"regen_network": 1},
        "k_bar_nan": {"counties": 3, "k_bar": float("nan")},  # dumped as NaN
        "scenario_dir_nul": {"scenario_dir": "scenario\0"},
    }.items():
        (d / f"{name}.json").write_text(
            json.dumps({"subcommand": "pipeline", "parameters": params})
        )
    (d / "meanfield_manifest.json").write_text(
        json.dumps({"subcommand": "meanfield", "parameters": {"horizon": 10}})
    )
    big = "99999999999999999999"  # beyond int64
    for dir_name, bad_name, bad_text in (
        ("empty_mobility", "mobility.csv", b""),
        ("empty_infonet_edges", "infonet_edges.csv", b""),
        ("no_counties", "counties.csv", b"fips,voters,republican_share,twitter_users\n"),
        ("weight_overflow", "infonet_edges.csv", f"src,dst,weight\n0,0,{big}\n".encode()),
        ("fips_overflow", "infonet_nodes.csv",
         f"id,county_fips,alignment,misinformed_seed\n0,{big},,1\n".encode()),
        ("voters_overflow", "counties.csv",
         f"fips,voters,republican_share,twitter_users\n1000,{big},0.5,5\n".encode()),
        ("nodes_latin1", "infonet_nodes.csv",
         b"id,county_fips,alignment,misinformed_seed\n0,1000,,1\n\xe9,1000,,0\n"),
        ("users_negative", "counties.csv",
         b"fips,voters,republican_share,twitter_users\n1000,50,0.5,-5\n"),
        ("mobility_inf", "mobility.csv", b"x_fips,y_fips,value\n1000,1000,inf\n"),
        ("mobility_negative", "mobility.csv", b"x_fips,y_fips,value\n1000,1000,-1.0\n"),
        ("node_outside", "infonet_nodes.csv",
         b"id,county_fips,alignment,misinformed_seed\n0,1001,,1\n"),
    ):
        scen = d / dir_name
        scen.mkdir()
        for name, text in (
            ("counties.csv", "fips,voters,republican_share,twitter_users\n1000,50,0.5,5\n"),
            ("mobility.csv", "x_fips,y_fips,value\n1000,1000,1.0\n"),
            ("infonet_nodes.csv", "id,county_fips,alignment,misinformed_seed\n0,1000,,1\n"),
            ("infonet_edges.csv", "src,dst,weight\n"),
        ):
            (scen / name).write_text(text)
        (scen / bad_name).write_bytes(bad_text)
    (d / "binary.dat").write_bytes(b"\xff\xfe\x00\x81 not text")
    (d / "config_latin1.txt").write_bytes(b"county_count = 5 # caf\xe9\n")
    (d / "config_seed.txt").write_text("county_count = 4\nseed = 5\n")
    for name, line in {
        "pop_median_nan": "pop_median = nan",
        "pop_sigma_inf": "pop_sigma = inf",
        "share_alpha_inf": "share_alpha = inf",
        "gravity_exponent_inf": "gravity_exponent = inf",
        "pop_median_negative": "pop_median = -1",
        "share_alpha_zero": "share_alpha = 0",
        "user_rate_2": "twitter_user_rate = 2",
        "users_min_0": "twitter_users_min = 0",
        "retweet_weight_p_0": "retweet_weight_p = 0",
        "no_equals": "county_count 3",
    }.items():
        (d / f"config_{name}.txt").write_text(line + "\n")
    data = _small_contactnet_bytes(d / "good.bin")
    (d / "truncated.bin").write_bytes(data[:-3])
    (d / "trailing.bin").write_bytes(data + b"\0")
    (d / "header_only.bin").write_bytes(data[:20])
    (d / "zero_nodes.bin").write_bytes(contactnet.MAGIC + contactnet._HEADER.pack(0, 0, 2.0, 0, 0))
    index_at = len(contactnet.MAGIC) + contactnet._HEADER.size + 8  # node 0's county index
    for name, word in (("county_index_max", 0xFFFFFFFF), ("county_index_big", 10**6)):
        bad = bytearray(data)
        bad[index_at:index_at + 4] = word.to_bytes(4, "little")
        (d / f"{name}.bin").write_bytes(bytes(bad))


# case -> (argv, with {d} for the input directory; text the error must contain
# [, exit code when it is 3, a numeric failure, not 2])
BAD_INPUTS = {
    "gen-scenario --counties 0": (["gen-scenario", "--counties", "0"], "county_count"),
    "scenario config not UTF-8": (
        ["gen-scenario", "--scenario-config", "{d}/config_latin1.txt"], "config_latin1.txt:1"),
    "scenario config with a seed": (
        ["gen-scenario", "--scenario-config", "{d}/config_seed.txt"], "config_seed.txt:2: seed"),
    "pipeline --counties 0": (["pipeline", "--synthetic", "--counties", "0"], "county_count"),
    "manifest not JSON": (["pipeline", "--from-manifest", "{d}/malformed.json"], "malformed.json"),
    "manifest without parameters": (
        ["pipeline", "--from-manifest", "{d}/no_parameters.json"], "no_parameters.json"),
    "manifest with unknown key": (
        ["pipeline", "--from-manifest", "{d}/unknown_key.json"], "colour"),
    "manifest not text": (["pipeline", "--from-manifest", "{d}/binary.dat"], "binary.dat"),
    "sweep manifest not JSON": (
        ["sweep", "--from-manifest", "{d}/malformed.json", "--vary", "phi", "--values", "1"],
        "malformed.json"),
    "sweep --values 1,x": (
        ["sweep", "--synthetic", "--vary", "phi", "--values", "1,x"], "--values"),
    "sweep --values empty": (["sweep", "--synthetic", "--vary", "phi", "--values", ""], "--values"),
    "sweep --values 2,y for k-bar": (
        ["sweep", "--synthetic", "--vary", "k-bar", "--values", "2,y"], "--values"),
    "meanfield --horizon -1 --sweep": (
        ["meanfield", "--horizon", "-1", "--sweep", "lambda=1:2"], "horizon"),
    "meanfield --horizon 0 --sweep": (
        ["meanfield", "--horizon", "0", "--sweep", "lambda=1:2"], "horizon"),
    # 10^300 steps a day: rejected before the first one
    "meanfield --dt 1e-300": (["meanfield", "--horizon", "2", "--dt", "1e-300"], "dt=1e-300"),
    "meanfield --grid without --sweep": (
        ["meanfield", "--grid", "beta-o=0.1:0.4"], "--grid requires --sweep"),
    "meanfield --dt 0": (["meanfield", "--dt", "0"], "dt must be > 0"),
    "meanfield --sweep tau from 0": (["meanfield", "--sweep", "tau=0:2"], "tau must be > 0"),
    "meanfield --horizon -1 --grid": (
        ["meanfield", "--horizon", "-1", "--sweep", "alpha=0.5:1", "--grid", "beta-o=0.1:0.2"],
        "horizon"),
    "inspect truncated contactnet": (["inspect", "{d}/truncated.bin"], "truncated.bin"),
    "inspect contactnet with trailing bytes": (["inspect", "{d}/trailing.bin"], "trailing.bin"),
    "inspect contactnet header only": (["inspect", "{d}/header_only.bin"], "header_only.bin"),
    "inspect contactnet county index 0xFFFFFFFF": (
        ["inspect", "{d}/county_index_max.bin"], "county_index_max.bin"),
    "inspect contactnet county index past the county table": (
        ["inspect", "{d}/county_index_big.bin"], "county_index_big.bin"),
    "inspect contactnet with zero nodes": (["inspect", "{d}/zero_nodes.bin"], "zero_nodes.bin"),
    "inspect non-UTF-8 file": (["inspect", "{d}/binary.dat"], "unrecognized artifact format"),
    "manifest phi text": (["pipeline", "--from-manifest", "{d}/phi_text.json"], "phi"),
    "manifest counties text": (
        ["pipeline", "--from-manifest", "{d}/counties_text.json"], "counties"),
    "manifest reps fraction": (
        ["pipeline", "--from-manifest", "{d}/reps_fraction.json"], "reps"),
    "manifest seed bool": (["pipeline", "--from-manifest", "{d}/seed_bool.json"], "seed"),
    "manifest seed -1": (
        ["pipeline", "--from-manifest", "{d}/seed_negative.json"], "parameter seed is -1"),
    "gen-scenario --seed -3": (["gen-scenario", "--seed", "-3"], "--seed"),
    "pipeline --seed -1": (["pipeline", "--synthetic", "--seed", "-1"], "--seed"),
    "manifest scenario_dir with NUL": (
        ["pipeline", "--from-manifest", "{d}/scenario_dir_nul.json"], "scenario_dir"),
    "manifest regen_network number": (
        ["pipeline", "--from-manifest", "{d}/regen_number.json"], "regen_network"),
    "manifest of a meanfield run": (
        ["pipeline", "--from-manifest", "{d}/meanfield_manifest.json"],
        "is not a pipeline manifest"),
    "scenario config pop_median -1": (
        ["gen-scenario", "--scenario-config", "{d}/config_pop_median_negative.txt"],
        "population distribution"),
    "scenario config share_alpha 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_share_alpha_zero.txt"],
        "share distribution"),
    "scenario config twitter_user_rate 2": (
        ["gen-scenario", "--scenario-config", "{d}/config_user_rate_2.txt"], "twitter_user_rate"),
    "scenario config twitter_users_min 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_users_min_0.txt"], "twitter_users_min"),
    "scenario config retweet_weight_p 0": (
        ["gen-scenario", "--scenario-config", "{d}/config_retweet_weight_p_0.txt"],
        "retweet_weight_p"),
    "scenario config line without =": (
        ["gen-scenario", "--scenario-config", "{d}/config_no_equals.txt"],
        "config_no_equals.txt:1: expected key = value"),
    # non-finite: rejected before NumPy warns on a cast or a division
    "scenario config non-finite pop_median": (
        ["gen-scenario", "--counties", "5", "--scenario-config", "{d}/config_pop_median_nan.txt"],
        "pop_median must be finite, got nan"),
    "scenario config non-finite pop_sigma": (
        ["gen-scenario", "--counties", "5", "--scenario-config", "{d}/config_pop_sigma_inf.txt"],
        "pop_sigma must be finite, got inf"),
    "scenario config non-finite share_alpha": (
        ["gen-scenario", "--counties", "5", "--scenario-config", "{d}/config_share_alpha_inf.txt"],
        "share_alpha must be finite, got inf"),
    "scenario config non-finite gravity_exponent": (
        ["gen-scenario", "--counties", "5",
         "--scenario-config", "{d}/config_gravity_exponent_inf.txt"],
        "gravity_exponent must be finite, got inf"),
    # non-finite rates: rejected before a step that would warn and overflow
    "meanfield --beta-o=inf --gamma=inf": (
        ["meanfield", "--beta-o=inf", "--gamma=inf"], "beta_o must be finite"),
    "meanfield --gamma=inf": (["meanfield", "--gamma=inf"], "gamma must be finite"),
    "meanfield --lambda=inf": (["meanfield", "--lambda=inf"], "lambda must be finite"),
    "meanfield --beta-o=nan": (["meanfield", "--beta-o=nan"], "beta_o must be finite"),
    "meanfield --sweep nan start": (["meanfield", "--sweep", "lambda=nan:1:0.1"], "--sweep"),
    "meanfield --sweep nan step": (["meanfield", "--sweep", "lambda=1:2:nan"], "--sweep"),
    "meanfield --sweep inf stop": (["meanfield", "--sweep", "lambda=1:inf:1"], "--sweep"),
    # rejected before any value is built: 10^12 floats would exhaust memory
    "meanfield --sweep 10^12 values": (["meanfield", "--sweep", "lambda=1:1e12:1"], "--sweep"),
    "meanfield --grid 10^9 values": (
        ["meanfield", "--sweep", "alpha=0.5:1", "--grid", "beta-o=0:1e9:1"], "--grid"),
    "meanfield --sweep values print alike": (
        ["meanfield", "--sweep", "lambda=1:1.000002:0.000001"], "1.000001"),
    "sweep --values 1,1": (
        ["sweep", "--synthetic", "--vary", "phi", "--values", "1,1"], "--values"),
    "sweep --jobs 0": (
        ["sweep", "--synthetic", "--vary", "phi", "--values", "1", "--jobs", "0"], "--jobs"),
    "sweep --jobs -2": (
        ["sweep", "--synthetic", "--vary", "phi", "--values", "1", "--jobs", "-2"], "--jobs"),
    "empty mobility file": (
        ["pipeline", "--scenario-dir", "{d}/empty_mobility"], "mobility.csv"),
    "empty infonet edges file": (
        ["pipeline", "--scenario-dir", "{d}/empty_infonet_edges"], "infonet_edges.csv"),
    "counties file without rows": (
        ["pipeline", "--scenario-dir", "{d}/no_counties"], "counties.csv"),
    "edge weight beyond int64": (
        ["pipeline", "--scenario-dir", "{d}/weight_overflow"], "infonet_edges.csv:2"),
    "node county_fips beyond int64": (
        ["pipeline", "--scenario-dir", "{d}/fips_overflow"], "infonet_nodes.csv:2"),
    "county voters beyond int64": (
        ["pipeline", "--scenario-dir", "{d}/voters_overflow"], "counties.csv:2"),
    "infonet nodes not UTF-8": (
        ["pipeline", "--scenario-dir", "{d}/nodes_latin1"], "infonet_nodes.csv:3"),
    "county twitter users negative": (
        ["pipeline", "--scenario-dir", "{d}/users_negative"],
        "twitter user counts must be nonnegative"),
    "mobility value inf": (
        ["pipeline", "--scenario-dir", "{d}/mobility_inf"],
        "mobility.csv:2: non-finite mobility inf"),
    "mobility value negative": (
        ["pipeline", "--scenario-dir", "{d}/mobility_negative"],
        "mobility.csv:2: negative mobility"),
    "node county outside the scenario": (
        ["pipeline", "--scenario-dir", "{d}/node_outside"],
        "references counties outside the scenario"),
    "pipeline --k-bar nan": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "nan"], "stage expected_edges"),
    "pipeline --k-bar inf": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "inf"], "stage expected_edges"),
    "sweep --values nan for k-bar": (
        ["sweep", "--synthetic", "--counties", "3", "--vary", "k-bar", "--values", "nan"],
        "stage expected_edges"),
    "manifest k_bar NaN": (
        ["pipeline", "--from-manifest", "{d}/k_bar_nan.json"], "stage expected_edges"),
    # more edges than node pairs: rejected before the multinomial draw overflows
    "pipeline --k-bar 1e300": (
        ["pipeline", "--synthetic", "--counties", "3", "--k-bar", "1e300"],
        "stage build_contact_network", 3),
    # two ranges of 1001 values each: rejected before any cell is integrated
    "meanfield --grid 10^6 cells": (
        ["meanfield", "--sweep", "alpha=0:1:0.001", "--grid", "beta-o=0:1:0.001"], "cells"),
    # counts whose arrays NumPy refuses to shape: out of memory, as a MemoryError is
    "meanfield --horizon 10^20": (
        ["meanfield", "--horizon", "100000000000000000000"], "stage integrate: out of memory", 3),
    "meanfield --horizon 2^62": (
        ["meanfield", "--horizon", "4611686018427387904"], "stage integrate: out of memory", 3),
    "pipeline --steps 10^20": (
        ["pipeline", "--synthetic", "--counties", "3", "--steps", "100000000000000000000"],
        "stage abm: out of memory", 3),
    "pipeline --reps 10^20": (
        ["pipeline", "--synthetic", "--counties", "3", "--reps", "100000000000000000000"],
        "stage abm: out of memory", 3),
    "pipeline --counties 10^20": (
        ["pipeline", "--synthetic", "--counties", "100000000000000000000"],
        "stage generate_scenario: out of memory", 3),
    "gen-scenario --counties 10^20": (
        ["gen-scenario", "--counties", "100000000000000000000"],
        "stage generate_scenario: out of memory", 3),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    argv, expected, *code = BAD_INPUTS[case]
    code = code[0] if code else 2
    _write_bad_inputs(tmp_path)
    argv = [a.format(d=tmp_path) for a in argv]
    if argv[0] != "inspect":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: " if code == 2 else "numeric failure: ") and expected in last


@pytest.mark.parametrize("case", [c for c in BAD_INPUTS if "non-finite" in c])
def test_non_finite_scenario_config_warns_nothing(tmp_path, capsys, case):
    argv, expected = BAD_INPUTS[case]
    _write_bad_inputs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(d=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert expected in capsys.readouterr().err


# Header fields of contactnet.bin, in _HEADER order: node count, edge count,
# k_bar, seed, county count.
_HEADER_FIELDS = (
    st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.floats(),
    st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1),
)


@st.composite
def truncated_or_flipped(draw, data: bytes) -> bytes:
    """`data` cut short, or with one to four of its bytes changed."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for at, mask in draw(st.lists(
            st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)),
            min_size=1, max_size=4)):
        out[at] ^= mask
    return bytes(out)


@st.composite
def corrupted_contactnet(draw, data: bytes) -> bytes:
    """`data` truncated, byte-flipped, with header fields edited, or with
    small node, edge and county counts and a body cut or zero-padded to the
    size they declare (so the file passes the size check)."""
    start = len(contactnet.MAGIC)
    end = start + contactnet._HEADER.size
    fields = list(contactnet._HEADER.unpack(data[start:end]))
    body = data[end:]
    kind = draw(st.sampled_from(["bytes", "header", "resize"]))
    if kind == "bytes":
        return draw(truncated_or_flipped(data))
    if kind == "header":
        for i in draw(st.lists(st.integers(0, len(fields) - 1), min_size=1, max_size=3)):
            fields[i] = draw(_HEADER_FIELDS[i])
    else:
        n, m, n_counties = (draw(st.integers(0, 4)) for _ in range(3))
        fields[0], fields[1], fields[4] = n, m, n_counties
        size = 8 * n_counties + 4 * n + (n + 7) // 8 + 8 * m
        body = body[:size].ljust(size, b"\0")
    return data[:start] + contactnet._HEADER.pack(*fields) + body


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_inspect_corrupt_contactnet_never_tracebacks(tmp_path, data):
    path = tmp_path / "net.bin"
    path.write_bytes(data.draw(corrupted_contactnet(_small_contactnet_bytes(path))))
    assert_exits_cleanly(["inspect", str(path)])


@pytest.fixture(scope="module")
def text_artifacts(tmp_path_factory):
    """result.csv, counties.csv, mobility.csv and manifest.json of a small
    synthetic pipeline, as bytes by file name."""
    out = tmp_path_factory.mktemp("text_artifacts")
    assert run_cli("pipeline", "--synthetic", "--counties", "3", "--reps", "1", "--steps", "2",
                   "--initial-infected", "1", "--out", str(out)) == 0
    return {name: (out / name).read_bytes()
            for name in ("result.csv", "counties.csv", "mobility.csv", "manifest.json")}


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_inspect_corrupt_text_artifact_never_tracebacks(tmp_path, text_artifacts, data):
    # counties.csv is inspected as a scenario, with its sibling mobility.csv.
    (tmp_path / "mobility.csv").write_bytes(text_artifacts["mobility.csv"])
    name = data.draw(st.sampled_from(["result.csv", "counties.csv", "manifest.json"]))
    path = tmp_path / name
    path.write_bytes(data.draw(truncated_or_flipped(text_artifacts[name])))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["inspect", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def assert_exits_cleanly(argv):
    """`main(argv)` ends in exit 0, 2 or 3; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# A small pipeline that runs through the ABM on the three-county scenario.
SMALL_PIPELINE = ["--reps", "1", "--steps", "2", "--initial-infected", "1"]


@pytest.fixture(scope="module")
def three_counties(tmp_path_factory):
    """The scenario files of `gen-scenario --counties 3` and the manifest of a
    small synthetic pipeline on it, as bytes by file name."""
    out = tmp_path_factory.mktemp("three_counties")
    assert run_cli("gen-scenario", "--counties", "3", "--out", str(out / "scenario")) == 0
    assert run_cli("pipeline", "--synthetic", "--counties", "3", *SMALL_PIPELINE,
                   "--out", str(out / "run")) == 0
    files = {name: (out / "scenario" / name).read_bytes() for name in SCENARIO_FILES}
    return {**files, "manifest.json": (out / "run" / "manifest.json").read_bytes()}


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pipeline_on_corrupt_scenario_never_tracebacks(tmp_path, three_counties, data):
    scen = tmp_path / "scenario"
    scen.mkdir(exist_ok=True)
    corrupt = data.draw(st.sampled_from(SCENARIO_FILES))
    for name in SCENARIO_FILES:
        text = three_counties[name]
        (scen / name).write_bytes(data.draw(truncated_or_flipped(text)) if name == corrupt else text)
    assert_exits_cleanly(["pipeline", "--scenario-dir", str(scen), *SMALL_PIPELINE,
                          "--out", str(tmp_path / "out")])


# JSON values a manifest parameter may be replaced with.
JSON_VALUES = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4)
               | st.lists(st.integers(0, 3), max_size=2))


@st.composite
def corrupted_manifest(draw, data: bytes) -> bytes:
    """The manifest `data` truncated or byte-flipped, or with one to three of
    its parameters given other JSON values."""
    if draw(st.booleans()):
        return draw(truncated_or_flipped(data))
    manifest = json.loads(data)
    params = manifest["parameters"]
    for key in draw(st.lists(st.sampled_from(sorted(params)), min_size=1, max_size=3)):
        params[key] = draw(JSON_VALUES)
    return json.dumps(manifest).encode()


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pipeline_from_corrupt_manifest_never_tracebacks(tmp_path, three_counties, data):
    path = tmp_path / "manifest.json"
    path.write_bytes(data.draw(corrupted_manifest(three_counties["manifest.json"])))
    assert_exits_cleanly(["pipeline", "--from-manifest", str(path), "--out", str(tmp_path / "out")])


# Values a meanfield flag or range bound may take: half of the draws valid
# for most flags, half out of range, tiny, huge or non-finite.
FUZZ_VALID = ("0.25", "0.5", "0.75", "1", "2")
FUZZ_ODD = ("0", "-1", "1e-300", "1e300", "nan", "inf", "-inf")
fuzz_number = st.sampled_from(FUZZ_VALID) | st.sampled_from(FUZZ_ODD)
MEANFIELD_FLAGS = ("--beta-o", "--gamma", "--lambda", "--mu", "--alpha", "--epsilon", "--dt")


@st.composite
def range_spec(draw, names) -> str:
    """A --sweep/--grid value: a name (mostly one of `names`) and either an
    ordered START:STOP:STEP or one to four arbitrary parts."""
    name = draw(st.sampled_from(names) | st.sampled_from(["lambda", "tau", "gamma", ""]))
    if draw(st.booleans()):
        start, stop = sorted(draw(st.lists(st.sampled_from(FUZZ_VALID), min_size=2, max_size=2)),
                             key=float)
        parts = [start, stop, draw(st.sampled_from(FUZZ_VALID))]
    else:
        parts = draw(st.lists(fuzz_number | st.just("x"), min_size=1, max_size=4))
    return f"{name}={':'.join(parts)}"


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_meanfield_flag_values_never_traceback(tmp_path, data):
    argv = ["meanfield", "--horizon", str(data.draw(st.integers(-1, 5))),
            "--method", data.draw(st.sampled_from(["euler", "rk4"]))]
    for flag in data.draw(st.lists(st.sampled_from(MEANFIELD_FLAGS), max_size=3, unique=True)):
        argv.append(f"{flag}={data.draw(fuzz_number)}")  # "--x -inf" would read as two flags
    mode = data.draw(st.sampled_from(["single", "sweep", "grid"]))
    if mode == "sweep":
        argv.append(f"--sweep={data.draw(range_spec(['lambda', 'alpha', 'beta-o', 'tau']))}")
    if mode == "grid":
        argv.append(f"--sweep={data.draw(range_spec(['alpha']))}")
        argv.append(f"--grid={data.draw(range_spec(['beta-o']))}")
    if data.draw(st.booleans()):
        argv.append("--svg")
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])


# Values a pipeline flag may take: valid, out of range or non-finite, all
# small enough that a run on three counties ends within a second.
PIPELINE_FLAG_VALUES = {
    "--sample": ("0.05", "1", "0", "-0.5", "2", "1e-300", "nan", "inf"),
    "--k-bar": ("3", "10", "0", "-1", "1e6", "1e300", "nan", "inf", "-inf"),
    "--p-o": ("0", "0.01", "1", "-0.1", "1.5", "nan", "inf"),
    "--p-m": ("0", "0.5", "1", "-0.1", "1.5", "nan", "-inf"),
    "--gamma": ("0", "0.2", "1", "-0.1", "1.5", "nan", "inf"),
    "--steps": ("-1", "0", "1", "3"),
    "--reps": ("-1", "0", "1", "2"),
    "--phi": ("-1", "0", "1", "2", "1000000"),
    "--initial-infected": ("-1", "0", "1", "5", "1000000"),
}


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pipeline_flag_values_never_traceback(tmp_path, three_counties, data):
    scen = tmp_path / "scenario"
    if not scen.exists():
        scen.mkdir()
        for name in SCENARIO_FILES:
            (scen / name).write_bytes(three_counties[name])
    argv = ["pipeline", "--scenario-dir", str(scen), *SMALL_PIPELINE]
    for flag in data.draw(st.lists(st.sampled_from(sorted(PIPELINE_FLAG_VALUES)), min_size=1,
                                   max_size=4, unique=True)):
        argv.append(f"{flag}={data.draw(st.sampled_from(PIPELINE_FLAG_VALUES[flag]))}")
    if data.draw(st.booleans()):
        argv.append("--regen-network")
    assert_exits_cleanly([*argv, "--out", str(tmp_path / "out")])
