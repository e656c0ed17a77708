"""Command-line front end.

Subcommands: ``meanfield`` (ODE runs, sweeps, homophily grids), ``pipeline``
(misinformation spread -> population sampling -> contact network -> epidemic),
``sweep`` (pipeline over a list of phi / k-bar / sample values),
``gen-scenario`` (synthesize scenario files), and ``inspect`` (artifact
stats).

Conventions: all data goes to files under --out (default from $SMIRSIM_OUT,
else ./smirsim-out); standard output carries only the summary table; progress
goes to standard error. Every successful run writes a manifest.json with the
resolved parameters, input hashes, seed, outputs and ``stages``: each stage's
name, wall time, ``pid`` and ``max_rss_mb`` (that process's peak RSS so far), in
the order stderr reports them. A sweep has one record and names its rows' stages
``phi_1/abm``, ...; rows with one sample fraction and k-bar share one sample and
each network, recorded under their first row, as is the one ``abm`` stage of all
rows; a network that one work item alone reads is built and recorded inside
``abm``. Re-running with the same parameters reproduces every CSV and binary
artifact byte for byte.
Exit codes, all set by ``main``: 0 on success, 2 for argument/input errors, 3 for numeric
failures and 130 on Ctrl-C; its stderr line names the innermost stage an error passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, abm, contactnet, infonet, meanfield, scenario, svgplot
from .errors import InputError, NumericError
from .tables import write_columns

# Seed-derivation stream ids for pipeline stages (scenario generation itself
# uses streams 0-2 of the same master seed).
_STREAM_SAMPLE = 10
_STREAM_NET = 11
_STREAM_ABM = 12
_STREAM_NET_REP = 1000  # + repetition, when --regen-network
_STREAM_ABM_REP = 2000

# NumPy's ValueError texts for an array whose shape or bytes no address space holds.
_TOO_BIG = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded", "array is too big")

# Fewest contact-network edges at which a pipeline's repetitions fan out to forked
# workers: below it a repetition is too short to pay for a worker's start (on a
# 2-vCPU VM forking lost at 125k edges and won from 137k).
_FORK_MIN_EDGES = 150_000


def _progress(msg: str) -> None:
    # One write per line, so lines from forked workers do not interleave.
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


_forked = None  # what _fork_map's workers apply, set before they fork


def _call_forked(item):
    return _forked(item)


def _fork_map(fn, items, workers: int | None = None) -> list:
    """``list(map(fn, items))``, in min(`workers` or CPUs, items) forked processes; serial
    where that is one or where fork is unsafe. `fn` reaches the workers through fork:
    only items and results are pickled."""
    global _forked
    safe = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")  # not Windows, macOS
    workers = min(workers or len(os.sched_getaffinity(0)), len(items)) if safe else 1
    if workers < 2:
        return list(map(fn, items))
    import ctypes
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    def start(parent=os.getpid()) -> None:  # a worker dies with its parent, and of Ctrl-C quietly
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        # PR_SET_PDEATHSIG (1): SIGKILL when the thread that forked this worker ends
        ctypes.CDLL(None).prctl(ctypes.c_int(1), ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() != parent:  # the parent ended before prctl
            os._exit(1)

    _forked = fn
    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), start) as pool:
            return list(pool.map(_call_forked, items, chunksize=1))
    except BrokenExecutor as e:  # a worker was killed
        raise NumericError("a repetition worker died (killed, or out of memory)") from e
    finally:
        _forked = None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run(AbstractContextManager):
    """The record of one command run: out dir, parameters, seed, inputs,
    outputs and stages.

    ``out`` is --out, else $SMIRSIM_OUT, else ./smirsim-out. Naming the first
    output creates it and deletes an older manifest.json. Leaving ``with _Run(...)``
    without an error writes manifest.json; a failed run writes none. A command has one
    ``_Run``, sweep rows included; a repetition worker records its stages in
    a bare ``_Run``, which writes none, and returns them.
    """

    def __init__(self, out, subcommand: str = "", params: dict | None = None, seed=None):
        self.out = Path(out or os.environ.get("SMIRSIM_OUT") or "smirsim-out")
        self.subcommand = subcommand
        self.params = params
        self.seed = seed
        self.inputs: list = []
        self.outputs: list[Path] = []
        self.stages: list[dict] = []
        self.started = time.monotonic()

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            return
        manifest = {
            "engine_version": __version__,
            "subcommand": self.subcommand,
            "parameters": self.params,
            "input_hashes": {str(p): _sha256(p) for p in self.inputs},
            "master_seed": self.seed,
            "duration_seconds": round(time.monotonic() - self.started, 3),
            "outputs": sorted(str(o) for o in self.outputs),
            "stages": self.stages,
        }
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def output(self, name: str) -> Path:
        """``out / name``, recorded as an output; its directory is created."""
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if not self.outputs:  # out now holds no finished run
            (self.out / "manifest.json").unlink(missing_ok=True)
        self.outputs.append(path)
        return path

    @contextmanager
    def stage(self, name: str):
        """Reports a pipeline stage's wall time on stderr and records it with
        ``max_rss_mb`` and the ``pid`` of the process that ran it when it
        succeeds; tags whatever leaves it, an error or an interrupt, with
        ``stage``, the innermost stage it passed. `main` says what that means."""
        _progress(f"stage {name}")
        started = time.monotonic()
        try:
            yield
        except BaseException as e:  # the same object, which a worker's pickle carries back
            e.stage = getattr(e, "stage", name)
            raise
        wall = time.monotonic() - started
        _progress(f"stage {name} done in {wall:.3f}s")
        # ru_maxrss: peak RSS so far of this process or its largest reaped worker (KiB; B on macOS)
        peak = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        peak_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        self.stages.append({"name": name, "wall_s": round(wall, 3), "max_rss_mb": round(peak_mb, 1),
                            "pid": os.getpid()})


# Most values one --sweep or --grid range, or one grid's cells, may expand to.
_MAX_RANGE_VALUES = 10_000


def _parse_range(spec: str, flag: str) -> tuple[str, list[float]]:
    """Parse NAME=START:STOP[:STEP] into (name, inclusive values)."""
    try:
        name, _, rng = spec.partition("=")
        parts = rng.split(":")
        if len(parts) == 2:
            start, stop = float(parts[0]), float(parts[1])
            step = (stop - start) / 12 if stop > start else 1.0
        elif len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
        else:
            raise ValueError("expected START:STOP[:STEP]")
    except ValueError as e:
        raise InputError(f"bad {flag} spec {spec!r}: {e}") from e
    name = name.strip().replace("-", "_")
    if name == "lam":
        name = "lambda"
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise InputError(f"bad {flag} range in {spec!r}: need finite START <= STOP and STEP > 0")
    steps = (stop - start) / step  # may overflow to inf; checked before any list is built
    if steps >= _MAX_RANGE_VALUES:
        raise InputError(f"{flag} range {spec!r} has more than {_MAX_RANGE_VALUES} values")
    count = int(round(steps)) + 1
    values = [round(start + i * step, 12) for i in range(count)]
    if values and values[-1] > stop + 1e-9:
        values.pop()
    return name, values


def write_trajectory_csv(traj: meanfield.Trajectory, path) -> None:
    """Per-day compartment fractions: day, S_O, I_O, R_O, S_M, I_M, R_M."""
    columns = [np.arange(len(traj.states)), *traj.states.T]
    write_columns(path, ["day", *meanfield.COMPARTMENTS], columns)


def _write_summary_csv(rows: list[tuple[str, float, meanfield.TrajectorySummary]], path) -> None:
    names = [f.name for f in fields(meanfield.TrajectorySummary)]
    param, value, summaries = zip(*rows)
    columns = [np.array(param), np.array(value, dtype=float),
               *(np.array([getattr(s, n) for s in summaries], dtype=float) for n in names)]
    write_columns(path, ["param", "value", *names], columns)


def _check_output_names(values, flag: str) -> None:
    """Outputs are named after f"{value:g}"; values that print alike would share a name."""
    by_name: dict[str, list] = {}
    for v in values:
        by_name.setdefault(f"{v:g}", []).append(v)
    for name, same in by_name.items():
        if len(same) > 1:
            raise InputError(
                f"{flag}: values {', '.join(map(str, same))} all print as {name}, "
                "so their outputs would overwrite each other"
            )


def _print_summary_table(rows: list[tuple[str, float, meanfield.TrajectorySummary]]) -> None:
    print(f"{'param':<10}{'value':>10}{'peak_day':>10}{'peak_inf':>12}{'total_inf':>12}")
    for name, value, s in rows:
        print(
            f"{name:<10}{value:>10.4g}{s.peak_day:>10d}"
            f"{s.peak_infected:>12.6f}{s.total_infected:>12.6f}"
        )


def cmd_meanfield(args) -> int:
    params = meanfield.MeanFieldParams(
        **{f.name: getattr(args, f.name) for f in fields(meanfield.MeanFieldParams)}
    )
    recorded = {
        "beta_o": args.beta_o, "gamma": args.gamma, "lambda": args.lam,
        "mu": args.mu, "alpha": args.alpha, "epsilon": args.epsilon,
        "horizon": args.horizon, "dt": args.dt, "method": args.method,
        "sweep": args.sweep, "grid": args.grid,
    }
    if args.grid and not args.sweep:
        raise InputError("--grid requires --sweep (the inner axis)")
    with _Run(args.out, "meanfield", recorded) as run:
        if args.grid:
            sweep_name, sweep_values = _parse_range(args.sweep, "--sweep")
            grid_name, grid_values = _parse_range(args.grid, "--grid")
            if {sweep_name, grid_name} != {"alpha", "beta_o"}:
                raise InputError("grid mode sweeps alpha against beta-o")
            alphas = sweep_values if sweep_name == "alpha" else grid_values
            beta_os = grid_values if sweep_name == "alpha" else sweep_values
            cells = len(alphas) * len(beta_os)
            if cells > _MAX_RANGE_VALUES:
                raise InputError(f"--sweep x --grid has {cells} cells, more than {_MAX_RANGE_VALUES}")
            _progress(f"integrating {cells} grid cells")
            with run.stage("integrate"):
                grid = meanfield.sweep_grid(params, alphas, beta_os, args.horizon, args.dt,
                                            args.method)
            with run.stage("write_outputs"):
                grid_path = run.output("grid.csv")
                b_cells, a_cells = np.meshgrid(grid.beta_os, grid.alphas, indexing="ij")
                write_columns(
                    grid_path,
                    ["beta_o", "alpha", "ordinary", "misinformed", "overall"],
                    [m.ravel() for m in (
                        b_cells, a_cells, grid.ordinary, grid.misinformed, grid.overall)],
                )
                write_columns(
                    run.output("grid_argmax.csv"),
                    ["beta_o", "argmax_alpha", "max_overall"],
                    [grid.beta_os, grid.argmax_alpha, grid.overall.max(axis=1)],
                )
                for name in ("ordinary", "misinformed", "overall") if args.svg else ():
                    marks = list(zip(grid.argmax_alpha, grid.beta_os)) if name == "overall" else []
                    svgplot.heatmap(
                        getattr(grid, name).tolist(), x_ticks=list(grid.alphas),
                        y_ticks=list(grid.beta_os), path=run.output(f"grid_{name}.svg"),
                        title=f"Total infected ({name})", xlabel="alpha", ylabel="beta_o",
                        marks=marks,
                    )
            print(f"grid: {len(grid.beta_os)} x {len(grid.alphas)} cells -> {grid_path}")
        elif args.sweep:
            name, values = _parse_range(args.sweep, "--sweep")
            _check_output_names(values, "--sweep")
            _progress(f"sweeping {name} over {len(values)} values")
            with run.stage("integrate"):
                rows = meanfield.sweep(params, name, values, args.horizon, args.dt, args.method)
            table = [(name, v, meanfield.summarize(t)) for v, t in rows]
            with run.stage("write_outputs"):
                for v, traj in rows:
                    write_trajectory_csv(traj, run.output(f"trajectories/traj_{name}_{v:g}.csv"))
                _write_summary_csv(table, run.output("sweep_summary.csv"))
                if args.svg:
                    svgplot.line_chart(
                        [(f"{name}={v:g}", list(t.days), list(t.infected)) for v, t in rows],
                        run.output("sweep_infected.svg"),
                        title="Infected fraction per day", xlabel="day", ylabel="I",
                    )
            _print_summary_table(table)
        else:
            with run.stage("integrate"):
                traj = meanfield.integrate(params, args.horizon, args.dt, args.method)
            with run.stage("write_outputs"):
                write_trajectory_csv(traj, run.output("trajectory.csv"))
                if args.svg:
                    svgplot.line_chart(
                        [(name, list(traj.days), list(traj.states[:, i]))
                         for i, name in enumerate(meanfield.COMPARTMENTS)],
                        run.output("trajectory.svg"),
                        title="Compartment fractions", xlabel="day", ylabel="fraction",
                    )
            _print_summary_table([("-", 0.0, meanfield.summarize(traj))])
    return 0


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved parameters of one pipeline run, as manifest.json records them.

    With a ``scenario_dir`` the scenario files are loaded from it; without
    one the scenario is generated from ``scenario_config``, ``counties`` and
    ``seed``.
    """

    scenario_dir: str | None
    scenario_config: str | None
    counties: int | None
    phi: int
    mode: str
    sample: float
    k_bar: float
    p_o: float
    p_m: float
    gamma: float
    initial_infected: int
    steps: int
    reps: int
    regen_network: bool
    seed: int

    def __post_init__(self):  # the ABM parameters are checked by `abm.AbmConfig`
        infonet.check_spread(self.phi, self.mode)
        contactnet.check_sample_fraction(self.sample)
        contactnet.check_k_bar(self.k_bar)


# JSON values each PipelineConfig annotation accepts ("X | None" also takes null).
_MANIFEST_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _manifest_parameters(path) -> dict:
    """The pipeline parameters recorded in a pipeline or sweep manifest."""
    try:
        with open(path) as f:
            recorded = json.load(f)
    except ValueError as e:  # not JSON, or not text at all
        raise InputError(f"{path} is not a JSON manifest: {e}") from e
    if not isinstance(recorded, dict) or recorded.get("subcommand") not in ("pipeline", "sweep"):
        raise InputError(f"{path} is not a pipeline manifest")
    params = recorded.get("parameters")
    if not isinstance(params, dict):
        raise InputError(f"{path} records no parameters")
    known = {f.name: f.type for f in fields(PipelineConfig)}
    unknown = sorted(params.keys() - known.keys() - {"vary", "values", "jobs"})  # sweep-only keys
    if unknown:
        raise InputError(f"{path} records unknown parameters: {', '.join(unknown)}")
    values = {k: v for k, v in params.items() if k in known}
    for key, value in values.items():
        kind, _, optional = known[key].partition(" | ")
        if value is None and optional:
            continue
        # bool is a subclass of int, so it is told apart explicitly.
        is_bool = isinstance(value, bool)
        if not isinstance(value, _MANIFEST_KINDS[kind]) or is_bool != (kind == "bool"):
            raise InputError(
                f"{path}: parameter {key} is {json.dumps(value)}, expected {known[key]}"
            )
        if key == "seed" and value < 0:
            raise InputError(f"{path}: parameter seed is {value}, expected a non-negative int")
        if kind == "str" and "\0" in value:  # no file name holds one; open() would raise ValueError
            raise InputError(f"{path}: parameter {key} contains a NUL character")
    return values


def _pipeline_config(args, row_fields=({},)) -> tuple[dict, list[PipelineConfig],
                                                      abm.AbmConfig, np.ndarray]:
    """The flags, overridden by --from-manifest when given; one PipelineConfig per row,
    the flags with that row's `row_fields` replaced; the rows' ABM parameters (no row
    replaces one) and their ``counts[row, k, j, rep, day]``, all checked or shaped here
    so that a bad parameter fails before any stage runs."""
    values = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    if args.from_manifest:
        values.update(_manifest_parameters(args.from_manifest))
    elif not args.synthetic and not args.scenario_dir:
        raise InputError("choose a scenario source: --synthetic or --scenario-dir")
    cfgs = [PipelineConfig(**{**values, **row}) for row in row_fields]
    cfg = cfgs[0]
    abm_cfg = abm.AbmConfig(p_o=cfg.p_o, p_m=cfg.p_m, gamma=cfg.gamma,
                            initial_infected=cfg.initial_infected, steps=cfg.steps,
                            repetitions=cfg.reps)
    counts = np.empty((len(cfgs), 2, 2, cfg.reps, cfg.steps + 1), dtype=np.int64)
    return values, cfgs, abm_cfg, counts


_SCENARIO_FILES = ("counties.csv", "mobility.csv", "infonet_nodes.csv", "infonet_edges.csv")


def _scenario(scenario_dir, scenario_config, counties, seed, run: _Run):
    """The scenario of a run: loaded from the four files in `scenario_dir`,
    recorded as inputs, or generated (with the config file recorded as an
    input) and saved as outputs of `run`. Returns (scenario, infonet).
    """
    if scenario_dir:
        paths = [Path(scenario_dir) / name for name in _SCENARIO_FILES]
        run.inputs += paths
        with run.stage("load_scenario"):
            return scenario.load_scenario(*paths[:2]), infonet.load_infonet(*paths[2:])
    with run.stage("generate_scenario"):
        cfg = scenario.ScenarioConfig()
        if scenario_config:
            run.inputs.append(scenario_config)
            cfg = scenario.parse_scenario_config(scenario_config)
        cfg = replace(cfg, seed=seed)
        if counties is not None:
            cfg = replace(cfg, county_count=counties)
        sc, net = scenario.generate_scenario(cfg)
    with run.stage("save_scenario"):
        paths = [run.output(name) for name in _SCENARIO_FILES]
        scenario.save_scenario(sc, *paths[:2])
        infonet.save_infonet(net, *paths[2:])
    return sc, net


def _run_pipeline(run: _Run, rows: list[tuple[str, PipelineConfig]], abm_cfg: abm.AbmConfig,
                  counts: np.ndarray, summary_json=False, svg=False) -> list[dict]:
    """Scenario -> spread -> sample -> build -> simulate, with `abm_cfg`, into `counts` (see
    `_pipeline_config`), for rows ``(name, config)`` that share the first row's scenario, seed
    and repetitions; rows with one sample fraction and k_bar form a group, which shares one
    sample and each network, recorded under its first row's name. `run` records a sweep row's
    stages as ``<name>/<stage>``, and the row writes its files under ``rows/<name>/``; a
    pipeline's one row is named "". The work items, a command's one parallel layer, are
    ``(group, rep, rows)``: one per repetition and row, or under --regen-network one per
    repetition and group, whose build serves all. A network that more than one item reads is
    built before any worker forks, any other inside its item. Each row saves contactnet.bin
    and result.csv (and summary.json and epidemic.svg, if asked); returns the rows' summaries."""
    cfg = rows[0][1]  # its scenario, seed, --reps and --regen-network are every row's
    sc, net = _scenario(cfg.scenario_dir, cfg.scenario_config, cfg.counties, cfg.seed, run)
    net = infonet.seed_edges(net)  # all the spread reads; the full edge list is freed
    prefixes = [f"{name}/" if name else "" for name, _ in rows]
    folders = [f"rows/{prefix}" if prefix else "" for prefix in prefixes]
    labels, keyed = [], {}  # keyed: each group's rows by their (sample, k_bar)
    for row, (prefix, (_, row_cfg)) in enumerate(zip(prefixes, rows)):
        with run.stage(prefix + "spread_misinformation"):
            labels.append(infonet.spread_misinformation(net, row_cfg.phi, row_cfg.mode))
        keyed.setdefault((row_cfg.sample, row_cfg.k_bar), []).append(row)
    net_seed, edges, groups = scenario.derive_seed(cfg.seed, _STREAM_NET), [0] * len(rows), []
    for (sample, k_bar), at in keyed.items():
        first, shared = prefixes[at[0]], None
        with run.stage(first + "sample_population"):
            nodes = contactnet.sample_population(
                sc, net, sample, scenario.derive_seed(cfg.seed, _STREAM_SAMPLE))
        with run.stage(first + "expected_edges"):
            e_matrix = contactnet.expected_edges(sc.mobility, k_bar, len(nodes.source))
            n_edges = contactnet.placed_edges(k_bar, len(nodes.source))  # what every build places
        build = partial(contactnet.build_contact_network, nodes, e_matrix, k_bar)
        if not cfg.regen_network and len(at) * cfg.reps > 1:  # more than one item reads it
            with run.stage(first + "build_contact_network"):
                shared = build(net_seed)
                shared.adjacency  # built once, before any worker forks
        for row in at:
            labels[row], edges[row] = labels[row][nodes.source], n_edges
        groups.append((at, build, shared, first + "build_contact_network"))
    workers = None if max(edges) >= _FORK_MIN_EDGES else 1  # repetitions fan out to forked workers
    abm_seed = scenario.derive_seed(cfg.seed, _STREAM_ABM)
    with run.stage(prefixes[0] + "abm"):
        paths = [run.output(folder + "contactnet.bin") for folder in folders]

        def repetition(item):
            """The counts of repetition `rep` on each row of `at`, and the stages it recorded."""
            g, rep, at = item
            _, build, graph, name = groups[g]
            record, seed, key = _Run(run.out), net_seed, scenario.derive_seed(abm_seed, rep)
            if cfg.regen_network:  # one network per repetition
                name = f"{name}[rep={rep}]"
                seed = scenario.derive_seed(cfg.seed, _STREAM_NET_REP + rep)
                key = scenario.derive_seed(scenario.derive_seed(cfg.seed, _STREAM_ABM_REP + rep), 0)
            if graph is None:  # this item alone reads it
                with record.stage(name):
                    graph = build(seed)
            cnets = [graph.relabel(labels[row]) for row in at]
            if rep == cfg.reps - 1:  # the last repetition's networks are the rows' artifacts
                for cnet, row in zip(cnets, at):
                    contactnet.save_contact_network(cnet, paths[row])
            return [abm.rep_counts(cnet, abm_cfg, key) for cnet in cnets], record.stages

        items = [(g, rep, at) for g, (group, *_) in enumerate(groups) for rep in range(cfg.reps)
                 for at in ([group] if cfg.regen_network else [[row] for row in group])]
        for (_, rep, at), (rep_counts, stages) in zip(items, _fork_map(repetition, items, workers)):
            counts[at, :, :, rep] = rep_counts
            run.stages += stages
    summaries = []
    for prefix, folder, misinformed, n_edges, row_counts in zip(prefixes, folders, labels, edges,
                                                                counts):
        n, result = len(misinformed), abm.result(row_counts)
        misinformed_nodes = int(np.count_nonzero(misinformed))
        summary = {
            "n_nodes": n,
            "n_edges": n_edges,
            "mean_degree": round(2.0 * n_edges / n, 6),
            "misinformed_nodes": misinformed_nodes,
            "misinformed_fraction": round(misinformed_nodes / n, 9),
            "peak_day_mean": result.peak_day_mean,
            "peak_height_mean": result.peak_height_mean,
            "cumulative_final_mean": result.cumulative_final_mean,
            "cumulative_final_std": result.cumulative_final_std,
        }
        summaries.append(summary)
        with run.stage(prefix + "write_outputs"):
            abm.write_result_csv(result, run.output(folder + "result.csv"))
            if summary_json:
                text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
                run.output(folder + "summary.json").write_text(text)
            if svg:
                days = list(result.days)
                svgplot.line_chart(
                    [("mean prevalent I", days, list(result.mean("prev_I"))),
                     ("mean cumulative", days, list(result.mean("cum")))],
                    run.output(folder + "epidemic.svg"), title="Epidemic course", xlabel="day",
                    ylabel="individuals",
                )
    return summaries


def cmd_pipeline(args) -> int:
    params, [cfg], abm_cfg, counts = _pipeline_config(args)
    with _Run(args.out, "pipeline", params, cfg.seed) as run:
        [summary] = _run_pipeline(run, [("", cfg)], abm_cfg, counts, summary_json=True,
                                  svg=args.svg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _parse_values(text: str, vary: str) -> list:
    """Comma-separated --values: integers for phi, numbers otherwise."""
    kind = int if vary == "phi" else float
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as e:
        raise InputError(f"bad --values {text!r}: {e}") from e


def cmd_sweep(args) -> int:
    values = _parse_values(args.values, args.vary)
    _check_output_names(values, "--values")
    field = args.vary.replace("-", "_")
    # Only the values that run are checked: the varied flag itself is recorded, not run.
    params, cfgs, abm_cfg, counts = _pipeline_config(args, [{field: v} for v in values])
    rows = [(f"{field}_{v:g}", row_cfg) for v, row_cfg in zip(values, cfgs)]
    with _Run(args.out, "sweep", {**params, "vary": args.vary, "values": values},
              cfgs[0].seed) as run:
        summaries = _run_pipeline(run, rows, abm_cfg, counts)

        # Largest phi (the most-resilient scenario) anchors relative increases;
        # for other axes the last value is the baseline.
        cum = np.array([s["cumulative_final_mean"] for s in summaries])
        base = cum[int(np.argmax(values)) if args.vary == "phi" else -1]

        columns = [
            "n_nodes", "misinformed_nodes", "misinformed_fraction", "peak_day_mean",
            "peak_height_mean", "cumulative_final_mean", "cumulative_final_std",
        ]
        with run.stage("write_outputs"):
            write_columns(
                run.output("sweep_summary.csv"),
                ["vary", "value", *columns, "relative_increase_vs_baseline"],
                [np.array([args.vary] * len(values)), np.array(values, dtype=float),
                 *(np.array([s[c] for s in summaries]) for c in columns),
                 (cum - base) / base if base > 0 else np.zeros(len(values))],
            )
            if args.svg:
                svgplot.line_chart(
                    [("mean cumulative infections", [float(v) for v in values],
                      [s["cumulative_final_mean"] for s in summaries])],
                    run.output("sweep_cumulative.svg"),
                    title=f"Cumulative infections vs {args.vary}", xlabel=args.vary,
                    ylabel="individuals",
                )
    print(f"{'value':>10}{'misinformed':>14}{'peak_day':>10}{'cum_mean':>14}")
    for v, s in zip(values, summaries):
        print(
            f"{v:>10g}{s['misinformed_nodes']:>14d}"
            f"{s['peak_day_mean']:>10.1f}{s['cumulative_final_mean']:>14.1f}"
        )
    return 0


def cmd_gen_scenario(args) -> int:
    with _Run(args.out, "gen-scenario", seed=args.seed) as run:
        sc, net = _scenario(None, args.scenario_config, args.counties, args.seed, run)
        run.params = {"counties": sc.n_counties, "seed": args.seed,
                      "scenario_config": args.scenario_config}
    print(f"scenario: {sc.n_counties} counties, {int(sc.voters.sum())} voters, "
          f"{net.n_nodes} accounts, {net.n_edges} retweet edges -> {run.out}")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise InputError(f"no such artifact: {path}")
    with open(path, "rb") as f:
        head = f.read(len(contactnet.MAGIC))
    if head[:8] == contactnet.MAGIC[:8]:  # any version: an older one is named, not parsed
        net = contactnet.load_contact_network(path)
        by_county = np.bincount(net.county_index, minlength=len(net.county_ids))
        print(f"contact network: {net.n_nodes} nodes, {net.n_edges} edges")
        print(f"mean degree: {net.mean_degree:.3f} (target {net.k_bar})")
        print(f"misinformed: {net.misinformed_count} ({net.misinformed_count / net.n_nodes:.2%})")
        print(f"counties: {len(net.county_ids)} (largest block {int(by_county.max())})")
        print(f"build seed: {net.seed}")
        return 0
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        raise InputError(f"unrecognized artifact format: {path}") from None
    first = text.splitlines()[0] if text else ""
    if first.startswith("fips,"):
        sc = scenario.load_scenario(path, path.parent / "mobility.csv")
        print(f"scenario: {sc.n_counties} counties, {int(sc.voters.sum())} voters, "
              f"{int(sc.twitter_users.sum())} twitter users")
        return 0
    if first.startswith("day,"):
        rows = text.count("\n") - 1
        print(f"epidemic result: {rows} days\n{first}")
        return 0
    if path.suffix == ".json":
        print(text.rstrip())
        return 0
    raise InputError(f"unrecognized artifact format: {path}")


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--synthetic", action="store_true", help="generate a synthetic scenario")
    src.add_argument("--scenario-dir", help="directory with counties/mobility/infonet CSVs")
    p.add_argument("--scenario-config", help="key=value scenario config file (synthetic mode)")
    p.add_argument("--counties", type=int, default=None, help="override synthetic county count")
    p.add_argument("--phi", type=int, default=1, help="linear threshold (misinformed friends)")
    p.add_argument("--mode", choices=[infonet.DISTINCT_FRIENDS, infonet.RETWEET_WEIGHTED],
                   default=infonet.DISTINCT_FRIENDS, help="exposure counting mode")
    p.add_argument("--sample", type=float, default=0.01, help="per-county sampling fraction")
    p.add_argument("--k-bar", dest="k_bar", type=float, default=25.0, help="target mean degree")
    p.add_argument("--p-o", dest="p_o", type=float, default=abm.AbmConfig.p_o)
    p.add_argument("--p-m", dest="p_m", type=float, default=abm.AbmConfig.p_m)
    p.add_argument("--gamma", type=float, default=abm.AbmConfig.gamma,
                   help="daily recovery probability")
    p.add_argument("--initial-infected", type=int, default=abm.AbmConfig.initial_infected)
    p.add_argument("--steps", type=int, default=abm.AbmConfig.steps)
    p.add_argument("--reps", type=int, default=abm.AbmConfig.repetitions)
    p.add_argument("--regen-network", action="store_true",
                   help="rebuild the contact network for every repetition")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--svg", action="store_true", help="emit SVG plots")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--from-manifest", help="rerun with the parameters recorded in a manifest.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smirsim",
        description="SMIR epidemic simulator: mean-field dynamics and "
        "agent-based runs on misinformation-seeded contact networks",
    )
    parser.add_argument("--version", action="version", version=f"smirsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meanfield", help="integrate the mean-field system")
    p.add_argument("--beta-o", dest="beta_o", type=float, default=0.3)
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--lambda", dest="lam", type=float, default=meanfield.MeanFieldParams.lam)
    p.add_argument("--mu", type=float, default=meanfield.MeanFieldParams.mu)
    p.add_argument("--alpha", type=float, default=meanfield.MeanFieldParams.alpha)
    p.add_argument("--epsilon", type=float, default=meanfield.MeanFieldParams.epsilon)
    p.add_argument("--horizon", type=int, default=meanfield.DEFAULT_HORIZON)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--method", choices=["euler", "rk4"], default=meanfield.DEFAULT_METHOD)
    p.add_argument("--sweep", help="NAME=START:STOP[:STEP] over lambda/alpha/beta-o/tau")
    p.add_argument("--grid", help="outer axis for the alpha x beta-o grid")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_meanfield)

    p = sub.add_parser("pipeline", help="full misinformation -> epidemic pipeline")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="pipeline over a list of values")
    _add_pipeline_args(p)
    p.add_argument("--vary", choices=["phi", "k-bar", "sample"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-scenario", help="write synthetic scenario files")
    p.add_argument("--scenario-config", help="key=value config file")
    p.add_argument("--counties", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("inspect", help="print artifact statistics")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (InputError, OSError, NumericError, MemoryError, ValueError) as e:
        if isinstance(e, ValueError) and not str(e).startswith(_TOO_BIG):
            raise  # a bug, not an exhausted memory
        at = f"stage {e.stage}: " if hasattr(e, "stage") else ""
        if isinstance(e, (InputError, OSError)):
            print(f"error: {at}{e}", file=sys.stderr)
            return 2
        if not isinstance(e, NumericError):
            e = f"out of memory ({e})" if str(e) else "out of memory"
        print(f"numeric failure: {at}{e}", file=sys.stderr)
        return 3
    except KeyboardInterrupt as e:  # with no manifest, and the status a shell reports for it
        _progress("interrupted" + (f": stage {e.stage}" if hasattr(e, "stage") else ""))
        return 130


if __name__ == "__main__":
    sys.exit(main())
