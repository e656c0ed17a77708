"""Discrete-time agent-based SMIR dynamics on a contact network.

Each day, every susceptible node with m >= 1 infected neighbors becomes
infected with probability 1 - (1 - p)^m, where p is chosen by the
*susceptible's own* label (p_m for misinformed, p_o for ordinary), and every
infected node recovers with probability gamma. Updates are synchronous: both
decisions read only the previous day's state, so a node cannot infect anyone
and recover within the same day.

Randomness is counter-based: each (repetition, day) owns a Philox stream
keyed by (repetition key, day), and the d-th value of that stream belongs to
node d. Outcomes are therefore independent of evaluation order and thread
count, and any single day of any repetition can be replayed in isolation.

A day costs in proportion to its infected nodes and their neighbors, not to
the edge count: the infected nodes scatter infection pressure through the
network's ``adjacency`` index, built once per network (~4 bytes per edge plus
16 bytes per node), and ``1 - (1 - p)^m`` is evaluated only at the
susceptibles they touch. Only the day's two uniform draws and a few flat
array passes touch every node. Once no node is infected the state is
absorbing and the remaining days are copied, not stepped. State is one byte
per node with (current, next) double buffers, which keeps the 20M-node
configuration within workstation memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .contactnet import ContactNetwork
from .errors import InsufficientMisinformedError, ValidationError
from .scenario import derive_seed
from .tables import write_csv

S, I, R = 0, 1, 2

# Philox stream ids within one repetition: 0 seeds the infection, 1 + day
# drives that day's transition draws.
_STREAM_SEEDING = 0


@dataclass(frozen=True)
class AbmConfig:
    """Transmission, recovery, and experiment-shape parameters.

    Defaults pin the worst-case contrast: misinformed susceptibles transmit
    on every contact (p_m = 1) while ordinary ones almost never do
    (p_o = 0.01); recovery is geometric with mean 5 days.
    """

    p_o: float = 0.01
    p_m: float = 1.0
    gamma: float = 0.2
    initial_infected: int = 100
    steps: int = 100
    repetitions: int = 10

    def __post_init__(self):
        for name in ("p_o", "p_m"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.p_m < self.p_o:
            raise ValidationError(
                f"p_m ({self.p_m}) must be >= p_o ({self.p_o})"
            )
        if not (0.0 <= self.gamma <= 1.0):
            raise ValidationError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.initial_infected < 1:
            raise ValidationError("initial_infected must be >= 1")
        if self.steps < 1 or self.repetitions < 1:
            raise ValidationError("steps and repetitions must be >= 1")


@dataclass(frozen=True)
class AbmState:
    """Compartment byte per node (S=0, I=1, R=2) at the given day."""

    compartment: np.ndarray
    day: int

    def counts(self) -> tuple[int, int, int]:
        c = np.bincount(self.compartment, minlength=3)
        return int(c[S]), int(c[I]), int(c[R])


def _stream(rep_key: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[rep_key, stream_id]))


def day_stream(rep_key: int, day: int) -> np.random.Generator:
    """The Philox stream that owns day `day` of one repetition."""
    return _stream(rep_key, 1 + day)


def seed_infection(
    net: ContactNetwork, cfg: AbmConfig, rng: np.random.Generator
) -> AbmState:
    """Infect exactly cfg.initial_infected uniformly chosen misinformed nodes."""
    candidates = np.flatnonzero(net.misinformed)
    if len(candidates) < cfg.initial_infected:
        raise InsufficientMisinformedError(len(candidates), cfg.initial_infected)
    chosen = rng.choice(candidates, size=cfg.initial_infected, replace=False)
    compartment = np.zeros(net.n_nodes, dtype=np.uint8)
    compartment[chosen] = I
    return AbmState(compartment=compartment, day=0)


def _neighbors(ptr: np.ndarray, nbr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows ``nbr[ptr[r]:ptr[r + 1]]`` for each r in rows."""
    start = ptr[rows]
    count = ptr[rows + 1] - start
    # Output slot k of row j reads nbr[start[j] + k - first[j]], where
    # first[j] is row j's first output slot.
    shift = start - (np.cumsum(count) - count)
    return nbr[np.repeat(shift, count) + np.arange(int(count.sum()))]


def step(
    state: AbmState, net: ContactNetwork, cfg: AbmConfig, rng: np.random.Generator
) -> AbmState:
    """Advance one day synchronously.

    Draws one uniform per node for infection and one per node for recovery
    from ``rng``, in node order, so a counter-based generator keyed to the
    day gives per-(day, node) reproducibility. Infection pressure flows only
    from the day's infected nodes, through ``net.adjacency``.
    """
    comp = state.compartment
    n = len(comp)
    inf = np.flatnonzero(comp == I)
    exposed = np.concatenate([_neighbors(ptr, nbr, inf) for ptr, nbr in net.adjacency])
    # m[j] = infected neighbors of susceptible j; candidates are those with m >= 1.
    m = np.bincount(exposed[comp[exposed] == S], minlength=n)
    cand = np.flatnonzero(m)
    u_inf = rng.random(n)
    u_rec = rng.random(n)
    p = np.where(net.misinformed[cand], cfg.p_m, cfg.p_o)
    p_infect = 1.0 - np.power(1.0 - p, m[cand])
    nxt = comp.copy()
    nxt[cand[u_inf[cand] < p_infect]] = I
    nxt[inf[u_rec[inf] < cfg.gamma]] = R
    return AbmState(compartment=nxt, day=state.day + 1)


#: Measure names in CSV column order; *_ord / *_mis restrict to one label.
MEASURES = (
    "new_inf",
    "prev_I",
    "cum",
    "new_inf_ord",
    "prev_I_ord",
    "cum_ord",
    "new_inf_mis",
    "prev_I_mis",
    "cum_mis",
)

# Measures that an absorbing state holds constant; new_inf* stay zero.
_CARRIED = tuple(name for name in MEASURES if not name.startswith("new_inf"))


@dataclass(frozen=True)
class EpidemicResult:
    """Per-day counts aggregated over repetitions.

    ``per_rep[name]`` has shape (repetitions, steps + 1); day 0 reflects the
    seeded state. ``mean``/``std`` are taken across repetitions (population
    std, so one repetition gives zeros). Peak statistics are per-repetition
    peaks of overall prevalence (first day on ties), then aggregated.
    """

    n_nodes: int
    misinformed_nodes: int
    config: AbmConfig
    master_seed: int
    days: np.ndarray
    per_rep: dict[str, np.ndarray]

    def mean(self, measure: str) -> np.ndarray:
        return self.per_rep[measure].mean(axis=0)

    def std(self, measure: str) -> np.ndarray:
        return self.per_rep[measure].std(axis=0)

    @property
    def peak_day(self) -> np.ndarray:
        return self.per_rep["prev_I"].argmax(axis=1)

    @property
    def peak_height(self) -> np.ndarray:
        return self.per_rep["prev_I"].max(axis=1)

    @property
    def peak_day_mean(self) -> float:
        return float(self.peak_day.mean())

    @property
    def peak_height_mean(self) -> float:
        return float(self.peak_height.mean())

    @property
    def cumulative_final_mean(self) -> float:
        return float(self.per_rep["cum"][:, -1].mean())

    @property
    def cumulative_final_std(self) -> float:
        return float(self.per_rep["cum"][:, -1].std())


def run(net: ContactNetwork, cfg: AbmConfig, master_seed: int) -> EpidemicResult:
    """Run cfg.repetitions independent epidemics and aggregate per day.

    The network is fixed; each repetition reseeds the initial infections with
    its own derived key. Identical inputs give identical results, bit for
    bit.
    """
    n = net.n_nodes
    mis = net.misinformed
    t = cfg.steps + 1
    per_rep = {name: np.zeros((cfg.repetitions, t), dtype=np.int64) for name in MEASURES}

    for rep in range(cfg.repetitions):
        rep_key = derive_seed(master_seed, rep)
        state = seed_infection(net, cfg, _stream(rep_key, _STREAM_SEEDING))
        _record(per_rep, rep, 0, state.compartment, mis)
        for day in range(1, t):
            if per_rep["prev_I"][rep, day - 1] == 0:
                # Absorbing: no one can be infected or recover again. Each day
                # owns its own stream, so skipping draws changes nothing later.
                for name in _CARRIED:
                    per_rep[name][rep, day:] = per_rep[name][rep, day - 1]
                break
            state = step(state, net, cfg, day_stream(rep_key, day - 1))
            _record(per_rep, rep, day, state.compartment, mis)

    return EpidemicResult(
        n_nodes=n,
        misinformed_nodes=net.misinformed_count,
        config=cfg,
        master_seed=int(master_seed),
        days=np.arange(t),
        per_rep=per_rep,
    )


def _record(per_rep, rep, day, comp, mis):
    """Fill one day's measures from four counts over the compartment bytes.

    A node leaves S only by infection, so the ever-infected nodes are the
    non-S ones and a day's new infections are the growth of their count.
    """
    infected = comp == I
    ever = comp != S
    prev, cum = np.count_nonzero(infected), np.count_nonzero(ever)
    prev_mis, cum_mis = np.count_nonzero(infected & mis), np.count_nonzero(ever & mis)
    for suffix, prev_k, cum_k in (
        ("", prev, cum),
        ("_ord", prev - prev_mis, cum - cum_mis),
        ("_mis", prev_mis, cum_mis),
    ):
        per_rep["prev_I" + suffix][rep, day] = prev_k
        per_rep["cum" + suffix][rep, day] = cum_k
        per_rep["new_inf" + suffix][rep, day] = cum_k - (
            per_rep["cum" + suffix][rep, day - 1] if day else 0
        )


def merge_results(parts: list[EpidemicResult]) -> EpidemicResult:
    """Stack single-network results into one multi-repetition result.

    Used when every repetition rebuilds its own contact network; the parts
    must agree on node counts, measures, and day range.
    """
    first = parts[0]
    for p in parts[1:]:
        if p.n_nodes != first.n_nodes or len(p.days) != len(first.days):
            raise ValidationError("cannot merge results with different shapes")
    per_rep = {
        name: np.concatenate([p.per_rep[name] for p in parts]) for name in MEASURES
    }
    total_reps = sum(p.config.repetitions for p in parts)
    return EpidemicResult(
        n_nodes=first.n_nodes,
        misinformed_nodes=first.misinformed_nodes,
        config=replace(first.config, repetitions=total_reps),
        master_seed=first.master_seed,
        days=first.days,
        per_rep=per_rep,
    )


def write_result_csv(result: EpidemicResult, path) -> None:
    """Write the per-day mean/std table: day, then mean_/std_ per measure."""
    header, columns = ["day"], [result.days.tolist()]
    for name in MEASURES:
        header += [f"mean_{name}", f"std_{name}"]
        columns += [result.mean(name).tolist(), result.std(name).tolist()]
    write_csv(path, header, zip(*columns))
