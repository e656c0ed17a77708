"""Discrete-time agent-based SMIR dynamics on a contact network.

Each day, every susceptible node with m >= 1 infected neighbors becomes
infected with probability 1 - (1 - p)^m, where p is chosen by the
*susceptible's own* label (p_m for misinformed, p_o for ordinary), and every
infected node recovers with probability gamma. Updates are synchronous: both
decisions read only the previous day's state, so a node cannot infect anyone
and recover within the same day.

Randomness is counter-based. The infection is seeded from the Philox
stream ``[repetition key, 0]``; every later decision reads one value of a
keyed hash, `uniform`, at (day key, node, purpose), where the day key folds
the repetition key and the day (`day_key`). A value depends on nothing else,
so outcomes are independent of evaluation order and thread count, any (day,
node) of any repetition can be replayed in isolation, and a day evaluates the
hash only where a decision is made: at its candidates and its infected nodes.

A day costs in proportion to its changes, not to the node or edge count.
The state carries the infected nodes and each node's count of infected
neighbors (8 bytes per node); a day adds the neighbors of its new infections
to that count and subtracts those of its recoveries, gathered through the
network's ``adjacency`` index, built once per network (~4 bytes per edge plus
16 bytes per node), and ``1 - (1 - p)^m`` is evaluated only at the
susceptibles with m >= 1. A day records four counts of the same changes,
from which the nine daily measures are derived once per run. What still
touches every node is a few flat passes: finding the candidates, copying
the compartment bytes and adding the count updates. Once no node is infected
the state is absorbing and the remaining days are not stepped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .contactnet import ContactNetwork
from .errors import ValidationError
from .scenario import derive_seed
from .tables import write_columns

S, I, R = 0, 1, 2

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): its Weyl increment and the
# two multipliers of its output finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

#: `uniform` purposes: a susceptible's infection and an infected node's recovery.
INFECT, RECOVER = 0, 1


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
    """Compartment byte per node (S=0, I=1, R=2) at the given day, plus what
    the next day needs carried.

    ``infected`` lists the infected nodes, the ``fresh`` ones infected on this
    day last; ``pressure`` counts each node's infected neighbors (int64). A
    state built from a compartment alone gets both when it is first stepped.
    """

    compartment: np.ndarray
    day: int
    infected: np.ndarray | None = None
    pressure: np.ndarray | None = None
    fresh: int = 0

    def counts(self) -> tuple[int, int, int]:
        c = np.bincount(self.compartment, minlength=3)
        return int(c[S]), int(c[I]), int(c[R])

    @property
    def newly_infected(self) -> np.ndarray:
        return self.infected[len(self.infected) - self.fresh:]


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer on one Python int (kept to 64 bits by hand:
    NumPy warns when a uint64 scalar operation wraps)."""
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def seeding_stream(rep_key: int) -> np.random.Generator:
    """The Philox stream that seeds one repetition's infection."""
    return np.random.Generator(np.random.Philox(key=[rep_key, 0]))


def day_key(rep_key: int, day: int) -> int:
    """The 64-bit key of day `day` of the repetition keyed `rep_key`; `run`
    steps into day d with the key of day d."""
    return _mix64((_mix64(rep_key & _MASK) + day * _GAMMA) & _MASK)


def uniform(key: int, nodes: np.ndarray, purpose: int) -> np.ndarray:
    """u(key, node, purpose) in [0, 1) for each node in `nodes`.

    The purpose selects a SplitMix64 sequence, seeded by the finalizer of
    ``key + purpose * GAMMA``; the value of node v is that sequence's output
    number v + 1, the finalizer of ``seed + (v + 1) * GAMMA`` (mod 2^64).
    Its top 53 bits, times 2^-53, give a double in [0, 1 - 2^-53].
    """
    seed = _mix64((key + purpose * _GAMMA) & _MASK)
    x = np.asarray(nodes).astype(np.uint64)
    x += np.uint64(1)
    x *= np.uint64(_GAMMA)
    x += np.uint64(seed)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    x >>= np.uint64(11)
    return x * 2.0**-53


def seed_infection(
    net: ContactNetwork, cfg: AbmConfig, rng: np.random.Generator
) -> AbmState:
    """Infect exactly cfg.initial_infected uniformly chosen misinformed nodes."""
    candidates = np.flatnonzero(net.misinformed)
    if len(candidates) < cfg.initial_infected:
        raise ValidationError(
            f"cannot seed {cfg.initial_infected} infections: "
            f"only {len(candidates)} misinformed nodes"
        )
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


def _pressure_from(net: ContactNetwork, nodes: np.ndarray) -> np.ndarray:
    """Per-node count of neighbors in `nodes` (int64, one slot per node)."""
    touched = [_neighbors(ptr, nbr, nodes) for ptr, nbr in net.adjacency]
    return np.bincount(np.concatenate(touched), minlength=net.n_nodes)


def _with_carried(state: AbmState, net: ContactNetwork) -> AbmState:
    """`state` with its carried fields, derived from the compartment when the
    state was built from one alone (every infected node then counts as fresh)."""
    if state.pressure is not None:
        return state
    infected = np.flatnonzero(state.compartment == I)
    return replace(
        state, infected=infected, pressure=_pressure_from(net, infected), fresh=len(infected)
    )


def step(state: AbmState, net: ContactNetwork, cfg: AbmConfig, key: int) -> AbmState:
    """Advance one day synchronously, reading the uniforms of day key `key`.

    Candidates are the susceptibles with infected neighbors; each reads its
    `INFECT` uniform and each infected node its `RECOVER` uniform. The
    infected-neighbor counts are carried and updated only around the day's
    new infections and recoveries.
    """
    state = _with_carried(state, net)
    comp, inf, m = state.compartment, state.infected, state.pressure
    cand = np.flatnonzero((m > 0) & (comp == S))
    p = np.where(net.misinformed[cand], cfg.p_m, cfg.p_o)
    p_infect = 1.0 - np.power(1.0 - p, m[cand])
    new = cand[uniform(key, cand, INFECT) < p_infect]
    recovers = uniform(key, inf, RECOVER) < cfg.gamma
    gone = inf[recovers]
    nxt = comp.copy()
    nxt[new] = I
    nxt[gone] = R
    pressure = _pressure_from(net, new)
    pressure += m
    pressure -= _pressure_from(net, gone)
    return AbmState(
        compartment=nxt,
        day=state.day + 1,
        infected=np.concatenate([inf[~recovers], new]),
        pressure=pressure,
        fresh=len(new),
    )


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

@dataclass(frozen=True)
class EpidemicResult:
    """Per-day counts aggregated over repetitions.

    ``per_rep[name]`` has shape (repetitions, steps + 1); day 0 reflects the
    seeded state. ``mean``/``std`` are taken across repetitions (population
    std, so one repetition gives zeros). Peak statistics are per-repetition
    peaks of overall prevalence (first day on ties), then aggregated.
    """

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


def _rep_counts(net: ContactNetwork, cfg: AbmConfig, master_seed: int, rep: int) -> np.ndarray:
    """The daily counts of repetition `rep`, laid out as `run` keeps each one's."""
    mis = net.misinformed
    counts = np.zeros((2, 2, cfg.steps + 1), dtype=np.int64)
    rep_key = derive_seed(master_seed, rep)
    state = _with_carried(seed_infection(net, cfg, seeding_stream(rep_key)), net)
    for day in range(cfg.steps + 1):
        if day:
            state = step(state, net, cfg, day_key(rep_key, day))
        for k, nodes in enumerate((state.infected, state.newly_infected)):
            on_mis = np.count_nonzero(mis[nodes])
            counts[k, :, day] = len(nodes) - on_mis, on_mis
        if not len(state.infected):
            # Absorbing: no one can be infected or recover again. Each day
            # has its own key, so skipping days changes nothing later.
            break
    return counts


def run(net: ContactNetwork, cfg: AbmConfig, master_seed: int, map=map) -> EpidemicResult:
    """Run cfg.repetitions independent epidemics and aggregate per day.

    The network is fixed; each repetition reseeds the initial infections with
    its own derived key and depends on nothing else, so `map` (the builtin, or
    any that returns results in order) may run them anywhere. Identical inputs
    give identical results, bit for bit.
    """
    # counts[k, j, rep, day]: (infected, newly infected)[k] x (ordinary, misinformed)[j]
    counts = np.zeros((2, 2, cfg.repetitions, cfg.steps + 1), dtype=np.int64)
    net.adjacency  # built once, before `map` starts any worker that shares it
    for rep, rep_counts in enumerate(map(partial(_rep_counts, net, cfg, master_seed),
                                         range(cfg.repetitions))):
        counts[:, :, rep] = rep_counts
    per_rep = {}
    by_label = {"": counts.sum(axis=1), "_ord": counts[:, 0], "_mis": counts[:, 1]}
    for suffix, (prev, new) in by_label.items():
        per_rep["new_inf" + suffix], per_rep["prev_I" + suffix] = new, prev
        per_rep["cum" + suffix] = new.cumsum(axis=1)
    return EpidemicResult(days=np.arange(cfg.steps + 1), per_rep=per_rep)


def merge_results(parts: list[EpidemicResult]) -> EpidemicResult:
    """Stack single-network results into one multi-repetition result.

    Used when every repetition rebuilds its own contact network; the parts
    must agree on their day range.
    """
    days = parts[0].days
    if any(len(p.days) != len(days) for p in parts):
        raise ValidationError("cannot merge results with different day ranges")
    per_rep = {
        name: np.concatenate([p.per_rep[name] for p in parts]) for name in MEASURES
    }
    return EpidemicResult(days=days, per_rep=per_rep)


def write_result_csv(result: EpidemicResult, path) -> None:
    """Write the per-day mean/std table: day, then mean_/std_ per measure."""
    header, columns = ["day"], [result.days]
    for name in MEASURES:
        header += [f"mean_{name}", f"std_{name}"]
        columns += [result.mean(name), result.std(name)]
    write_columns(path, header, columns)
