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

The state is the compartment array, one uint8 per node (S=0, I=1, R=2). A
repetition updates it and each node's count m of infected neighbors (4 bytes
per node) in place. A day adds one to m at each neighbor
of its new infections and subtracts one at each neighbor of its recoveries,
gathered through the network's ``adjacency`` index (built once per network,
~4 bytes per edge plus 16 bytes per node), and evaluates ``1 - (1 - p)^m``
only at its candidates, which one flat pass over the nodes finds. A day
records four counts, from which the nine daily measures are derived once per
run. `step` is the stand-alone one-day API: it returns the next day's
compartment, deriving m from its input, which it never writes. Once no node
is infected the state is absorbing and the remaining days are not stepped.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for name in ("initial_infected", "steps", "repetitions"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")


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


def seed_infection(net: ContactNetwork, cfg: AbmConfig, rng: np.random.Generator) -> np.ndarray:
    """The day-0 compartment: cfg.initial_infected uniformly chosen misinformed
    nodes are infected, every other node is susceptible."""
    candidates = np.flatnonzero(net.misinformed)
    if len(candidates) < cfg.initial_infected:
        raise ValidationError(
            f"cannot seed {cfg.initial_infected} infections: "
            f"only {len(candidates)} misinformed nodes"
        )
    chosen = rng.choice(candidates, size=cfg.initial_infected, replace=False)
    comp = np.zeros(net.n_nodes, dtype=np.uint8)
    comp[chosen] = I
    return comp


def _neighbors(ptr: np.ndarray, nbr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows ``nbr[ptr[r]:ptr[r + 1]]`` for each r in rows."""
    start = ptr[rows]
    count = ptr[rows + 1] - start
    # Output slot k of row j reads nbr[start[j] + k - first[j]], where
    # first[j] is row j's first output slot.
    shift = start - (np.cumsum(count) - count)
    return nbr[np.repeat(shift, count) + np.arange(int(count.sum()))]


def _add_neighbors(m: np.ndarray, net: ContactNetwork, nodes: np.ndarray, delta: int) -> None:
    """Add `delta` to ``m[v]`` (int32) once for each of `nodes` that neighbors v."""
    for ptr, nbr in net.adjacency:  # an int32 delta: a Python int sends add.at down a slow cast
        np.add.at(m, _neighbors(ptr, nbr, nodes), np.int32(delta))


def _start(comp: np.ndarray, net: ContactNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The infected nodes of `comp` and each node's count of infected neighbors."""
    infected = np.flatnonzero(comp == I)
    m = np.zeros(len(comp), dtype=np.int32)
    _add_neighbors(m, net, infected, 1)
    return infected, m


def _day(comp, infected, m, net, cfg, key) -> tuple[np.ndarray, np.ndarray]:
    """Advance one day in place with the uniforms of day key `key`: each susceptible
    with infected neighbors reads its `INFECT` uniform, each of the `infected` nodes
    its `RECOVER` uniform. Updates the compartment `comp` and each node's count of
    infected neighbors `m`; returns the next day's infected nodes, the new ones
    last, and the new ones."""
    cand = np.flatnonzero((m > 0) & (comp == S))
    p = np.where(net.misinformed[cand], cfg.p_m, cfg.p_o)
    p_infect = 1.0 - np.power(1.0 - p, m[cand])
    new = cand[uniform(key, cand, INFECT) < p_infect]
    recovers = uniform(key, infected, RECOVER) < cfg.gamma
    gone = infected[recovers]
    comp[new] = I
    comp[gone] = R
    _add_neighbors(m, net, new, 1)
    _add_neighbors(m, net, gone, -1)
    return np.concatenate([infected[~recovers], new]), new


def step(comp: np.ndarray, net: ContactNetwork, cfg: AbmConfig, key: int) -> np.ndarray:
    """The next day's compartment (one uint8 per node) after `comp`, advanced
    synchronously with the uniforms of day key `key`; `comp` is never written."""
    comp = comp.copy()
    _day(comp, *_start(comp, net), net, cfg, key)
    return comp


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


def rep_counts(net: ContactNetwork, cfg: AbmConfig, rep_key: int) -> np.ndarray:
    """Daily counts of repetition `rep_key`: (infected, new) x (ordinary, misinformed) x day."""
    counts = np.zeros((2, 2, cfg.steps + 1), dtype=np.int64)
    comp = seed_infection(net, cfg, seeding_stream(rep_key))
    infected, m = _start(comp, net)
    new = infected
    for day in range(cfg.steps + 1):
        if day:
            infected, new = _day(comp, infected, m, net, cfg, day_key(rep_key, day))
        for k, nodes in enumerate((infected, new)):
            on_mis = np.count_nonzero(net.misinformed[nodes])
            counts[k, :, day] = len(nodes) - on_mis, on_mis
        if not len(infected):
            # Absorbing: no one can be infected or recover again. Each day
            # has its own key, so skipping days changes nothing later.
            break
    return counts


def result(counts: np.ndarray) -> EpidemicResult:
    """The nine measures of `rep_counts` stacked in repetition order: ``counts[k, j, rep, day]``."""
    per_rep = {}
    by_label = {"": counts.sum(axis=1), "_ord": counts[:, 0], "_mis": counts[:, 1]}
    for suffix, (prev, new) in by_label.items():
        per_rep["new_inf" + suffix], per_rep["prev_I" + suffix] = new, prev
        per_rep["cum" + suffix] = new.cumsum(axis=1)
    return EpidemicResult(days=np.arange(counts.shape[-1]), per_rep=per_rep)


def run(net: ContactNetwork, cfg: AbmConfig, master_seed: int) -> EpidemicResult:
    """Run cfg.repetitions independent epidemics and aggregate per day.

    The network is fixed; repetition r reseeds the initial infections with
    key ``derive_seed(master_seed, r)`` and depends on nothing else, so a
    caller may run `rep_counts` for each r anywhere and stack them into
    `result`. Identical inputs give identical results, bit for bit.
    """
    reps = [rep_counts(net, cfg, derive_seed(master_seed, rep)) for rep in range(cfg.repetitions)]
    return result(np.stack(reps, axis=2))


def write_result_csv(result: EpidemicResult, path) -> None:
    """Write the per-day mean/std table: day, then mean_/std_ per measure."""
    header, columns = ["day"], [result.days]
    for name in MEASURES:
        header += [f"mean_{name}", f"std_{name}"]
        columns += [result.mean(name), result.std(name)]
    write_columns(path, header, columns)
