"""Independent oracles the test suite checks the engine against.

Everything here is deliberately written in a different style from the
package: dict- and loop-based enumeration instead of vectorized arrays, so a
shared bug is unlikely. The contagion law itself (susceptible-side p, m
independent exposures, synchronous daily updates, geometric recovery) is the
contract both sides implement.
"""

from __future__ import annotations

import csv
import struct
from functools import lru_cache
from itertools import product

import numpy as np

from smirsim import abm, infonet
from smirsim import meanfield as mf
from smirsim.contactnet import ContactNetwork
from smirsim.errors import NumericError, ParseError, ValidationError
from smirsim.scenario import Scenario, ScenarioConfig, derive_seed


def exact_outcome_distribution(
    adj: list[set[int]],
    misinformed: list[bool],
    initial: tuple[int, ...],
    p_o: float,
    p_m: float,
    gamma: float,
    steps: int,
) -> dict[tuple[int, ...], float]:
    """Exact joint-compartment distribution after `steps` synchronous days.

    Nodes are 0=S, 1=I, 2=R. Transitions per node, reading only the previous
    day: S with m>=1 infected neighbors -> I w.p. 1 - (1-p)^m where p follows
    the susceptible's own label; I -> R w.p. gamma; R absorbs.
    """
    n = len(adj)
    dist = {tuple(initial): 1.0}
    for _ in range(steps):
        nxt: dict[tuple[int, ...], float] = {}
        for state, prob in dist.items():
            options = []
            for j in range(n):
                c = state[j]
                if c == 0:
                    m = sum(1 for nb in adj[j] if state[nb] == 1)
                    if m == 0:
                        options.append(((0, 1.0),))
                    else:
                        p = p_m if misinformed[j] else p_o
                        p_inf = 1.0 - (1.0 - p) ** m
                        opts = []
                        if p_inf > 0:
                            opts.append((1, p_inf))
                        if p_inf < 1:
                            opts.append((0, 1.0 - p_inf))
                        options.append(tuple(opts))
                elif c == 1:
                    opts = []
                    if gamma > 0:
                        opts.append((2, gamma))
                    if gamma < 1:
                        opts.append((1, 1.0 - gamma))
                    options.append(tuple(opts))
                else:
                    options.append(((2, 1.0),))
            for combo in product(*options):
                p = prob
                for _, q in combo:
                    p *= q
                key = tuple(c for c, _ in combo)
                nxt[key] = nxt.get(key, 0.0) + p
        dist = nxt
    return dist


def contact_rows(edges, n: int) -> dict[str, np.ndarray]:
    """The ``ptr`` and ``hi`` fields of a ContactNetwork on `n` nodes whose
    edges are the (lo, hi) pairs `edges`: row lo lists the hi ends of its
    pairs in the order they are given, so pairs whose hi ends fall under one
    lo give a falling row."""
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    by_lo = np.argsort(pairs[:, 0], kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))])
    return {"ptr": ptr, "hi": pairs[by_lo, 1].astype(np.uint32)}


def stacked_network(
    edges: list[tuple[int, int]], misinformed: list[bool], copies: int
) -> ContactNetwork:
    """`copies` disjoint replicas of a small graph as one ContactNetwork.

    Disjointness plus per-node random draws make the replicas independent, so
    one production run yields `copies` i.i.d. outcome samples.
    """
    k = len(misinformed)
    n = k * copies
    if edges:
        base = np.array(edges, dtype=np.int64)
        lo = np.minimum(base[:, 0], base[:, 1])
        hi = np.maximum(base[:, 0], base[:, 1])
        offs = (np.arange(copies, dtype=np.int64) * k)[:, None]
        all_lo = (lo[None, :] + offs).ravel()
        all_hi = (hi[None, :] + offs).ravel()
        keys = np.sort(all_lo.astype(np.uint64) * np.uint64(n) + all_hi.astype(np.uint64))
        stacked = np.column_stack([keys // np.uint64(n), keys % np.uint64(n)])
    else:
        stacked = np.empty((0, 2), dtype=np.uint32)
    return ContactNetwork(
        county_ids=np.array([1000], dtype=np.int64),
        county_index=np.zeros(n, dtype=np.int32),
        misinformed=np.tile(np.asarray(misinformed, dtype=bool), copies),
        **contact_rows(stacked, n),
        k_bar=max(2.0 * len(edges) / k, 1.0),
        seed=0,
    )


@lru_cache(maxsize=1)
def _unlabeled_stack(edges: tuple[tuple[int, int], ...], k: int, copies: int) -> ContactNetwork:
    """`stacked_network` of `edges` over `k` nodes, none misinformed. Cached, so
    that one graph run under each of its labelings in turn builds its stack,
    and the ``adjacency`` that its first ``relabel`` adds, once."""
    return stacked_network(list(edges), [False] * k, copies)


def empirical_outcome_counts(
    edges: list[tuple[int, int]],
    misinformed: list[bool],
    initial: tuple[int, ...],
    cfg_kwargs: dict,
    steps: int,
    copies: int,
    rep_key: int,
) -> np.ndarray:
    """Final joint-state counts over `copies` replicas of the production step.

    Returns counts indexed by the base-3 encoding of the per-copy compartment
    tuple.
    """
    k = len(misinformed)
    net = _unlabeled_stack(tuple(edges), k, copies).relabel(
        np.tile(np.asarray(misinformed, dtype=bool), copies))
    comp = np.tile(np.asarray(initial, dtype=np.uint8), copies)
    cfg = abm.AbmConfig(initial_infected=1, **cfg_kwargs)
    for day in range(1, steps + 1):
        comp = abm.step(comp, net, cfg, abm.day_key(rep_key, day))
    codes = comp.reshape(copies, k).astype(np.int64)
    powers = 3 ** np.arange(k - 1, -1, -1)
    return np.bincount(codes @ powers, minlength=3**k)


def reference_step(
    comp: np.ndarray, net: ContactNetwork, cfg: abm.AbmConfig, key: int
) -> np.ndarray:
    """One synchronous day by a full scan of the edge list.

    Counts every node's infected neighbors with two bincounts over all
    edges, whatever the number of infected nodes, and evaluates both
    uniforms of day key `key` at every node; ``abm.step`` reads the same
    values where it needs them, so both give identical compartments.
    """
    n = len(comp)
    infected = comp == abm.I
    src = net.edges[:, 0]
    dst = net.edges[:, 1]
    m = np.bincount(dst[infected[src]], minlength=n) + np.bincount(
        src[infected[dst]], minlength=n
    )
    every = np.arange(n)
    u_inf = abm.uniform(key, every, abm.INFECT)
    u_rec = abm.uniform(key, every, abm.RECOVER)
    p = np.where(net.misinformed, cfg.p_m, cfg.p_o)
    p_infect = 1.0 - np.power(1.0 - p, m)
    nxt = comp.copy()
    nxt[(comp == abm.S) & (m > 0) & (u_inf < p_infect)] = abm.I
    nxt[infected & (u_rec < cfg.gamma)] = abm.R
    return nxt


def reference_run(net: ContactNetwork, cfg: abm.AbmConfig, master_seed: int) -> abm.EpidemicResult:
    """``abm.run`` by brute force: `reference_step` on every day, even after
    the epidemic has died out, with each measure counted by its own mask."""
    mis = net.misinformed
    t = cfg.steps + 1
    per_rep = {name: np.zeros((cfg.repetitions, t), dtype=np.int64) for name in abm.MEASURES}
    for rep in range(cfg.repetitions):
        rep_key = derive_seed(master_seed, rep)
        comp = abm.seed_infection(net, cfg, abm.seeding_stream(rep_key))
        ever = np.zeros(net.n_nodes, dtype=bool)
        prev = np.zeros(net.n_nodes, dtype=np.uint8)
        for day in range(t):
            if day:
                prev, comp = comp, reference_step(comp, net, cfg, abm.day_key(rep_key, day))
            newly = (comp == abm.I) & (prev == abm.S)
            ever |= newly
            for suffix, keep in (("", np.ones_like(mis)), ("_ord", ~mis), ("_mis", mis)):
                per_rep["new_inf" + suffix][rep, day] = (newly & keep).sum()
                per_rep["prev_I" + suffix][rep, day] = ((comp == abm.I) & keep).sum()
                per_rep["cum" + suffix][rep, day] = (ever & keep).sum()
    return abm.EpidemicResult(days=np.arange(t), per_rep=per_rep)


def complete_network(n: int) -> ContactNetwork:
    """One county whose n nodes, all misinformed, all neighbor each other."""
    lo, hi = np.triu_indices(n, k=1)  # row-major, so already sorted
    return ContactNetwork(
        county_ids=np.array([1000], dtype=np.int64),
        county_index=np.zeros(n, dtype=np.int32),
        misinformed=np.ones(n, dtype=bool),
        **contact_rows(zip(lo, hi), n),
        k_bar=float(n - 1),
        seed=0,
    )


def contactnet_bytes(net) -> bytes:
    """The SMIRCNET4 file of `net`, encoded one value at a time from the format's
    description: the county index as (county, length) runs, and per block of 4096 rows
    their degrees, then their gaps (a row's first end less its node, each later end less
    the one before), each list as 15-bit words and then the high words of flagged ones."""
    n, ptr, hi = net.n_nodes, [int(p) for p in net.ptr], [int(h) for h in net.hi]
    runs: list[list[int]] = []
    for c in net.county_index.tolist():
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    labels = list(net.misinformed) + [False] * (-n % 8)
    bits = bytes(sum(int(labels[i + j]) << (7 - j) for j in range(8)) for i in range(0, n, 8))
    body, n_high = b"", 0
    for start in range(0, n, 4096):
        rows = range(start, min(start + 4096, n))
        gaps = [w - (hi[i - 1] if i > ptr[v] else v)
                for v in rows for i, w in enumerate(hi[ptr[v]:ptr[v + 1]], ptr[v])]
        for values in ([ptr[v + 1] - ptr[v] for v in rows], gaps):
            assert all(0 <= x < 2**31 for x in values)
            words = [x if x < 2**15 else 0x8000 | x % 2**15 for x in values]
            high = [x // 2**15 for x in values if x >= 2**15]
            body += struct.pack(f"<{len(words)}H{len(high)}H", *words, *high)
            n_high += len(high)
    header = struct.pack("<QQdQIQQ", n, len(hi), net.k_bar, net.seed, len(net.county_ids),
                         len(runs), n_high)
    return (b"SMIRCNET4\n" + header + struct.pack(f"<{len(net.county_ids)}q", *net.county_ids)
            + struct.pack(f"<{2 * len(runs)}I", *(r[0] for r in runs), *(r[1] for r in runs))
            + bits + body)


def mean_field_map(n, p, gamma, initial, days) -> tuple[np.ndarray, np.ndarray]:
    """Prevalence on days 1..days of the discrete-time map of the ABM's law on
    a complete graph, and the standard deviation of one run's prevalence.

    The map moves the expected state: X = S (1 - (1 - p)^I) new infections
    and Y = gamma I recoveries a day. The deviation comes from the linear
    noise approximation: the covariance of (S, I) is carried through the
    map's Jacobian, and each day adds the binomial variances of X ~ Bin(S, q)
    and Y ~ Bin(I, gamma) (dS = -X, dI = X - Y).
    """
    s, i = float(n - initial), float(initial)
    cov = np.zeros((2, 2))
    prevalence, sd = [], []
    for _ in range(days):
        q = 1.0 - (1.0 - p) ** i
        dq = -((1.0 - p) ** i) * np.log1p(-p)  # dq/dI
        jac = np.array([[1.0 - q, -s * dq], [q, 1.0 - gamma + s * dq]])
        vx, vy = s * q * (1.0 - q), i * gamma * (1.0 - gamma)
        cov = jac @ cov @ jac.T + np.array([[vx, -vx], [-vx, vx + vy]])
        s, i = s - s * q, i + s * q - gamma * i
        prevalence.append(i)
        sd.append(np.sqrt(cov[1, 1]))
    return np.array(prevalence), np.array(sd)


def reference_rhs(y: np.ndarray, beta_o, beta_m, gamma, alpha) -> np.ndarray:
    """Time derivatives of packed mean-field states, shape (..., 6), written
    straight from the equations; the rates broadcast against the batch."""
    force_o = 2.0 * beta_o * y[..., mf.S_O] * (alpha * y[..., mf.I_O] + (1.0 - alpha) * y[..., mf.I_M])
    force_m = 2.0 * beta_m * y[..., mf.S_M] * ((1.0 - alpha) * y[..., mf.I_O] + alpha * y[..., mf.I_M])
    rec_o = gamma * y[..., mf.I_O]
    rec_m = gamma * y[..., mf.I_M]
    out = np.empty_like(y)
    out[..., mf.S_O] = -force_o
    out[..., mf.I_O] = force_o - rec_o
    out[..., mf.R_O] = rec_o
    out[..., mf.S_M] = -force_m
    out[..., mf.I_M] = force_m - rec_m
    out[..., mf.R_M] = rec_m
    return out


def reference_integrate(params_seq, horizon: int, dt: float, method: str) -> np.ndarray:
    """States (rows, horizon + 1, 6) of a lockstep batch, stepped with fresh
    arrays per stage from the packed layout: the integrator `integrate_many`
    must match bit for bit. Raises the same NumericError on the same
    row and day."""
    y = np.array([mf.initial_state(p) for p in params_seq], dtype=float)
    rates = np.array([(p.beta_o, p.beta_m, p.gamma, p.alpha) for p in params_seq]).T
    states = np.empty((len(params_seq), horizon + 1, 6))
    states[:, 0] = y
    for day in range(horizon):
        for _ in range(round(1.0 / dt)):
            if method == "euler":
                y = y + dt * reference_rhs(y, *rates)
            else:
                k1 = reference_rhs(y, *rates)
                k2 = reference_rhs(y + 0.5 * dt * k1, *rates)
                k3 = reference_rhs(y + 0.5 * dt * k2, *rates)
                k4 = reference_rhs(y + dt * k3, *rates)
                y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[:, day + 1] = y
        in_bounds = np.isfinite(y) & (y >= -1e-9) & (y <= 1 + 1e-9)
        if not in_bounds.all():
            row = int(np.argmin(in_bounds.all(axis=1)))
            raise NumericError(
                f"compartment left [0, 1] on day {day + 1} for {params_seq[row]} "
                f"(method={method}, dt={dt}); reduce dt or check parameters"
            )
    return states


def reference_account_layout(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(county, party) per synthetic account, laid out county by county.

    Each county gets its ``twitter_users`` accounts in turn, the first
    floor(share * count + 0.5) of them republican, the rest democrat.
    """
    county, party = [], []
    for fips, share, count in zip(
        scenario.county_ids.tolist(),
        scenario.republican_share.tolist(),
        scenario.twitter_users.tolist(),
    ):
        n_rep = int(np.floor(share * count + 0.5))
        for i in range(count):
            county.append(fips)
            party.append(infonet.REPUBLICAN if i < n_rep else infonet.DEMOCRAT)
    return np.array(county, dtype=np.int64), np.array(party, dtype=np.int8)


def reference_infonet(
    scenario: Scenario, cfg: ScenarioConfig, rng_seed: int
) -> infonet.InfoNetwork:
    """``infonet.generate_synthetic_infonet`` as a loop over arrivals.

    The same random draws, consumed the same way, but each arrival's
    ``edges_per_node`` draws walk two growing Python lists, one preferential
    pool per party: one entry per account plus one per in-edge, so a uniform
    index picks a target proportionally to (in-degree + 1). A draw whose pool
    is still empty is skipped and takes no weight.
    """
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    users = scenario.twitter_users
    county = np.repeat(scenario.county_ids.astype(np.int64), users)
    n = len(county)
    # Each account's rank within its county; ranks below the county's
    # rounded republican count are republican.
    rank = np.arange(n) - np.repeat(np.cumsum(users) - users, users)
    n_rep = np.floor(scenario.republican_share * users + 0.5)
    party = np.where(rank < np.repeat(n_rep, users), infonet.REPUBLICAN, infonet.DEMOCRAT).astype(np.int8)

    # Alignment magnitude carries no meaning beyond its sign here.
    alignment = party * rng.uniform(0.05, 1.0, size=n)

    seed_rate = np.where(
        party == infonet.REPUBLICAN, cfg.seed_rate_republican, cfg.seed_rate_democrat
    )
    seeds = rng.random(n) < seed_rate

    order = rng.permutation(n)
    k = cfg.edges_per_node
    same_party = rng.random((n, k)) < cfg.homophily
    pick = rng.random((n, k))
    weights_flat = rng.geometric(cfg.retweet_weight_p, size=n * k)

    # Preferential pools: one entry per node plus one per in-edge, so a
    # uniform index draws targets proportionally to in-degree + 1.
    pools = {infonet.REPUBLICAN: [], infonet.DEMOCRAT: []}
    src_list, dst_list, w_list = [], [], []
    w_pos = 0
    for step, u in enumerate(order):
        u_party = int(party[u])
        for j in range(k):
            want = u_party if same_party[step, j] else -u_party
            pool = pools[want]
            if not pool:
                continue
            target = pool[min(int(pick[step, j] * len(pool)), len(pool) - 1)]
            src_list.append(u)
            dst_list.append(target)
            w_list.append(weights_flat[w_pos])
            w_pos += 1
            pool.append(target)
        pools[u_party].append(u)

    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    w = np.asarray(w_list, dtype=np.int64)
    if len(src):
        # Merge repeated (src, dst) draws into one edge with summed weight.
        key = src.astype(np.uint64) * np.uint64(n) + dst.astype(np.uint64)
        uniq, inverse = np.unique(key, return_inverse=True)
        w_agg = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(w_agg, inverse, w)
        src = (uniq // np.uint64(n)).astype(np.int64)
        dst = (uniq % np.uint64(n)).astype(np.int64)
        w = w_agg

    return infonet.InfoNetwork(
        ids=np.arange(n, dtype=np.int64),
        county=county,
        alignment=alignment,
        seed=seeds,
        edge_src=src,
        edge_dst=dst,
        edge_weight=w,
    )


def encode_state(state: tuple[int, ...]) -> int:
    code = 0
    for c in state:
        code = code * 3 + c
    return code


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def compare_to_oracle(edges, misinformed, initial, p_o, p_m, gamma, steps, copies, rep_key):
    """Empirical joint-outcome frequencies vs exact enumeration.

    Deterministic cells (exact probability 0 or 1) must match exactly; that
    asserts locality and forced dynamics for free. Stochastic cells are
    z-scored with a half-count continuity correction. Returns the number of
    stochastic cells and how many exceeded 3 and 6 sigma.
    """
    n = len(misinformed)
    exact = exact_outcome_distribution(
        adjacency(n, edges), misinformed, initial, p_o, p_m, gamma, steps
    )
    counts = empirical_outcome_counts(
        edges, misinformed, initial,
        dict(p_o=p_o, p_m=p_m, gamma=gamma), steps, copies, rep_key,
    )
    total = counts.sum()
    probs = np.zeros(3**n)
    for state, p in exact.items():
        probs[encode_state(state)] = p
    stochastic = loose = hard = 0
    for code in range(3**n):
        p = probs[code]
        c = int(counts[code])
        if p == 0.0:
            assert c == 0, f"impossible outcome {code} observed {c} times"
            continue
        if p == 1.0:
            assert c == total, f"forced outcome {code} seen only {c}/{total} times"
            continue
        stochastic += 1
        sigma = np.sqrt(p * (1 - p) / total)
        dev = max(abs(c / total - p) - 0.5 / total, 0.0)
        if dev > 3 * sigma:
            loose += 1
        if dev > 6 * sigma:
            hard += 1
    return stochastic, loose, hard


def brute_force_misinformed(
    n: int,
    edges: list[tuple[int, int, int]],
    seeds: set[int],
    phi: int,
    weighted: bool,
) -> set[int]:
    """Recount seed exposures node by node; edges are (src, dst, weight)."""
    out = set(seeds)
    for j in range(n):
        exposure = 0
        seen = set()
        for src, dst, w in edges:
            if dst == j and src in seeds and src not in seen:
                seen.add(src)
                exposure += w if weighted else 1
        if exposure >= phi:
            out.add(j)
    return out


def _reference_rows(path, n_columns):
    """(line number, cells) per data row, read as the row-by-row loader did."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) is None:
            raise ParseError(path, 1, "empty file, expected a header row")
        for line_no, row in enumerate(reader, start=2):
            if row:
                if len(row) != n_columns:
                    raise ParseError(path, line_no, f"expected {n_columns} columns, got {len(row)}")
                yield line_no, row


def _reference_int(path, line_no, cell):
    try:
        value = int(cell)
    except ValueError as e:
        raise ParseError(path, line_no, str(e)) from e
    if not -(2**63) <= value < 2**63:
        raise ParseError(path, line_no, f"integer {cell.strip()} does not fit in int64")
    return value


def reference_load_infonet(nodes_path, edges_path) -> dict[str, np.ndarray]:
    """The arrays the row-by-row infonet loader built, by name; or the
    ParseError or ValidationError it raised. The ids are int64 when each is
    a canonical decimal (ASCII digits, no leading zero, below 2**63), else
    text; an edge end names the node whose id has the same text."""
    ids, county, alignment, seed = [], [], [], []
    for line_no, row in _reference_rows(nodes_path, 4):
        ids.append(row[0])
        county.append(_reference_int(nodes_path, line_no, row[1]))
        try:
            alignment.append(float(row[2]) if row[2] != "" else np.nan)
        except ValueError as e:
            raise ParseError(nodes_path, line_no, str(e)) from e
        seed.append(_reference_int(nodes_path, line_no, row[3]) != 0)
    index = {node_id: i for i, node_id in enumerate(ids)}
    rows = [(line_no, row[0], row[1], _reference_int(edges_path, line_no, row[2]))
            for line_no, row in _reference_rows(edges_path, 3)]
    for line_no, *ends, _ in rows:
        for name in (end for end in ends if end not in index):
            raise ParseError(edges_path, line_no, f"unknown node id {name!r}")
    src, dst = [index[r[1]] for r in rows], [index[r[2]] for r in rows]
    weight = [r[3] for r in rows]
    if not ids:
        raise ValidationError("information network needs at least one node")
    if len(index) < len(ids):
        raise ValidationError("node ids are not unique")
    if any(s == d for s, d in zip(src, dst)):
        raise ValidationError("self-edges are not allowed")
    if any(w < 1 for w in weight):
        raise ValidationError("edge weights must be >= 1")
    if len(set(zip(src, dst))) < len(src):
        raise ValidationError("duplicate directed edges are not allowed")
    canonical = all(s.isascii() and s.isdigit() and str(int(s)) == s and int(s) < 2**63
                    for s in ids)
    return {
        "ids": np.asarray([int(s) for s in ids], dtype=np.int64) if canonical else np.asarray(ids),
        "county": np.asarray(county, dtype=np.int64),
        "alignment": np.asarray(alignment, dtype=float),
        "seed": np.asarray(seed, dtype=bool),
        "edge_src": np.asarray(src, dtype=np.int64),
        "edge_dst": np.asarray(dst, dtype=np.int64),
        "edge_weight": np.asarray(weight, dtype=np.int64),
    }


def reference_load_scenario(counties_path, mobility_path) -> dict[str, np.ndarray]:
    """The arrays the row-by-row scenario loader built, by name."""
    fips, voters, share, users = [], [], [], []
    for _, row in _reference_rows(counties_path, 4):
        fips.append(int(row[0]))
        voters.append(int(row[1]))
        share.append(float(row[2]))
        users.append(int(row[3]))
    index = {c: i for i, c in enumerate(fips)}
    raw = np.zeros((len(fips), len(fips)))
    filled = np.zeros((len(fips), len(fips)), dtype=bool)
    for _, row in _reference_rows(mobility_path, 3):
        i, j = index[int(row[0])], index[int(row[1])]
        raw[i, j] = float(row[2])
        filled[i, j] = True
    both = filled & filled.T
    return {
        "county_ids": np.asarray(fips, dtype=np.int64),
        "voters": np.asarray(voters, dtype=np.int64),
        "republican_share": np.asarray(share, dtype=float),
        "twitter_users": np.asarray(users, dtype=np.int64),
        "mobility": np.where(both, (raw + raw.T) / 2.0, raw + raw.T * ~filled),
    }


def reference_write_csv(path, header, rows) -> None:
    """Write `header` and then every row of `rows` to `path` with ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f)
        out.writerow(header)
        out.writerows(rows)
