"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Several criteria are statistical; they use fixed seeds and tolerance
budgets sized so a correct engine passes deterministically while a real
defect fails loudly.
"""

import json
import resource
import time
from itertools import combinations, permutations

import numpy as np
import pytest

import smirsim as sm
from smirsim import abm, meanfield as mf
from smirsim.cli import main as cli_main
from smirsim.scenario import ScenarioConfig, derive_seed, generate_scenario

from oracles import compare_to_oracle

SCENARIO_SEED = 1
SAMPLE_STREAM, NET_STREAM, ABM_STREAM = 10, 11, 12


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_scenario():
    """341-county synthetic scenario shared by the pipeline criteria."""
    scenario, net = generate_scenario(ScenarioConfig(seed=SCENARIO_SEED))
    return scenario, net


def pipeline_once(scenario, net, phi, sample_fraction, k_bar, cfg):
    misinformed = sm.spread_misinformation(net, phi)
    nodes = sm.sample_population(
        scenario, net, sample_fraction, derive_seed(SCENARIO_SEED, SAMPLE_STREAM)
    )
    e_matrix = sm.expected_edges(scenario.mobility, k_bar, len(nodes.source))
    cnet = sm.build_contact_network(
        nodes, e_matrix, k_bar, derive_seed(SCENARIO_SEED, NET_STREAM)
    ).relabel(misinformed[nodes.source])
    result = abm.run(cnet, cfg, derive_seed(SCENARIO_SEED, ABM_STREAM))
    return cnet, result


def test_criterion_1_lambda_effect():
    started = time.monotonic()
    base = dict(beta_o=0.3, gamma=0.2, mu=0.5, alpha=0.5, epsilon=0.001)
    s1 = mf.summarize(mf.integrate(mf.MeanFieldParams(lam=1.0, **base)))
    s3 = mf.summarize(mf.integrate(mf.MeanFieldParams(lam=3.0, **base)))
    elapsed = time.monotonic() - started
    diff = s3.total_infected - s1.total_infected
    ok = (
        abs(s1.peak_day - 60) <= 2
        and abs(s3.peak_day - 22) <= 2
        and abs(diff - 0.292) <= 0.015
        and elapsed < 1.0
    )
    report(
        "criterion 1: lambda accelerates and amplifies the epidemic",
        ok,
        f"peaks {s1.peak_day}/{s3.peak_day}, diff {diff:.4f}, {elapsed:.2f}s",
    )


def test_criterion_2_epidemic_threshold():
    started = time.monotonic()
    low = mf.summarize(mf.integrate(mf.MeanFieldParams(beta_o=0.1, gamma=0.2, lam=1.0)))
    high = mf.summarize(mf.integrate(mf.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=1.0)))
    elapsed = time.monotonic() - started
    eps = 0.001
    ok = (
        low.total_infected - eps < 0.01
        and high.total_infected - eps > 0.10
        and elapsed < 1.0
    )
    report(
        "criterion 2: epidemic threshold at R0 = 1",
        ok,
        f"R0=0.5 extra {low.total_infected - eps:.5f}, "
        f"R0=1.5 extra {high.total_infected - eps:.3f}, {elapsed:.2f}s",
    )


def test_criterion_3_homophily_phase_behavior():
    started = time.monotonic()
    params = mf.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=3.0)
    alphas = np.linspace(0.5, 1.0, 21)
    beta_os = [0.1, 0.125, 0.13, 0.135, 0.14, 0.145, 0.15, 0.155, 0.4]
    grid = mf.sweep_grid(params, alphas, beta_os, method="rk4")
    elapsed = time.monotonic() - started

    mis_low_beta = grid.misinformed[0]  # beta_o = 0.1
    a_ok = bool(np.all(np.diff(mis_low_beta) >= -1e-12))
    overall_high_beta = grid.overall[-1]  # beta_o = 0.4
    b_ok = overall_high_beta[-1] < overall_high_beta[0]
    interior = [
        0.5 < grid.argmax_alpha[i] < 1.0
        for i, b in enumerate(beta_os)
        if 0.12 < b < 0.16
    ]
    c_ok = any(interior)
    ok = a_ok and b_ok and c_ok and elapsed < 10.0
    report(
        "criterion 3: homophily harms the misinformed, shields, peaks interior",
        ok,
        f"(a)={a_ok} (b)={b_ok} (c)={sum(interior)}/{len(interior)} rows, {elapsed:.1f}s",
    )


def test_criterion_4_algebraic_reduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        state = rng.dirichlet(np.ones(6))
        s_o, i_o, _, s_m, i_m, _ = state
        beta_o = rng.uniform(0.01, 1.0)
        lam = rng.uniform(1.0, 5.0)
        gamma = rng.uniform(0.05, 1.0)
        p = mf.MeanFieldParams(beta_o=beta_o, gamma=gamma, lam=lam, alpha=0.5)
        got = mf.derivatives(state, p)
        force_o = beta_o * s_o * (i_o + i_m)
        force_m = lam * beta_o * s_m * (i_o + i_m)
        want = np.array([
            -force_o, force_o - gamma * i_o, gamma * i_o,
            -force_m, force_m - gamma * i_m, gamma * i_m,
        ])
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-15
    report("criterion 4: homophily form reduces exactly at alpha = 0.5", ok,
           f"max |difference| = {worst:.2e}")


def _iso_classes(n):
    """One representative per isomorphism class of (graph, labels, seeds).

    Outcome distributions are equivariant under node relabeling, so testing
    a representative tests its whole class.
    """
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    mask_tables = []
    for perm in perms:
        pm = [pair_index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        table = np.zeros(1 << len(pairs), dtype=np.int64)
        for mask in range(1 << len(pairs)):
            out = 0
            for i in range(len(pairs)):
                if mask >> i & 1:
                    out |= 1 << pm[i]
            table[mask] = out
        mask_tables.append(table)
    reps = {}
    for mask in range(1 << len(pairs)):
        for attrs_code in range(4**n):
            attrs = tuple((attrs_code >> (2 * i)) & 3 for i in range(n))
            best = None
            for k, perm in enumerate(perms):
                pattrs = [0] * n
                for i in range(n):
                    pattrs[perm[i]] = attrs[i]
                key = (int(mask_tables[k][mask]), tuple(pattrs))
                if best is None or key < best:
                    best = key
            reps.setdefault(best, (mask, attrs))
    out = []
    for mask, attrs in reps.values():
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        misinformed = [bool(a & 1) for a in attrs]
        initial = tuple(1 if a & 2 else 0 for a in attrs)
        out.append((edges, misinformed, initial))
    return out


def test_criterion_5_abm_oracle_equivalence():
    """Every <=4-node graph, every label/seed assignment, against enumeration.

    With ~18k stochastic outcome cells, a correct engine still lands ~0.27%
    of them just past 3 sigma by chance, so the family-level check allows
    that documented rate (and nothing past 6 sigma); any systematic error
    moves whole blocks of cells by tens of sigma.
    """
    started = time.monotonic()
    configs = []
    for n in (1, 2, 3, 4):
        configs += _iso_classes(n)
    copies = 100_000
    stochastic = loose = hard = 0
    key = 0
    for gamma in (0.0, 0.2):
        for edges, misinformed, initial in configs:
            key += 1
            s, l3, l6 = compare_to_oracle(
                edges, misinformed, initial,
                p_o=0.5, p_m=1.0, gamma=gamma,
                steps=2, copies=copies, rep_key=key,
            )
            stochastic += s
            loose += l3
            hard += l6
    elapsed = time.monotonic() - started
    budget = max(3, round(0.006 * stochastic))
    ok = hard == 0 and loose <= budget and elapsed < 300.0
    report(
        "criterion 5: agent dynamics match exact enumeration",
        ok,
        f"{len(configs)} classes x 2 gammas, {stochastic} stochastic cells, "
        f"{loose} past 3-sigma (budget {budget}), {hard} past 6-sigma, {elapsed:.0f}s",
    )


def test_criterion_6_pipeline_trends(desk_scenario):
    started = time.monotonic()
    scenario, net = desk_scenario
    fraction = 50_000 / int(scenario.voters.sum())
    cfg = abm.AbmConfig()  # p_o=0.01, p_m=1, gamma=0.2, 100 seeds, 100 steps, 10 reps
    stats = {}
    for phi in (1, 2, 5, 10, 20):
        cnet, result = pipeline_once(scenario, net, phi, fraction, 25.0, cfg)
        stats[phi] = (
            cnet.misinformed_count,
            result.cumulative_final_mean,
            result.peak_day_mean,
            result.peak_height_mean,
        )
    elapsed = time.monotonic() - started
    phis = (1, 2, 5, 10, 20)
    mis = [stats[p][0] for p in phis]
    cum = [stats[p][1] for p in phis]
    a_ok = all(b <= a for a, b in zip(mis, mis[1:]))
    b_ok = all(b <= a for a, b in zip(cum, cum[1:]))
    c_ok = stats[1][2] < stats[20][2]
    d_ok = stats[1][3] > stats[20][3]
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 600.0
    report(
        "criterion 6: lower resilience, larger and earlier epidemics",
        ok,
        f"mis {mis}, cum {[round(c) for c in cum]}, "
        f"peak day {stats[1][2]:.1f} vs {stats[20][2]:.1f}, "
        f"peak height {stats[1][3]:.0f} vs {stats[20][3]:.0f}, {elapsed:.0f}s",
    )


def test_criterion_7_contact_network_statistics():
    sizes = np.array([3334, 3333, 3333])
    n = int(sizes.sum())
    nodes = sm.SampledNodes(
        county_ids=np.array([1, 2, 3], dtype=np.int64),
        county_index=np.repeat(np.arange(3, dtype=np.int32), sizes),
        source=np.zeros(n, dtype=np.int64),
    )
    k_bar = 25.0
    e_matrix = sm.expected_edges(np.ones((3, 3)), k_bar, n)
    total = int(round(k_bar * n / 2))
    xs, ys = np.triu_indices(3)
    expect = e_matrix[xs, ys]
    sigma = np.sqrt(total * (expect / total) * (1 - expect / total))
    degree_ok = blocks_ok = simple_ok = True
    for seed in range(20):
        net = sm.build_contact_network(nodes, e_matrix, k_bar, rng_seed=seed)
        degree_ok &= abs(net.mean_degree - k_bar) / k_bar <= 0.02
        simple_ok &= bool(np.all(net.edges[:, 0] < net.edges[:, 1]))
        keys = net.edges[:, 0].astype(np.uint64) * np.uint64(n) + net.edges[:, 1]
        simple_ok &= len(np.unique(keys)) == net.n_edges
        cx = net.county_index[net.edges[:, 0]]
        cy = net.county_index[net.edges[:, 1]]
        lo, hi = np.minimum(cx, cy), np.maximum(cx, cy)
        realized = np.array(
            [int(((lo == xs[b]) & (hi == ys[b])).sum()) for b in range(len(xs))]
        )
        blocks_ok &= bool(np.all(np.abs(realized - expect) <= 4 * sigma))
    ok = degree_ok and blocks_ok and simple_ok
    report(
        "criterion 7: contact network degree, simplicity, block allocation",
        ok,
        f"degree within 2%: {degree_ok}, blocks within 4 sigma: {blocks_ok}, "
        f"simple: {simple_ok} (20 seeds, N=10^4)",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    argv = [
        "pipeline", "--synthetic", "--counties", "20", "--sample", "0.02",
        "--k-bar", "25", "--steps", "50", "--reps", "3",
        "--initial-infected", "50", "--seed", "31",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    artifacts = [
        "contactnet.bin", "result.csv", "summary.json",
        "counties.csv", "mobility.csv", "infonet_nodes.csv", "infonet_edges.csv",
    ]
    mismatched = [
        name for name in artifacts
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    report(
        "criterion 8: identical manifest, byte-identical artifacts",
        not mismatched,
        f"{len(artifacts)} artifacts compared" + (f"; differ: {mismatched}" if mismatched else ""),
    )


def test_criterion_9_density_sweep(desk_scenario):
    started = time.monotonic()
    scenario, net = desk_scenario
    fraction = 50_000 / int(scenario.voters.sum())
    cfg = abm.AbmConfig()
    cums = []
    for k_bar in (5.0, 15.0, 25.0):
        _, result = pipeline_once(scenario, net, 1, fraction, k_bar, cfg)
        cums.append(result.cumulative_final_mean)
    elapsed = time.monotonic() - started
    ok = all(b >= a for a, b in zip(cums, cums[1:]))
    report(
        "criterion 9: denser contact networks produce more infections",
        ok,
        f"cumulative {[round(c) for c in cums]} over k=5/15/25, {elapsed:.0f}s",
    )


def test_criterion_10_scale_smoke(desk_scenario):
    started = time.monotonic()
    scenario, net = desk_scenario
    fraction = 2_000_000 / int(scenario.voters.sum())
    cfg = abm.AbmConfig(repetitions=1)
    cnet, result = pipeline_once(scenario, net, 1, fraction, 25.0, cfg)
    elapsed = time.monotonic() - started
    peak_rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    size_ok = cnet.n_nodes >= 2_000_000 and cnet.n_edges >= 25_000_000
    ok = size_ok and elapsed < 300.0 and peak_rss_gb < 8.0
    report(
        "criterion 10: 2M-node pipeline within time and memory envelope",
        ok,
        f"{cnet.n_nodes} nodes, {cnet.n_edges} edges, {elapsed:.0f}s, "
        f"peak RSS {peak_rss_gb:.2f} GB",
    )


# (alpha, lambda = p_m / p_o, p_o, gamma): homophily and contrast both varied,
# since alpha = 0.5 with lambda = 1 agrees even with the groups swapped.
LEVEL_CASES = [
    (0.5, 1, 0.0075, 0.2),
    (0.5, 2, 0.006, 0.2),
    (0.75, 2, 0.006, 0.2),
    (0.9, 3, 0.005, 0.2),
    (0.75, 4, 0.004, 0.25),
]


def test_criterion_11_abm_matches_mean_field():
    """Two counties of 20,000, one ordinary and one misinformed (mu = 0.5);
    the mobility [[1, b], [b, 1]] with b = 2 (1 - alpha) / alpha gives every
    node a within-county share alpha of its contacts, the mean-field homophily.
    One edge transmits over an infectious period with T(p) = p / (p + gamma -
    p gamma), so the daily Euler map runs at beta_o = k_bar gamma T(p_o) and
    lambda = T(p_m) / T(p_o) (p_m / p_o would ignore that an infected node
    retries the same neighbor, and reads 3-8% high)."""
    started = time.monotonic()
    half, k_bar, seeds = 20_000, 40.0, 50
    n = 2 * half
    nodes = sm.SampledNodes(
        county_ids=np.array([1, 2], dtype=np.int64),
        county_index=np.repeat(np.arange(2, dtype=np.int32), half),
        source=np.arange(n, dtype=np.int64),
    )
    gaps, peak_gaps = [], []
    for alpha, lam, p_o, gamma in LEVEL_CASES:
        b = 2 * (1 - alpha) / alpha
        e_matrix = sm.expected_edges(np.array([[1.0, b], [b, 1.0]]), k_bar, n)
        cnet = sm.build_contact_network(nodes, e_matrix, k_bar, rng_seed=5).relabel(
            nodes.county_index == 1)
        cfg = abm.AbmConfig(p_o=p_o, p_m=lam * p_o, gamma=gamma, initial_infected=seeds,
                            steps=250, repetitions=8)
        result = abm.run(cnet, cfg, master_seed=9)

        def t(p):
            return p / (p + gamma - p * gamma)

        params = mf.MeanFieldParams(beta_o=k_bar * gamma * t(p_o), gamma=gamma,
                                    lam=t(lam * p_o) / t(p_o), mu=0.5, alpha=alpha,
                                    epsilon=seeds / n)
        s = mf.summarize(mf.integrate(params, horizon=250))
        gaps.append(max(abs(result.mean("cum_ord")[-1] / half - s.total_infected_ordinary / 0.5),
                        abs(result.mean("cum_mis")[-1] / half - s.total_infected_misinformed / 0.5)))
        peak_gaps.append(abs(result.peak_day_mean - s.peak_day))
    elapsed = time.monotonic() - started
    ok = max(gaps) <= 0.02 and max(peak_gaps) <= 4
    report(
        "criterion 11: ABM attack rates and peak days match the mean-field",
        ok,
        f"per-group attack-rate gaps {[round(float(g), 3) for g in gaps]} (<= 0.02), "
        f"peak-day gaps {[round(float(g), 1) for g in peak_gaps]} (<= 4), {elapsed:.1f}s",
    )
