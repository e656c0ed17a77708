import math
from dataclasses import replace

import numpy as np
import pytest

from smirsim import abm
from smirsim.errors import ValidationError

from oracles import (
    adjacency,
    compare_to_oracle,
    complete_network,
    mean_field_map,
    reference_run,
    stacked_network,
)


class TestConfig:
    def test_defaults_are_worst_case(self):
        cfg = abm.AbmConfig()
        assert (cfg.p_o, cfg.p_m, cfg.gamma) == (0.01, 1.0, 0.2)
        assert (cfg.initial_infected, cfg.steps, cfg.repetitions) == (100, 100, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p_o=0.5, p_m=0.2),
            dict(p_o=-0.1),
            dict(p_m=1.5),
            dict(gamma=-0.1),
            dict(gamma=1.5),
            dict(initial_infected=0),
            dict(steps=0),
            dict(repetitions=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            abm.AbmConfig(**kwargs)


class TestSeedInfection:
    def net(self, mis):
        return stacked_network([(0, 1)], mis, copies=1)

    def test_no_misinformed_nodes_raises(self):
        net = stacked_network([(0, 1)], [False, False], copies=50)
        cfg = abm.AbmConfig(initial_infected=100)
        with pytest.raises(ValidationError, match="cannot seed 100 infections: only 0 misinformed"):
            abm.seed_infection(net, cfg, np.random.default_rng(0))

    def test_exhaustive_draw_infects_every_misinformed(self):
        net = stacked_network([(0, 1)], [True, False], copies=40)
        cfg = abm.AbmConfig(initial_infected=40)
        state = abm.seed_infection(net, cfg, np.random.default_rng(0))
        infected = state.compartment == abm.I
        assert np.array_equal(infected, net.misinformed)

    def test_fixed_rng_gives_identical_seed_sets(self):
        net = stacked_network([(0, 1)], [True, True], copies=500)
        cfg = abm.AbmConfig(initial_infected=100)
        a = abm.seed_infection(net, cfg, abm.seeding_stream(123))
        b = abm.seed_infection(net, cfg, abm.seeding_stream(123))
        assert np.array_equal(a.compartment, b.compartment)
        assert a.counts() == (900, 100, 0)


class TestStep:
    def test_certain_infection_for_misinformed(self):
        # every S(M) node adjacent to an I gets infected when p_m = 1
        net = stacked_network([(0, 1)], [False, True], copies=200)
        comp = np.zeros(net.n_nodes, dtype=np.uint8)
        comp[::2] = abm.I  # node 0 of each copy infected
        cfg = abm.AbmConfig(p_o=0.0, p_m=1.0, gamma=0.2)
        out = abm.step(abm.AbmState(comp, 0), net, cfg, abm.day_key(7, 1))
        assert np.all(out.compartment[1::2] == abm.I)

    def test_zero_p_o_never_infects_ordinary(self):
        net = stacked_network([(0, 1)], [True, False], copies=300)
        comp = np.zeros(net.n_nodes, dtype=np.uint8)
        comp[::2] = abm.I
        cfg = abm.AbmConfig(p_o=0.0, p_m=1.0, gamma=0.5)
        state = abm.AbmState(comp, 0)
        for day in range(5):
            state = abm.step(state, net, cfg, abm.day_key(99, day))
        assert np.all(state.compartment[1::2] == abm.S)

    def test_three_node_path_first_day_probabilities(self):
        # I - S(ordinary) - S(misinformed), p_o=0.5, p_m=1, gamma=0
        edges = [(0, 1), (1, 2)]
        mis = [False, False, True]
        copies = 100_000
        net = stacked_network(edges, mis, copies)
        comp = np.tile(np.array([abm.I, abm.S, abm.S], dtype=np.uint8), copies)
        cfg = abm.AbmConfig(p_o=0.5, p_m=1.0, gamma=0.0)
        out = abm.step(abm.AbmState(comp, 0), net, cfg, abm.day_key(2024, 1))
        middle = out.compartment[1::3] == abm.I
        far = out.compartment[2::3] == abm.I
        sigma = np.sqrt(0.25 / copies)
        assert abs(middle.mean() - 0.5) <= 3 * sigma
        assert far.sum() == 0  # no infected neighbor on day 0

    def test_infection_and_recovery_read_same_snapshot(self):
        # With gamma = 1 an I node still infects its neighbor on the day it recovers.
        net = stacked_network([(0, 1)], [True, True], copies=100)
        comp = np.zeros(net.n_nodes, dtype=np.uint8)
        comp[::2] = abm.I
        cfg = abm.AbmConfig(p_o=1.0, p_m=1.0, gamma=1.0)
        out = abm.step(abm.AbmState(comp, 0), net, cfg, abm.day_key(5, 1))
        assert np.all(out.compartment[::2] == abm.R)
        assert np.all(out.compartment[1::2] == abm.I)

    def test_compartment_conservation_and_locality(self, rng):
        for trial in range(10):
            k = int(rng.integers(3, 8))
            pairs = {tuple(sorted(map(int, rng.integers(0, k, 2)))) for _ in range(k * 2)}
            edges = [(a, b) for a, b in pairs if a != b]
            mis = list(rng.random(k) < 0.5)
            net = stacked_network(edges, mis, copies=30)
            comp = np.where(rng.random(net.n_nodes) < 0.2, abm.I, abm.S).astype(np.uint8)
            state = abm.AbmState(comp, 0)
            cfg = abm.AbmConfig(p_o=0.3, p_m=0.9, gamma=0.4)
            adj_sets = adjacency(net.n_nodes, net.edges.tolist())
            n = net.n_nodes
            for day in range(4):
                prev = state.compartment
                state = abm.step(state, net, cfg, abm.day_key(trial, day))
                cur = state.compartment
                assert len(cur) == n and set(np.unique(cur)) <= {0, 1, 2}
                # transitions only S->I->R
                assert np.all(cur[prev == abm.R] == abm.R)
                assert np.all(np.isin(cur[prev == abm.I], [abm.I, abm.R]))
                assert np.all(np.isin(cur[prev == abm.S], [abm.S, abm.I]))
                # locality: fresh infections had an infected neighbor
                fresh = np.flatnonzero((cur == abm.I) & (prev == abm.S))
                for j in fresh:
                    assert any(prev[nb] == abm.I for nb in adj_sets[j])


    @pytest.mark.parametrize("carried", [True, False], ids=["carried", "bare"])
    def test_leaves_its_input_unchanged(self, carried):
        net = stacked_network([(0, 1), (1, 2)], [True, False, True], copies=50)
        cfg = abm.AbmConfig(p_o=0.5, p_m=0.9, gamma=0.3, initial_infected=20)
        state = abm.seed_infection(net, cfg, abm.seeding_stream(3))
        if carried:
            state = abm.step(state, net, cfg, abm.day_key(3, 0))
        else:
            state = abm.AbmState(state.compartment, 0)
        names = ("compartment", "infected", "pressure")
        before = [None if getattr(state, n) is None else getattr(state, n).copy() for n in names]
        out = abm.step(state, net, cfg, abm.day_key(3, 1))
        assert not np.array_equal(out.compartment, state.compartment)  # the day changed something
        assert (state.infected is None) != carried  # a bare state carries nothing
        for name, copy in zip(names, before):
            if copy is None:
                assert getattr(state, name) is None, name
            else:
                assert getattr(state, name).tobytes() == copy.tobytes(), name


class TestOracleAgreement:
    CASES = [
        # (edges, misinformed, initial, gamma)
        ([(0, 1), (1, 2)], [False, False, True], (1, 0, 0), 0.0),
        ([(0, 1), (1, 2)], [False, False, True], (1, 0, 0), 0.2),
        ([(0, 1), (0, 2), (1, 2)], [True, False, False], (1, 0, 0), 0.2),
        ([(0, 1)], [False, True], (1, 0), 0.5),
        ([], [True, False, False], (1, 1, 0), 0.2),
    ]

    def test_step_distribution_matches_enumeration(self):
        total_stochastic = loose = hard = 0
        for i, (edges, mis, init, gamma) in enumerate(self.CASES):
            s, l3, l6 = compare_to_oracle(
                edges, mis, init, p_o=0.5, p_m=1.0, gamma=gamma,
                steps=2, copies=40_000, rep_key=7000 + i,
            )
            total_stochastic += s
            loose += l3
            hard += l6
        assert hard == 0
        assert loose <= max(1, round(0.006 * total_stochastic))


class TestRun:
    def small_net(self):
        rng = np.random.default_rng(5)
        edges = []
        k = 40
        for u in range(k):
            for v in range(u + 1, k):
                if rng.random() < 0.2:
                    edges.append((u, v))
        mis = list(rng.random(k) < 0.5)
        return stacked_network(edges, mis, copies=1)

    def test_single_repetition_has_zero_std(self):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.1, p_m=0.9, gamma=0.3, initial_infected=5,
                            steps=20, repetitions=1)
        res = abm.run(net, cfg, master_seed=3)
        for name in abm.MEASURES:
            assert np.all(res.std(name) == 0.0)

    def test_forced_recovery_keeps_cumulative_at_seeds(self):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.0, p_m=0.0, gamma=1.0, initial_infected=7,
                            steps=10, repetitions=4)
        res = abm.run(net, cfg, master_seed=11)
        assert np.all(res.per_rep["cum"] == 7)
        assert np.all(res.per_rep["prev_I"][:, 1:] == 0)  # everyone recovered after day 1

    def test_identical_master_seed_is_byte_identical(self):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.2, p_m=1.0, gamma=0.2, initial_infected=5,
                            steps=15, repetitions=3)
        a = abm.run(net, cfg, master_seed=42)
        b = abm.run(net, cfg, master_seed=42)
        for name in abm.MEASURES:
            assert np.array_equal(a.per_rep[name], b.per_rep[name])
        assert np.array_equal(a.peak_day, b.peak_day)

    def test_repetitions_differ_from_each_other(self):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.2, p_m=1.0, gamma=0.2, initial_infected=5,
                            steps=15, repetitions=4)
        res = abm.run(net, cfg, master_seed=42)
        assert len({tuple(row) for row in res.per_rep["cum"]}) > 1

    def test_cumulative_non_decreasing_and_bounded(self):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.3, p_m=1.0, gamma=0.2, initial_infected=5,
                            steps=25, repetitions=3)
        res = abm.run(net, cfg, master_seed=1)
        cum = res.per_rep["cum"]
        assert np.all(np.diff(cum, axis=1) >= 0)
        assert cum.max() <= net.n_nodes
        split = res.per_rep["cum_ord"] + res.per_rep["cum_mis"]
        assert np.array_equal(split, cum)

    def test_day_zero_row_reflects_seeding(self):
        net = self.small_net()
        cfg = abm.AbmConfig(initial_infected=6, steps=5, repetitions=2,
                            p_o=0.1, p_m=0.9, gamma=0.5)
        res = abm.run(net, cfg, master_seed=8)
        assert np.all(res.per_rep["new_inf"][:, 0] == 6)
        assert np.all(res.per_rep["prev_I"][:, 0] == 6)
        assert np.all(res.per_rep["cum"][:, 0] == 6)
        assert np.all(res.per_rep["cum_mis"][:, 0] == 6)  # seeds are misinformed

    def test_merge_results_stacks_repetitions(self):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.2, p_m=1.0, gamma=0.2, initial_infected=5,
                            steps=10, repetitions=1)
        parts = [abm.run(net, cfg, master_seed=s) for s in (1, 2, 3)]
        merged = abm.merge_results(parts)
        assert merged.per_rep["cum"].shape == (3, 11)
        assert merged.peak_day.shape == (3,)
        for name in abm.MEASURES:
            assert np.array_equal(merged.per_rep[name][1], parts[1].per_rep[name][0])
        shorter = abm.run(net, replace(cfg, steps=5), master_seed=4)
        with pytest.raises(ValidationError, match="day ranges"):
            abm.merge_results([*parts, shorter])

    def test_result_csv_schema(self, tmp_path):
        net = self.small_net()
        cfg = abm.AbmConfig(p_o=0.2, p_m=1.0, gamma=0.2, initial_infected=5,
                            steps=6, repetitions=2)
        res = abm.run(net, cfg, master_seed=4)
        path = tmp_path / "result.csv"
        abm.write_result_csv(res, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["day", "mean_new_inf", "std_new_inf"]
        assert "mean_cum_mis" in header and "std_prev_I_ord" in header
        assert len(lines) == cfg.steps + 2


def _random_graph(rng, k, density):
    return [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < density]


class TestFrontierMatchesFullScan:
    """``abm.run`` (frontier step, absorbing short-cut, one count per day)
    against `reference_run` (full edge scan every day): equal, not close."""

    def assert_same(self, net, cfg, master_seed):
        got = abm.run(net, cfg, master_seed)
        want = reference_run(net, cfg, master_seed)
        for name in abm.MEASURES:
            assert np.array_equal(got.per_rep[name], want.per_rep[name]), name
        assert np.array_equal(got.peak_day, want.peak_day)
        assert np.array_equal(got.peak_height, want.peak_height)
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_networks(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(10, 120))
        edges = _random_graph(rng, k, float(rng.uniform(0.01, 0.3)))
        mis = list(rng.random(k) < rng.uniform(0.2, 0.8))
        net = stacked_network(edges, mis, copies=int(rng.integers(1, 4)))
        p_o = float(rng.uniform(0.0, 0.5))
        cfg = abm.AbmConfig(
            p_o=p_o, p_m=float(rng.uniform(p_o, 1.0)), gamma=float(rng.uniform(0.05, 0.6)),
            initial_infected=min(3, net.misinformed_count), steps=30, repetitions=3,
        )
        self.assert_same(net, cfg, master_seed=seed)

    def test_early_die_out(self):
        rng = np.random.default_rng(11)
        net = stacked_network(_random_graph(rng, 60, 0.05), list(rng.random(60) < 0.5), copies=1)
        cfg = abm.AbmConfig(p_o=0.05, p_m=0.1, gamma=0.7, initial_infected=2,
                            steps=40, repetitions=4)
        res = self.assert_same(net, cfg, master_seed=5)
        # every repetition is over well before the last day
        assert np.all(res.per_rep["prev_I"][:, 20:] == 0)

    def test_isolated_nodes_without_edges(self):
        net = stacked_network([], [True, False, True, False], copies=10)
        cfg = abm.AbmConfig(p_o=1.0, p_m=1.0, gamma=0.3, initial_infected=4,
                            steps=15, repetitions=3)
        res = self.assert_same(net, cfg, master_seed=2)
        assert np.all(res.per_rep["cum"] == 4)

    def test_all_misinformed(self):
        rng = np.random.default_rng(3)
        net = stacked_network(_random_graph(rng, 50, 0.1), [True] * 50, copies=2)
        cfg = abm.AbmConfig(p_o=0.0, p_m=0.4, gamma=0.2, initial_infected=5,
                            steps=25, repetitions=3)
        res = self.assert_same(net, cfg, master_seed=9)
        assert np.all(res.per_rep["cum_ord"] == 0)

    def test_zero_p_o(self):
        rng = np.random.default_rng(4)
        net = stacked_network(_random_graph(rng, 80, 0.08), list(rng.random(80) < 0.5), copies=1)
        cfg = abm.AbmConfig(p_o=0.0, p_m=0.8, gamma=0.2, initial_infected=4,
                            steps=25, repetitions=3)
        res = self.assert_same(net, cfg, master_seed=13)
        assert np.all(res.per_rep["cum_ord"] == 0)

    def test_certain_recovery(self):
        rng = np.random.default_rng(6)
        net = stacked_network(_random_graph(rng, 80, 0.1), list(rng.random(80) < 0.5), copies=1)
        cfg = abm.AbmConfig(p_o=0.5, p_m=1.0, gamma=1.0, initial_infected=4,
                            steps=20, repetitions=3)
        res = self.assert_same(net, cfg, master_seed=17)
        assert np.all(res.per_rep["prev_I"][:, 1:] == res.per_rep["new_inf"][:, 1:])


class TestUniform:
    """The keyed uniforms, on N = 2^20 consecutive nodes per sample.

    Critical values are fixed from the sample size alone: a chi-square over
    1024 equal bins (1023 degrees of freedom) is held to its upper 5-sigma
    point by the Wilson-Hilferty approximation, and the Pearson correlation
    of two independent N-samples, whose standard deviation is 1/sqrt(N), to
    5/sqrt(N).
    """

    N = 2**20
    BINS = 1024
    Z = 5.0
    KEY = abm.day_key(20240817, 3)

    def sample(self, key=KEY, purpose=abm.INFECT, count=N):
        return abm.uniform(key, np.arange(count), purpose)

    def assert_uncorrelated(self, a, b):
        assert abs(np.corrcoef(a, b)[0, 1]) <= self.Z / math.sqrt(len(a))

    @pytest.mark.parametrize("purpose", [abm.INFECT, abm.RECOVER])
    def test_equal_bins(self, purpose):
        u = self.sample(purpose=purpose)
        counts = np.bincount((u * self.BINS).astype(np.int64), minlength=self.BINS)
        expected = self.N / self.BINS
        chi2 = float(((counts - expected) ** 2).sum() / expected)
        df = self.BINS - 1
        critical = df * (1 - 2 / (9 * df) + self.Z * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 <= critical

    def test_independent_across_purpose(self):
        self.assert_uncorrelated(self.sample(purpose=abm.INFECT), self.sample(purpose=abm.RECOVER))

    def test_independent_across_adjacent_days(self):
        day, next_day = abm.day_key(20240817, 3), abm.day_key(20240817, 4)
        self.assert_uncorrelated(self.sample(key=day), self.sample(key=next_day))

    def test_independent_across_adjacent_nodes(self):
        u = self.sample(count=self.N + 1)
        self.assert_uncorrelated(u[:-1], u[1:])

    def test_replay_of_any_subset_in_any_order(self, rng):
        full = self.sample()
        subset = rng.permutation(self.N)[:5000]
        assert np.array_equal(abm.uniform(self.KEY, subset, abm.INFECT), full[subset])
        assert np.array_equal(abm.uniform(self.KEY, subset[:1], abm.INFECT), full[subset[:1]])

    def test_largest_hash_maps_below_one(self):
        # Invert SplitMix64 to find the node whose hash is 2^64 - 1: its value
        # must be 1 - 2^-53, where a plain division by 2^64 would round to 1.0.
        mod = 1 << 64

        def unshift(y, s):  # inverse of y = x ^ (x >> s)
            x = y
            for _ in range(64 // s):
                x = y ^ (x >> s)
            return x

        z = unshift(mod - 1, 31)
        z = unshift(z * pow(abm._MIX2, -1, mod) % mod, 27)
        z = unshift(z * pow(abm._MIX1, -1, mod) % mod, 30)
        seed = abm._mix64((self.KEY + abm.INFECT * abm._GAMMA) % mod)
        node = ((z - seed) * pow(abm._GAMMA, -1, mod) - 1) % mod
        u = abm.uniform(self.KEY, np.array([node], dtype=np.uint64), abm.INFECT)
        assert u[0] == 1.0 - 2.0**-53 and u[0] < 1.0


class TestMeanFieldConsistency:
    """The ABM against the discrete-time mean-field map of its own law.

    On a complete single-county graph of N nodes with p = beta / N, every
    susceptible sees all I infected nodes, so the ABM's S -> I probability is
    1 - (1 - p)^I and the map S (1 - (1 - p)^I) follows the same law.
    Fixed before the first run: N = 2000, beta = 0.5, gamma = 0.1, 20
    seeds, the first 6 days, 400 repetitions. The rep-mean prevalence must
    lie within 4 standard deviations of the map, the deviation of one run
    taken from the binomial variances (`mean_field_map`) and divided by
    sqrt(reps). The map's own bias against the mean of the chain it
    approximates grows with the fluctuations; a separate simulation of the
    aggregated (S, I) chain put it under a quarter of one such deviation on
    each of these days.
    """

    def test_rep_mean_prevalence_follows_the_map(self):
        n, beta, gamma, seeds, days, reps = 2000, 0.5, 0.1, 20, 6, 400
        p = beta / n
        cfg = abm.AbmConfig(p_o=p, p_m=p, gamma=gamma, initial_infected=seeds,
                            steps=days, repetitions=reps)
        res = abm.run(complete_network(n), cfg, master_seed=2718)
        prevalence, sd = mean_field_map(n, p, gamma, seeds, days)
        deviation = np.abs(res.mean("prev_I")[1:] - prevalence)
        assert np.all(deviation <= 4 * sd / math.sqrt(reps)), (deviation, sd / math.sqrt(reps))
