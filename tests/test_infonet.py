import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smirsim import infonet as inet
from smirsim import scenario as scen
from smirsim.errors import ParseError, ValidationError

from conftest import build_infonet, build_scenario
from oracles import brute_force_misinformed, reference_account_layout, reference_infonet

NETWORK_FIELDS = ("ids", "county", "alignment", "seed", "edge_src", "edge_dst", "edge_weight")

# Shares that put share * count exactly on k + 0.5 for some small counts
# (0.5 * 3, 0.25 * 6, 0.375 * 4, ...), where rounding half up matters.
HALF_SHARES = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0)


class TestNetworkValidation:
    def test_rejects_self_edge(self):
        with pytest.raises(ValidationError, match="self-edges"):
            build_infonet(2, [(0, 0, 1)])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError, match="weights"):
            build_infonet(2, [(0, 1, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_infonet(2, [(0, 1, 1), (0, 1, 2)])

    def test_party_from_alignment_sign(self):
        net = build_infonet(4, [], alignment=[0.3, -0.7, 0.0, np.nan])
        assert list(net.party) == [inet.REPUBLICAN, inet.DEMOCRAT, inet.NO_PARTY, inet.NO_PARTY]


class TestSpread:
    def test_phi_one_converts_every_exposed_node(self):
        # seeds 0,1; nodes 2,3 each hear from one seed; 4 hears nothing
        net = build_infonet(5, [(0, 2, 1), (1, 3, 4), (2, 4, 1)], seeds=[0, 1])
        misinformed = inet.spread_misinformation(net, 1)
        assert list(misinformed) == [True, True, True, True, False]

    def test_unreachable_threshold_leaves_only_seeds(self):
        net = build_infonet(5, [(0, 2, 1), (1, 2, 9), (1, 3, 2)], seeds=[0, 1])
        misinformed = inet.spread_misinformation(net, 50)
        assert np.array_equal(misinformed, net.seed)

    def test_distinct_versus_weighted_modes(self):
        # seeds {a=0, b=1}; a->c w3, b->c w1, a->d w5
        net = build_infonet(4, [(0, 2, 3), (1, 2, 1), (0, 3, 5)], seeds=[0, 1])
        distinct = inet.spread_misinformation(net, 2, inet.DISTINCT_FRIENDS)
        assert list(distinct) == [True, True, True, False]
        weighted = inet.spread_misinformation(net, 2, inet.RETWEET_WEIGHTED)
        assert list(weighted) == [True, True, True, True]

    def test_single_pass_does_not_cascade(self):
        # chain seed -> a -> b: a converts, b must not (no iteration)
        net = build_infonet(3, [(0, 1, 1), (1, 2, 1)], seeds=[0])
        misinformed = inet.spread_misinformation(net, 1)
        assert list(misinformed) == [True, True, False]

    def test_exposure_follows_retweet_direction(self):
        # seed 1 retweets 0: edge (0 -> 1); node 0 gets no exposure from it
        net = build_infonet(2, [(0, 1, 1)], seeds=[1])
        misinformed = inet.spread_misinformation(net, 1)
        assert list(misinformed) == [False, True]

    def test_rejects_bad_phi_and_mode(self):
        net = build_infonet(2, [(0, 1, 1)])
        with pytest.raises(ValidationError):
            inet.spread_misinformation(net, 0)
        with pytest.raises(ValidationError):
            inet.spread_misinformation(net, 1, mode="osmosis")

    def test_monotone_in_phi_and_contains_seeds(self, rng):
        for trial in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(0, 4 * n))
            pairs = set()
            while len(pairs) < m:
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    pairs.add((int(a), int(b)))
            edges = [(a, b, int(rng.integers(1, 6))) for a, b in pairs]
            seeds = [i for i in range(n) if rng.random() < 0.2]
            net = build_infonet(n, edges, seeds=seeds)
            for mode in (inet.DISTINCT_FRIENDS, inet.RETWEET_WEIGHTED):
                prev = None
                for phi in range(1, 6):
                    misinformed = inet.spread_misinformation(net, phi, mode)
                    assert np.all(misinformed[net.seed])
                    if prev is not None:
                        assert np.all(prev | ~misinformed)  # shrinking sets
                    prev = misinformed

    def test_matches_brute_force_recount(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 13))
            pairs = set()
            for _ in range(int(rng.integers(0, n * 2))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    pairs.add((int(a), int(b)))
            edges = [(a, b, int(rng.integers(1, 5))) for a, b in pairs]
            seeds = {i for i in range(n) if rng.random() < 0.3}
            net = build_infonet(n, edges, seeds=seeds)
            for phi in range(1, 6):
                for mode, weighted in (
                    (inet.DISTINCT_FRIENDS, False),
                    (inet.RETWEET_WEIGHTED, True),
                ):
                    got = set(np.flatnonzero(inet.spread_misinformation(net, phi, mode)))
                    want = brute_force_misinformed(n, edges, seeds, phi, weighted)
                    assert got == want


class TestAlignmentPropagation:
    def test_fully_scored_network_is_fixed_point(self):
        net = build_infonet(3, [(0, 1, 2), (1, 2, 1)], alignment=[0.5, -0.5, 0.2])
        out = inet.propagate_alignment(net)
        assert np.array_equal(out.alignment, net.alignment)

    def test_path_propagates_one_hop_per_round(self):
        net = build_infonet(3, [(0, 1, 1), (1, 2, 1)], alignment=[1.0, np.nan, np.nan])
        one = inet.propagate_alignment(net, max_rounds=1)
        assert one.alignment[1] == pytest.approx(1.0)
        assert np.isnan(one.alignment[2])
        two = inet.propagate_alignment(net, max_rounds=2)
        assert two.alignment[2] == pytest.approx(1.0)

    def test_star_weighted_average(self):
        # center 0 unscored; leaves +1 (w=3) and -1 (w=1)
        net = build_infonet(
            3, [(1, 0, 3), (2, 0, 1)], alignment=[np.nan, 1.0, -1.0]
        )
        out = inet.propagate_alignment(net)
        assert out.alignment[0] == pytest.approx(0.5)

    def test_neighbors_include_both_directions(self):
        # 0 scored; 1 unscored connected only by an edge 1 -> 0
        net = build_infonet(2, [(1, 0, 2)], alignment=[0.8, np.nan])
        out = inet.propagate_alignment(net)
        assert out.alignment[1] == pytest.approx(0.8)

    def test_unreachable_node_stays_unscored(self):
        net = build_infonet(3, [(0, 1, 1)], alignment=[1.0, np.nan, np.nan])
        out = inet.propagate_alignment(net)
        assert np.isnan(out.alignment[2])
        assert out.party[2] == inet.NO_PARTY

    def test_zero_average_gives_no_party(self):
        net = build_infonet(
            3, [(1, 0, 2), (2, 0, 2)], alignment=[np.nan, 1.0, -1.0]
        )
        out = inet.propagate_alignment(net)
        assert out.alignment[0] == pytest.approx(0.0)
        assert out.party[0] == inet.NO_PARTY

    def test_requires_some_score(self):
        net = build_infonet(2, [(0, 1, 1)], alignment=[np.nan, np.nan])
        with pytest.raises(ValidationError, match="no node has an alignment score"):
            inet.propagate_alignment(net)

    def test_scores_stay_within_convex_hull(self, rng):
        for trial in range(15):
            n = int(rng.integers(4, 25))
            pairs = set()
            for _ in range(3 * n):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    pairs.add((int(a), int(b)))
            edges = [(a, b, int(rng.integers(1, 7))) for a, b in pairs]
            scores = np.where(rng.random(n) < 0.4, rng.uniform(-2, 3, n), np.nan)
            if not np.any(~np.isnan(scores)):
                scores[0] = 1.0
            net = build_infonet(n, edges, alignment=scores)
            out = inet.propagate_alignment(net)
            known = scores[~np.isnan(scores)]
            filled = out.alignment[~np.isnan(out.alignment)]
            assert filled.min() >= known.min() - 1e-12
            assert filled.max() <= known.max() + 1e-12


class TestGenerator:
    def scenario(self):
        return build_scenario(
            voters=[4000, 2500, 1500],
            shares=[0.7, 0.4, 0.5],
            users=[300, 180, 120],
        )

    def test_county_counts_and_party_split(self):
        cfg = inet.InfoGenConfig()
        net = inet.generate_synthetic_infonet(self.scenario(), cfg, rng_seed=1)
        assert net.n_nodes == 600
        counts = {c: int((net.county == c).sum()) for c in (1000, 1001, 1002)}
        assert counts == {1000: 300, 1001: 180, 1002: 120}
        rep = (net.party[net.county == 1000] == inet.REPUBLICAN).mean()
        assert rep == pytest.approx(0.7, abs=0.01)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.sampled_from(HALF_SHARES) | st.floats(0, 1)),
            min_size=1,
            max_size=6,
        ).filter(lambda counties: any(users for users, _ in counties))
    )
    @example([(0, 0.5), (3, 0.5), (0, 0.25), (6, 0.25)])
    def test_account_layout_matches_reference(self, counties):
        users, shares = zip(*counties)
        scenario = build_scenario([100] * len(users), shares=shares, users=users)
        cfg = inet.InfoGenConfig(edges_per_node=1)
        net = inet.generate_synthetic_infonet(scenario, cfg, rng_seed=0)
        county, party = reference_account_layout(scenario)
        assert np.array_equal(net.county, county) and net.county.dtype == np.int64
        assert np.array_equal(net.party, party)

    def test_heavy_tailed_in_degree(self):
        net = inet.generate_synthetic_infonet(self.scenario(), inet.InfoGenConfig(), 3)
        in_deg = np.bincount(net.edge_dst, minlength=net.n_nodes)
        assert in_deg.max() > 10 * max(in_deg.mean(), 1)

    def test_no_seed_rate_means_no_misinformed(self):
        cfg = inet.InfoGenConfig(seed_rate_republican=0.0, seed_rate_democrat=0.0)
        net = inet.generate_synthetic_infonet(self.scenario(), cfg, 5)
        assert net.seed.sum() == 0
        for phi in (1, 3):
            assert not inet.spread_misinformation(net, phi).any()

    def test_full_homophily_keeps_edges_within_party(self):
        cfg = inet.InfoGenConfig(homophily=1.0)
        net = inet.generate_synthetic_infonet(self.scenario(), cfg, 7)
        party = net.party
        assert np.all(party[net.edge_src] == party[net.edge_dst])

    def test_same_seed_is_byte_identical(self):
        cfg = inet.InfoGenConfig()
        a = inet.generate_synthetic_infonet(self.scenario(), cfg, 11)
        b = inet.generate_synthetic_infonet(self.scenario(), cfg, 11)
        assert_same_network(a, b)

    def test_different_seed_differs(self):
        cfg = inet.InfoGenConfig()
        a = inet.generate_synthetic_infonet(self.scenario(), cfg, 11)
        b = inet.generate_synthetic_infonet(self.scenario(), cfg, 12)
        assert not np.array_equal(a.edge_dst, b.edge_dst)

    def test_rejects_bad_config(self):
        with pytest.raises(ValidationError):
            inet.InfoGenConfig(homophily=1.5)
        with pytest.raises(ValidationError):
            inet.InfoGenConfig(edges_per_node=0)


def assert_same_network(a, b):
    for name in NETWORK_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name


class TestGeneratorMatchesLoop:
    """The bulk copy-model resolution against the arrival loop it replaces."""

    @pytest.mark.parametrize("shares", [[0.0] * 4, [1.0] * 4, [0.9, 0.3, 0.5, 0.0]])
    @pytest.mark.parametrize("homophily", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("edges_per_node", [1, 5, 20])
    def test_grid(self, shares, homophily, edges_per_node):
        sc = build_scenario([100] * 4, shares=shares, users=[40, 25, 0, 35])
        cfg = inet.InfoGenConfig(edges_per_node=edges_per_node, homophily=homophily)
        for seed in (0, 1, 2):
            assert_same_network(
                inet.generate_synthetic_infonet(sc, cfg, seed), reference_infonet(sc, cfg, seed)
            )

    @given(
        st.lists(st.tuples(st.integers(0, 15), st.floats(0, 1)), min_size=1, max_size=5)
        .filter(lambda counties: any(users for users, _ in counties)),
        st.integers(1, 8),
        st.floats(0, 1),
        st.integers(0, 2**32),
    )
    def test_random_scenarios(self, counties, edges_per_node, homophily, seed):
        users, shares = zip(*counties)
        sc = build_scenario([100] * len(users), shares=shares, users=users)
        cfg = inet.InfoGenConfig(edges_per_node=edges_per_node, homophily=homophily)
        assert_same_network(
            inet.generate_synthetic_infonet(sc, cfg, seed), reference_infonet(sc, cfg, seed)
        )

    def test_single_account(self):
        sc = build_scenario([100], shares=[1.0], users=[1])
        cfg = inet.InfoGenConfig()
        net = inet.generate_synthetic_infonet(sc, cfg, 4)
        assert net.n_edges == 0
        assert_same_network(net, reference_infonet(sc, cfg, 4))

    def test_default_scenario(self):
        cfg = scen.ScenarioConfig(seed=1)
        sc, net = scen.generate_scenario(cfg)
        assert net.n_nodes == 181_202 and net.n_edges == 870_958
        expected = reference_infonet(sc, cfg.info, scen.derive_seed(1, scen._STREAM_INFONET))
        assert_same_network(net, expected)


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        net = build_infonet(
            4,
            [(0, 1, 3), (2, 3, 1), (1, 3, 2)],
            county=[1000, 1000, 1001, 1001],
            alignment=[0.5, np.nan, -0.25, 0.0],
            seeds=[0],
        )
        inet.save_infonet(net, tmp_path / "n.csv", tmp_path / "e.csv")
        back = inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")
        assert back.ids.dtype == np.int64 and np.array_equal(back.ids, net.ids)
        assert np.array_equal(back.county, net.county)
        assert np.array_equal(back.alignment, net.alignment, equal_nan=True)
        assert np.array_equal(back.seed, net.seed)
        assert np.array_equal(back.edge_weight, net.edge_weight)

    def test_generated_network_round_trips_array_for_array(self, tmp_path):
        _, net = scen.generate_scenario(scen.ScenarioConfig(county_count=4, seed=3))
        inet.save_infonet(net, tmp_path / "n.csv", tmp_path / "e.csv")
        back = inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")
        for name in ("ids", "county", "alignment", "seed", "edge_src", "edge_dst", "edge_weight"):
            want, got = getattr(net, name), getattr(back, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want, equal_nan=name == "alignment"), name

    def test_parse_error_reports_line(self, tmp_path):
        (tmp_path / "n.csv").write_text("id,county_fips,alignment,misinformed_seed\nu1,1000,0.5,0\nu2,oops,,1\n")
        (tmp_path / "e.csv").write_text("src,dst,weight\n")
        with pytest.raises(ParseError, match="n.csv:3"):
            inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_unknown_edge_endpoint_rejected(self, tmp_path):
        (tmp_path / "n.csv").write_text("id,county_fips,alignment,misinformed_seed\nu1,1000,0.5,0\n")
        (tmp_path / "e.csv").write_text("src,dst,weight\nu1,zz,1\n")
        with pytest.raises(ParseError, match="e.csv:2"):
            inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")
