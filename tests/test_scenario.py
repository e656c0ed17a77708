import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from smirsim import scenario as sc
from smirsim.errors import ParseError, ValidationError

from conftest import build_scenario


def write_fixture(tmp_path, counties, mobility_rows):
    cpath = tmp_path / "counties.csv"
    mpath = tmp_path / "mobility.csv"
    cpath.write_text(
        "fips,voters,republican_share,twitter_users\n"
        + "".join(f"{r}\n" for r in counties)
    )
    mpath.write_text("x_fips,y_fips,value\n" + "".join(f"{r}\n" for r in mobility_rows))
    return cpath, mpath


class TestLoad:
    def test_well_formed_two_county_fixture(self, tmp_path):
        cpath, mpath = write_fixture(
            tmp_path,
            ["1001,5000,0.6,300", "1002,3000,0.4,250"],
            ["1001,1001,40.0", "1001,1002,6.0", "1002,1002,25.0"],
        )
        s = sc.load_scenario(cpath, mpath)
        assert s.n_counties == 2
        assert s.voters.tolist() == [5000, 3000]
        assert s.mobility[0, 1] == pytest.approx(6.0)
        assert s.mobility[1, 0] == pytest.approx(6.0)

    def test_negative_population_cites_row(self, tmp_path):
        cpath, mpath = write_fixture(
            tmp_path, ["1001,5000,0.6,300", "1002,-3,0.4,250"], ["1001,1001,1.0"]
        )
        with pytest.raises(ValidationError, match=":3"):
            sc.load_scenario(cpath, mpath)

    def test_share_out_of_range_rejected(self, tmp_path):
        cpath, mpath = write_fixture(tmp_path, ["1001,5000,1.6,300"], ["1001,1001,1.0"])
        with pytest.raises(ValidationError, match="republican_share"):
            sc.load_scenario(cpath, mpath)

    def test_parse_error_has_line_number(self, tmp_path):
        cpath, mpath = write_fixture(
            tmp_path, ["1001,5000,0.6,300", "1002,many,0.4,250"], ["1001,1001,1.0"]
        )
        with pytest.raises(ParseError, match="counties.csv:3"):
            sc.load_scenario(cpath, mpath)

    def test_unknown_mobility_county_rejected(self, tmp_path):
        cpath, mpath = write_fixture(tmp_path, ["1001,5000,0.6,300"], ["1001,9999,1.0"])
        with pytest.raises(ParseError, match="mobility.csv:2"):
            sc.load_scenario(cpath, mpath)

    def test_small_asymmetry_symmetrized_quietly(self, tmp_path):
        cpath, mpath = write_fixture(
            tmp_path,
            ["1001,5000,0.6,300", "1002,3000,0.4,250"],
            ["1001,1001,100.0", "1001,1002,10.0", "1002,1001,10.05", "1002,1002,50.0"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sc.load_scenario(cpath, mpath)
        assert s.mobility[0, 1] == pytest.approx(10.025)

    def test_large_asymmetry_warns(self, tmp_path):
        cpath, mpath = write_fixture(
            tmp_path,
            ["1001,5000,0.6,300", "1002,3000,0.4,250"],
            ["1001,1001,100.0", "1001,1002,10.0", "1002,1001,20.0", "1002,1002,50.0"],
        )
        with pytest.warns(UserWarning, match="asymmetry"):
            s = sc.load_scenario(cpath, mpath)
        assert s.mobility[0, 1] == pytest.approx(15.0)

    def test_duplicate_county_rejected(self, tmp_path):
        cpath, mpath = write_fixture(
            tmp_path, ["1001,5000,0.6,300", "1001,1,0.5,10"], ["1001,1001,1.0"]
        )
        with pytest.raises(ValidationError, match="unique"):
            sc.load_scenario(cpath, mpath)


class TestMobilityChecks:
    @pytest.mark.parametrize("mobility, message", [
        (np.ones((2, 3)), r"mobility shape \(2, 3\) does not match 2 counties"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "mobility entries must be finite"),
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), "mobility entries must be nonnegative"),
        (np.array([[1.0, 2.0], [3.0, 1.0]]), "mobility matrix must be symmetric"),
        (np.zeros((2, 2)), "mobility matrix needs at least one positive entry"),
    ], ids=["shape", "nan", "negative", "asymmetric", "all zero"])
    def test_scenario_rejects_mobility(self, mobility, message):
        with pytest.raises(ValidationError, match=message):
            build_scenario([100, 200], mobility=mobility)


class TestScenarioChecks:
    def test_rejects_no_counties(self):
        with pytest.raises(ValidationError, match="at least one county"):
            build_scenario([])

    @pytest.mark.parametrize("kwargs, name", [
        (dict(shares=[0.5]), "republican_share"), (dict(users=[10, 10, 10]), "twitter_users"),
    ])
    def test_rejects_county_array_of_another_length(self, kwargs, name):
        with pytest.raises(ValidationError, match=f"{name} length does not match county count"):
            build_scenario([100, 200], **kwargs)

    def test_rejects_voters_of_another_length(self):
        scenario = build_scenario([100, 200])
        with pytest.raises(ValidationError, match="voters length does not match county count"):
            replace(scenario, voters=scenario.voters[:1])

    def test_rejects_negative_voters(self):
        with pytest.raises(ValidationError, match="voter populations must be nonnegative"):
            build_scenario([100, -1])


class TestRoundTrip:
    def test_nan_share_is_not_a_scenario(self):
        # It would be saved as an empty cell, which no loader reads back.
        with pytest.raises(ValidationError, match="republican_share"):
            build_scenario([100], shares=[np.nan])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = sc.ScenarioConfig(county_count=5, seed=3)
        generated, _ = sc.generate_scenario(cfg)
        c1, m1 = tmp_path / "c1.csv", tmp_path / "m1.csv"
        sc.save_scenario(generated, c1, m1)
        loaded = sc.load_scenario(c1, m1)
        c2, m2 = tmp_path / "c2.csv", tmp_path / "m2.csv"
        sc.save_scenario(loaded, c2, m2)
        assert c1.read_bytes() == c2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_generated_scenario_passes_loader_validation(self, tmp_path):
        generated, _ = sc.generate_scenario(sc.ScenarioConfig(county_count=7, seed=11))
        sc.save_scenario(generated, tmp_path / "c.csv", tmp_path / "m.csv")
        loaded = sc.load_scenario(tmp_path / "c.csv", tmp_path / "m.csv")
        assert loaded.n_counties == 7
        assert np.allclose(loaded.mobility, generated.mobility)


class TestGenerate:
    def test_deterministic_under_seed(self):
        a_s, a_n = sc.generate_scenario(sc.ScenarioConfig(county_count=6, seed=9))
        b_s, b_n = sc.generate_scenario(sc.ScenarioConfig(county_count=6, seed=9))
        assert np.array_equal(a_s.voters, b_s.voters)
        assert np.array_equal(a_s.mobility, b_s.mobility)
        assert np.array_equal(a_n.edge_dst, b_n.edge_dst)

    def test_single_county_is_all_diagonal(self):
        s, _ = sc.generate_scenario(sc.ScenarioConfig(county_count=1, seed=2))
        assert s.mobility.shape == (1, 1)
        assert s.mobility[0, 0] > 0

    def test_default_shape(self):
        cfg = sc.ScenarioConfig(seed=1)
        s, net = sc.generate_scenario(cfg)
        assert s.n_counties == 341
        assert int(s.twitter_users.min()) >= 200
        assert net.n_nodes == int(s.twitter_users.sum())

    def test_county_twitter_counts_respected_by_infonet(self):
        s, net = sc.generate_scenario(sc.ScenarioConfig(county_count=4, seed=5))
        for i, fips in enumerate(s.county_ids):
            assert int((net.county == fips).sum()) == int(s.twitter_users[i])


class TestConfigFile:
    def test_parse_flat_key_values(self, tmp_path):
        values = {
            "county_count": 12, "pop_median": 8000.0, "pop_sigma": 0.5, "share_alpha": 3.0,
            "share_beta": 1.5, "twitter_user_rate": 0.05, "twitter_users_min": 50,
            "gravity_exponent": 1.5, "edges_per_node": 3, "homophily": 0.9,
            "seed_rate_republican": 0.1, "seed_rate_democrat": 0.04, "retweet_weight_p": 0.25,
        }
        p = tmp_path / "cfg.txt"
        p.write_text("# synthetic run\n" + "".join(f"{k} = {v:g}\n" for k, v in values.items()))
        cfg = sc.parse_scenario_config(p)
        # Every field but seed is a key, and each key, set off its default, reaches its field.
        assert {f.name for f in fields(cfg)} == values.keys() | {"seed"}
        for key, value in values.items():
            assert getattr(sc.ScenarioConfig, key) != value, key
            assert getattr(cfg, key) == value and type(getattr(cfg, key)) is type(value), key
        assert cfg.seed == 0

    def test_unknown_key_rejected_with_line(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("county_count = 12\nflux_capacitance = 9\n")
        with pytest.raises(ParseError, match="cfg.txt:2"):
            sc.parse_scenario_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("county_count = dozens\n")
        with pytest.raises(ParseError):
            sc.parse_scenario_config(p)
