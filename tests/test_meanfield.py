import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_integrate, reference_rhs

from smirsim import meanfield as mf
from smirsim.errors import NumericError, ValidationError

FIG2 = dict(beta_o=0.3, gamma=0.2, mu=0.5, alpha=0.5, epsilon=0.001)

# Frozen from an independently written scratch integrator (same equations,
# hand-rolled loop): daily Euler, horizon 100.
LAM1_PEAK, LAM3_PEAK = 59, 21
LAM1_CUM = 0.577028684838576
LAM3_CUM = 0.8599954420073654
EULER_DAY10_LAM3 = [
    0.4893344439826887, 0.007000882310484843, 0.0036646737068264964,
    0.46951384921446837, 0.020468051792670652, 0.010018098992860904,
]
RK4_DAY10_LAM3 = [
    0.4810829470281832, 0.012336041797692505, 0.006581011174124482,
    0.4462609678782966, 0.03527477942509944, 0.01846425269660378,
]


class TestParams:
    def test_derived_quantities(self):
        p = mf.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=3.0)
        assert p.beta_m == pytest.approx(0.9)
        assert p.tau == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "kwargs",  # the rejected parameter first
        [
            dict(beta_o=0.0, gamma=0.2),
            dict(gamma=0.0, beta_o=0.3),
            dict(lam=0.5, beta_o=0.3, gamma=0.2),
            dict(alpha=0.4, beta_o=0.3, gamma=0.2),
            dict(alpha=1.1, beta_o=0.3, gamma=0.2),
            dict(mu=-0.1, beta_o=0.3, gamma=0.2),
            dict(epsilon=1.5, beta_o=0.3, gamma=0.2),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError, match=f"^{next(iter(kwargs))}.* must be"):
            mf.MeanFieldParams(**kwargs)

    def test_r0(self):
        assert mf.r0(mf.MeanFieldParams(beta_o=0.3, gamma=0.2)) == pytest.approx(1.5)
        assert mf.r0(mf.MeanFieldParams(beta_o=0.2, gamma=0.2)) == pytest.approx(1.0)
        assert mf.r0(mf.MeanFieldParams(beta_o=0.02, gamma=0.2)) == pytest.approx(0.1)


class TestInitialState:
    def test_split_seeding(self):
        s = mf.initial_state(mf.MeanFieldParams(**FIG2))
        assert s == pytest.approx((0.4995, 0.0005, 0.0, 0.4995, 0.0005, 0.0))

    def test_all_ordinary_no_infection(self):
        s = mf.initial_state(mf.MeanFieldParams(beta_o=0.3, gamma=0.2, mu=1.0, epsilon=0.0))
        assert s.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_uneven_groups(self):
        s = mf.initial_state(mf.MeanFieldParams(beta_o=0.3, gamma=0.2, mu=0.3, epsilon=0.01))
        assert s == pytest.approx((0.295, 0.005, 0.0, 0.695, 0.005, 0.0))

    def test_degenerate_mu_reassigns_seed(self):
        s = mf.initial_state(mf.MeanFieldParams(beta_o=0.3, gamma=0.2, mu=0.0, epsilon=0.002))
        assert s == pytest.approx((0.0, 0.0, 0.0, 0.998, 0.002, 0.0))

    def test_overdrawn_group_rejected(self):
        with pytest.raises(ValidationError, match="overdraws a group"):
            mf.initial_state(mf.MeanFieldParams(beta_o=0.3, gamma=0.2, mu=0.0001, epsilon=0.001))

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
    def test_is_the_first_row_of_a_trajectory(self, mu):
        p = mf.MeanFieldParams(beta_o=0.3, gamma=0.2, mu=mu, epsilon=0.01)
        s = mf.initial_state(p)
        assert s.dtype == np.float64 and s.shape == (6,)
        assert s.tolist() == mf.integrate(p).states[0].tolist()


class TestDerivatives:
    def test_disease_free_equilibrium(self):
        p = mf.MeanFieldParams(**FIG2)
        state = (0.5, 0.0, 0.0, 0.4, 0.0, 0.1)
        assert mf.derivatives(state, p) == pytest.approx([0.0] * 6, abs=0.0)

    def test_hand_computed_values(self):
        # Hand-evaluated from the homophily-free form at the canonical
        # initial condition, beta_o=0.3, lam=3, gamma=0.2.
        p = mf.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=3.0)
        d = mf.derivatives(mf.initial_state(p), p)
        assert d[mf.S_O] == pytest.approx(-1.4985e-4, rel=1e-12)
        assert d[mf.S_M] == pytest.approx(-4.4955e-4, rel=1e-12)
        assert d[mf.I_O] == pytest.approx(4.985e-5, rel=1e-12)

    def test_reduction_at_half_alpha(self, rng):
        # With alpha = 0.5 the homophily form collapses to beta * S * (I_O + I_M).
        p = mf.MeanFieldParams(beta_o=0.37, gamma=0.21, lam=2.3, alpha=0.5)
        for _ in range(200):
            state = rng.dirichlet(np.ones(6))
            s_o, i_o, _, s_m, i_m, _ = state
            d = mf.derivatives(state, p)
            f_o = p.beta_o * s_o * (i_o + i_m)
            f_m = p.beta_m * s_m * (i_o + i_m)
            expect = [-f_o, f_o - p.gamma * i_o, p.gamma * i_o,
                      -f_m, f_m - p.gamma * i_m, p.gamma * i_m]
            assert np.max(np.abs(d - np.array(expect))) <= 1e-15

    def test_derivatives_sum_to_zero(self, rng):
        p = mf.MeanFieldParams(beta_o=0.4, gamma=0.25, lam=1.7, alpha=0.8)
        for _ in range(100):
            state = rng.dirichlet(np.ones(6))
            assert abs(mf.derivatives(state, p).sum()) < 1e-12


class TestIntegrate:
    def test_lambda_peaks_match_reference(self):
        t1 = mf.integrate(mf.MeanFieldParams(lam=1.0, **FIG2))
        t3 = mf.integrate(mf.MeanFieldParams(lam=3.0, **FIG2))
        assert int(np.argmax(t1.infected)) == LAM1_PEAK
        assert int(np.argmax(t3.infected)) == LAM3_PEAK

    def test_matches_frozen_oracle_states(self):
        p = mf.MeanFieldParams(lam=3.0, **FIG2)
        t_euler = mf.integrate(p, horizon=10)
        assert t_euler.states[10] == pytest.approx(EULER_DAY10_LAM3, rel=1e-12)
        t_rk4 = mf.integrate(p, horizon=10, method="rk4")
        assert t_rk4.states[10] == pytest.approx(RK4_DAY10_LAM3, rel=1e-9)

    def test_subcritical_epidemic_stays_small(self):
        p = mf.MeanFieldParams(beta_o=0.1, gamma=0.2, lam=1.0)
        traj = mf.integrate(p, horizon=150)
        assert traj.ever_infected[-1] < 0.01

    def test_trajectory_shape_and_initial_row(self):
        p = mf.MeanFieldParams(**FIG2)
        traj = mf.integrate(p, horizon=30)
        assert traj.states.shape == (31, 6)
        assert traj.states[0] == pytest.approx(mf.initial_state(p))

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_conservation_per_group(self, method):
        p = mf.MeanFieldParams(lam=3.0, **FIG2)
        s = mf.integrate(p, horizon=100, method=method).states
        ord_sum = s[:, :3].sum(axis=1)
        mis_sum = s[:, 3:].sum(axis=1)
        assert np.abs(ord_sum - p.mu).max() < 1e-9
        assert np.abs(mis_sum - (1 - p.mu)).max() < 1e-9

    def test_symmetry_of_exchangeable_groups(self):
        p = mf.MeanFieldParams(lam=1.0, **FIG2)
        s = mf.integrate(p, horizon=100).states
        assert np.abs(s[:, :3] - s[:, 3:]).max() < 1e-12

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_monotone_compartments(self, method):
        p = mf.MeanFieldParams(lam=3.0, **FIG2)
        s = mf.integrate(p, horizon=100, method=method).states
        for col in (mf.S_O, mf.S_M):
            assert np.all(np.diff(s[:, col]) <= 1e-12)
        for col in (mf.R_O, mf.R_M):
            assert np.all(np.diff(s[:, col]) >= -1e-12)

    def test_rk4_step_halving_converged(self):
        p = mf.MeanFieldParams(lam=3.0, **FIG2)
        a = mf.integrate(p, horizon=150, dt=0.01, method="rk4").states
        b = mf.integrate(p, horizon=150, dt=0.005, method="rk4").states
        assert np.abs(a - b).max() < 1e-8

    def test_rejects_bad_steps(self):
        p = mf.MeanFieldParams(**FIG2)
        with pytest.raises(ValidationError, match="dt=0.3 does not divide one day"):
            mf.integrate(p, dt=0.3)
        with pytest.raises(ValidationError, match="horizon must be >= 1"):
            mf.integrate(p, horizon=0)
        with pytest.raises(ValidationError, match="unknown method 'leapfrog'"):
            mf.integrate(p, method="leapfrog")
        with pytest.raises(ValidationError, match="dt=1e-05"):  # 100,000 steps a day
            mf.integrate(p, horizon=1, dt=1e-5)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_batch_rows_equal_single_runs(self, method):
        batch = [
            mf.MeanFieldParams(lam=3.0, **FIG2),
            mf.MeanFieldParams(beta_o=0.5, gamma=0.1, lam=1.5, mu=0.3, alpha=0.9),
            mf.MeanFieldParams(beta_o=0.2, gamma=0.25, mu=1.0),
        ]
        trajs = mf.integrate_many(batch, horizon=30, method=method)
        for p, traj in zip(batch, trajs):
            assert traj.params == p
            assert np.array_equal(traj.states, mf.integrate(p, 30, method=method).states)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError, match="no parameter sets"):
            mf.integrate_many([])

    def test_euler_blowup_raises(self):
        with pytest.raises(NumericError, match=r"compartment left \[0, 1\]"):
            mf.integrate(mf.MeanFieldParams(beta_o=2.0, gamma=0.2), horizon=50, method="euler")


@st.composite
def mf_params(draw, max_beta=3.0, max_gamma=2.0, max_lam=6.0):
    """Valid parameters, edges included: alpha in {0.5, 1}, mu in {0, 1}, epsilon 0."""
    return mf.MeanFieldParams(
        beta_o=draw(st.floats(0.01, max_beta)),
        gamma=draw(st.floats(0.01, max_gamma)),
        lam=draw(st.floats(1.0, max_lam)),
        mu=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)),
        alpha=draw(st.sampled_from([0.5, 1.0]) | st.floats(0.5, 1.0)),
        epsilon=draw(st.just(0.0) | st.floats(0.0, 0.09)),
    )


def integrated_or_error(integrate, batch, horizon, dt, method):
    """The (rows, horizon + 1, 6) states as uint64 bits, or the error text."""
    try:
        return integrate(batch, horizon, dt, method).view(np.uint64).tolist()
    except NumericError as e:
        return str(e)


def states_of(batch, horizon, dt, method):
    return np.array([t.states for t in mf.integrate_many(batch, horizon, dt, method)])


class TestAgainstReferenceLoop:
    """The in-place compartment-major stepping equals the plain packed loop
    of tests/oracles.py bit for bit, and fails on the same row and day."""

    @settings(max_examples=150)
    @given(st.lists(mf_params(), min_size=1, max_size=40), st.sampled_from(["euler", "rk4"]),
           st.sampled_from([1.0, 0.5, 0.1, 0.01]), st.integers(1, 3))
    def test_integrate_many_is_bit_identical(self, batch, method, dt, horizon):
        assert integrated_or_error(states_of, batch, horizon, dt, method) == \
            integrated_or_error(reference_integrate, batch, horizon, dt, method)

    # Daily Euler keeps these rows in [0, 1]: 2 beta_m <= 0.9 and gamma <= 1.
    @settings(max_examples=50)
    @given(st.lists(mf_params(max_beta=0.3, max_gamma=1.0, max_lam=1.5), max_size=10), st.data())
    def test_a_diverging_row_raises_the_reference_error(self, stable, data):
        diverging = mf.MeanFieldParams(beta_o=2.0, gamma=0.2, lam=data.draw(st.floats(1.0, 3.0)))
        batch = list(stable)
        batch.insert(data.draw(st.integers(0, len(batch))), diverging)
        with pytest.raises(NumericError, match="compartment left") as got:
            mf.integrate_many(batch, 50, 1.0, "euler")
        with pytest.raises(NumericError, match="compartment left") as expected:
            reference_integrate(batch, 50, 1.0, "euler")
        assert str(got.value) == str(expected.value)
        assert f"for {diverging} " in str(got.value)

    @given(st.lists(st.floats(-1.0, 2.0), min_size=6, max_size=6), mf_params())
    def test_derivatives_are_bit_identical(self, values, p):
        state = np.array(values)
        expected = reference_rhs(state, p.beta_o, p.beta_m, p.gamma, p.alpha)
        assert mf.derivatives(state, p).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestSummarize:
    def test_attack_rate_difference(self):
        s1 = mf.summarize(mf.integrate(mf.MeanFieldParams(lam=1.0, **FIG2)))
        s3 = mf.summarize(mf.integrate(mf.MeanFieldParams(lam=3.0, **FIG2)))
        assert s1.peak_day == LAM1_PEAK
        assert s3.peak_day == LAM3_PEAK
        assert s1.total_infected == pytest.approx(LAM1_CUM, rel=1e-12)
        assert s3.total_infected == pytest.approx(LAM3_CUM, rel=1e-12)
        assert s3.total_infected - s1.total_infected == pytest.approx(0.292, abs=0.015)

    def test_no_transmission_counts_only_seeds(self):
        # Seeds recover with nothing new: total ever infected stays epsilon.
        p = mf.MeanFieldParams(**FIG2)
        eps = p.epsilon
        days = 5
        states = np.zeros((days + 1, 6))
        i = eps / 2
        r = 0.0
        for d in range(days + 1):
            states[d] = [p.mu - eps / 2, i, r, 1 - p.mu - eps / 2, i, r]
            moved = 0.5 * i
            i, r = i - moved, r + moved
        traj = mf.Trajectory(params=p, dt=1.0, horizon=days, method="euler", states=states)
        s = mf.summarize(traj)
        assert s.total_infected == pytest.approx(eps)
        assert s.peak_day == 0

    def test_peak_on_monotone_prefix_is_global_max(self):
        p = mf.MeanFieldParams(**FIG2)
        states = np.zeros((4, 6))
        states[:, mf.I_O] = [0.1, 0.2, 0.3, 0.3]  # tie broken to first day
        traj = mf.Trajectory(params=p, dt=1.0, horizon=3, method="euler", states=states)
        assert mf.summarize(traj).peak_day == 2

    def test_per_group_fields(self):
        s = mf.summarize(mf.integrate(mf.MeanFieldParams(lam=3.0, **FIG2)))
        assert s.total_infected == pytest.approx(
            s.total_infected_ordinary + s.total_infected_misinformed
        )
        assert s.peak_day_misinformed <= s.peak_day_ordinary
        assert s.peak_infected_misinformed > s.peak_infected_ordinary


class TestSweep:
    def test_single_value_equals_plain_integrate(self):
        p = mf.MeanFieldParams(**FIG2)
        rows = mf.sweep(p, "lambda", [1.0])
        assert len(rows) == 1
        assert mf.summarize(rows[0][1]) == mf.summarize(mf.integrate(p))

    def test_lambda_monotone_total(self):
        p = mf.MeanFieldParams(**FIG2)
        rows = mf.sweep(p, "lambda", [1.0, 1.5, 2.0, 2.5, 3.0])
        totals = [mf.summarize(t).total_infected for _, t in rows]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_threshold_behavior(self):
        p = mf.MeanFieldParams(**FIG2)
        rows = mf.sweep(p, "beta_o", [0.1, 0.18, 0.3], horizon=150)
        rows = {v: mf.summarize(t) for v, t in rows}
        eps = p.epsilon
        assert rows[0.1].total_infected - eps < 0.01   # R0 = 0.5
        assert rows[0.18].total_infected - eps < 0.01  # R0 = 0.9
        assert rows[0.3].total_infected - eps > 0.10   # R0 = 1.5

    def test_tau_sweep_sets_gamma(self):
        p = mf.MeanFieldParams(**FIG2)
        rows = mf.sweep(p, "tau", [2.0, 5.0, 10.0])
        totals = [mf.summarize(t).total_infected for _, t in rows]
        assert totals[0] < totals[1] < totals[2]  # longer infectious period, worse

    def test_alpha_sweep_misinformed_monotone_low_beta(self):
        p = mf.MeanFieldParams(beta_o=0.1, gamma=0.2, lam=3.0, mu=0.5, epsilon=0.001)
        rows = mf.sweep(p, "alpha", list(np.linspace(0.5, 1.0, 11)), method="rk4")
        mis = [mf.summarize(t).total_infected_misinformed for _, t in rows]
        assert all(b >= a - 1e-12 for a, b in zip(mis, mis[1:]))

    def test_alpha_full_separation_shields_at_high_beta(self):
        p = mf.MeanFieldParams(beta_o=0.4, gamma=0.2, lam=3.0, mu=0.5, epsilon=0.001)
        rows = {v: mf.summarize(t) for v, t in mf.sweep(p, "alpha", [0.5, 1.0], method="rk4")}
        assert rows[1.0].total_infected < rows[0.5].total_infected

    def test_sweep_error_names_value(self):
        p = mf.MeanFieldParams(**FIG2)
        with pytest.raises(NumericError, match="compartment left .*beta_o=4"):
            mf.sweep(p, "beta_o", [0.3, 4.0])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError, match="cannot sweep 'gamma'"):
            mf.sweep(mf.MeanFieldParams(**FIG2), "gamma", [0.1])


class TestGrid:
    def test_grid_shapes_and_group_normalization(self):
        p = mf.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=3.0)
        grid = mf.sweep_grid(p, alphas=[0.5, 0.75, 1.0], beta_os=[0.1, 0.4], method="rk4")
        assert grid.overall.shape == (2, 3)
        # Group surfaces are attack rates within the group.
        assert grid.overall == pytest.approx(
            0.5 * grid.ordinary + 0.5 * grid.misinformed
        )
        assert np.all(grid.misinformed <= 1.0 + 1e-9)

    def test_argmax_marks_interior_peak(self):
        p = mf.MeanFieldParams(beta_o=0.3, gamma=0.2, lam=3.0)
        alphas = list(np.linspace(0.5, 1.0, 21))
        grid = mf.sweep_grid(p, alphas=alphas, beta_os=[0.14], method="rk4")
        assert 0.5 < grid.argmax_alpha[0] < 1.0
