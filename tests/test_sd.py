import math

import numpy as np
import pytest

from sirvar.core import SirParams, Trajectory, attack_fraction, basic_reproduction_number, \
    default_params, derived_rates
from sirvar.sd import HorizonError, StepSizeError, integrate, week_indices, weekly_sample


def rk4_reference(params, steps, dt):
    """Textbook RK4 on the vector (S, I, R) with the SIR right-hand side."""
    a, b = derived_rates(params)

    def rhs(y):
        infection, recovery = a * y[0] * y[1], b * y[1]
        return np.array([-infection, infection - recovery, recovery])

    y = np.array([params.population - params.initial_infected, params.initial_infected, 0.0])
    out = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


class TestDerivatives:
    """The SIR right-hand side, as ``integrate`` applies it."""

    def test_no_infection_pressure(self):
        # a = 0: nobody is infected, S stays exactly where it started
        params = SirParams(population=1000, contact_rate=0.0, infection_prob=0.3,
                           illness_duration=5.0, initial_infected=10)
        traj = integrate(params, horizon_days=30.0, dt=0.1)
        assert np.array_equal(traj.s, np.full(len(traj), 990.0))

    def test_pure_decay(self):
        # a = 0: I(t) = I0 exp(-t / D), to RK4 accuracy (error O(dt^4))
        params = SirParams(population=1000, contact_rate=0.0, infection_prob=0.3,
                           illness_duration=5.0, initial_infected=100)
        traj = integrate(params, horizon_days=30.0, dt=0.1)
        t = np.arange(len(traj)) * 0.1
        assert traj.i == pytest.approx(100.0 * np.exp(-t / 5.0), rel=1e-8)
        assert traj.r == pytest.approx(100.0 - traj.i, abs=1e-9)

    def test_direct_evaluation(self):
        params = SirParams(population=5000, contact_rate=6.0, infection_prob=0.2,
                           illness_duration=3.0, initial_infected=20)
        traj = integrate(params, horizon_days=20.0, dt=0.25)
        assert traj.states == pytest.approx(rk4_reference(params, 80, 0.25), rel=1e-9, abs=1e-9)


def random_params(rng):
    n = int(rng.integers(10, 200_000))
    return SirParams(
        population=n,
        contact_rate=float(rng.uniform(0.0, 20.0)),
        infection_prob=float(rng.uniform(0.0, 1.0)),
        illness_duration=float(rng.uniform(0.5, 30.0)),
        initial_infected=int(rng.integers(0, n + 1)),
    )


class TestIntegrate:
    def test_disease_free_equilibrium(self):
        params = SirParams(population=500, contact_rate=8.0, infection_prob=0.3,
                           illness_duration=3.0, initial_infected=0)
        traj = integrate(params, horizon_days=20.0, dt=0.5)
        assert len(traj) == 41
        assert np.array_equal(traj.states, np.tile([500.0, 0.0, 0.0], (41, 1)))

    def test_no_recovery_limit(self):
        # infinite illness duration means b = 0: S drains, R never grows
        params = SirParams(population=1000, contact_rate=10.0, infection_prob=0.5,
                           illness_duration=math.inf, initial_infected=5)
        traj = integrate(params, horizon_days=400.0, dt=0.1)
        assert np.all(np.diff(traj.s) <= 0.0)
        assert np.array_equal(traj.r, np.zeros(len(traj)))
        assert traj.s[-1] < 1e-3
        assert traj.i[-1] == pytest.approx(1000.0, abs=1e-3)

    def test_initial_condition_and_length(self):
        params = default_params()
        traj = integrate(params, horizon_days=10.0, dt=0.1)
        assert len(traj) == 101
        assert np.array_equal(traj.states[0], [52909.0, 1.0, 0.0])

    def test_peak_matches_analytic_oracle(self):
        # closed-form SIR peak: i_max = i0 + s0 - (1 + ln(r0 s0)) / r0 (fractions)
        params = default_params()
        r0 = basic_reproduction_number(params)
        n = params.population
        s0 = (n - 1) / n
        i0 = 1 / n
        peak_frac = i0 + s0 - (1.0 + math.log(r0 * s0)) / r0
        traj = integrate(params, horizon_days=364.0)
        assert traj.i.max() == pytest.approx(peak_frac * n, rel=1e-3)

    def test_final_size_matches_oracle(self):
        params = default_params()
        r0 = basic_reproduction_number(params)
        traj = integrate(params, horizon_days=364.0)
        ever_infected = traj.r[-1] + traj.i[-1]
        assert ever_infected / params.population == pytest.approx(attack_fraction(r0), abs=1e-3)

    def test_conservation_and_monotonicity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            params = random_params(rng)
            traj = integrate(params, horizon_days=56.0, dt=0.1)
            n = params.population
            total = traj.states.sum(axis=1)
            assert np.abs(total - n).max() <= 1e-6 * n
            assert np.all(np.diff(traj.s) <= 0.0)
            assert np.all(np.diff(traj.r) >= 0.0)
            assert np.all(traj.i >= 0.0)

    def test_subcritical_peak_is_initial(self):
        # R0 < 1: infections only decay
        params = SirParams(population=10_000, contact_rate=1.0, infection_prob=0.05,
                           illness_duration=4.0, initial_infected=50)
        assert basic_reproduction_number(params) < 1.0
        traj = integrate(params, horizon_days=100.0)
        assert traj.i.max() == traj.i[0]

    def test_supercritical_peak_exceeds_initial(self):
        params = default_params()
        assert basic_reproduction_number(params) > 1.0
        traj = integrate(params, horizon_days=364.0)
        assert traj.i.max() > traj.i[0]

    def test_halving_dt_converges(self):
        params = default_params()
        r_coarse = integrate(params, horizon_days=105.0, dt=0.1).r[-1]
        r_fine = integrate(params, horizon_days=105.0, dt=0.05).r[-1]
        assert abs(r_fine - r_coarse) / r_fine < 1e-4

    def test_determinism(self):
        params = default_params()
        a = integrate(params, horizon_days=105.0)
        b = integrate(params, horizon_days=105.0)
        assert np.array_equal(a.states, b.states)

    def test_step_too_large_raises(self):
        params = SirParams(population=100, contact_rate=50.0, infection_prob=1.0,
                           illness_duration=0.2, initial_infected=10)
        with pytest.raises(StepSizeError):
            integrate(params, horizon_days=20.0, dt=2.0)

    def test_dt_larger_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            integrate(default_params(), horizon_days=1.0, dt=2.0)


class TestWeeklySample:
    def test_constant_trajectory(self):
        states = np.tile([0.0, 5.0, 0.0], (106, 1))
        series = weekly_sample(Trajectory(dt=1.0, states=states), weeks=15)
        assert np.array_equal(series.infected, np.full(15, 5.0))

    def test_direct_indexing(self):
        states = np.zeros((15, 3))
        states[:, 1] = np.arange(15.0) / 7.0 * 10.0  # I(day 7) = 10, I(day 14) = 20
        series = weekly_sample(Trajectory(dt=1.0, states=states), weeks=2)
        assert np.array_equal(series.infected, [10.0, 20.0])

    def test_horizon_too_short(self):
        states = np.tile([1.0, 1.0, 0.0], (50, 1))
        with pytest.raises(HorizonError):
            weekly_sample(Trajectory(dt=1.0, states=states), weeks=8)

    def test_misaligned_grid_rejected(self):
        states = np.tile([1.0, 1.0, 0.0], (100, 1))
        with pytest.raises(ValueError):
            weekly_sample(Trajectory(dt=0.3, states=states), weeks=2)

    @pytest.mark.parametrize("dt", [0.3, 0.0, -0.1, 8.0, 14.0])
    def test_week_indices_reject_steps_off_the_week_grid(self, dt):
        with pytest.raises(ValueError, match="dt"):
            week_indices(dt, 2)

    def test_week_indices(self):
        assert week_indices(0.1, 3).tolist() == [70, 140, 210]
        assert week_indices(7.0, 2).tolist() == [1, 2]
        with pytest.raises(ValueError):
            week_indices(0.1, 0)

    def test_peak_week_matches_trajectory_argmax(self):
        params = default_params()
        traj = integrate(params, horizon_days=15 * 7.0)
        series = weekly_sample(traj, weeks=15)
        peak_week_day = 7.0 * (int(np.argmax(series.infected)) + 1)
        peak_day = float(np.argmax(traj.i)) * traj.dt
        assert abs(peak_week_day - peak_day) <= 7.0
