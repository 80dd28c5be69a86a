import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from sirvar import montecarlo
from sirvar.core import SirParams, derived_rates
from sirvar.montecarlo import VariationSpec, run_sd_ensemble, sample_params
from sirvar.sd import MAX_STEPS, integrate, week_indices

from paper_params import default_params


def spec_with(**overrides):
    base = dict(vary_illness=True, sigma_fraction=0.1)
    base.update(overrides)
    return VariationSpec(**base)


class TestVariationSpec:
    def test_requires_at_least_one_flag(self):
        with pytest.raises(ValueError):
            VariationSpec(sigma_fraction=0.1)

    def test_rejects_bad_sigma_and_replicates(self):
        with pytest.raises(ValueError):
            spec_with(sigma_fraction=0.0)
        with pytest.raises(ValueError):
            spec_with(sigma_fraction=-0.1)
        with pytest.raises(ValueError, match="sigma_fraction must be finite, got inf"):
            spec_with(sigma_fraction=math.inf)
        with pytest.raises(ValueError, match="replicates must be >= 1, got 0"):
            run_sd_ensemble(default_params(), spec_with(), weeks=2, replicates=0, master_seed=0)


class TestSampleParams:
    def test_degenerate_sigma_returns_base(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                         sigma_fraction=1e-15)
        sampled, _ = sample_params(base, spec, 99, 3)
        assert sampled.illness_duration == pytest.approx(base.illness_duration, rel=1e-12)
        assert sampled.contact_rate == pytest.approx(base.contact_rate, rel=1e-12)
        assert sampled.infection_prob == pytest.approx(base.infection_prob, rel=1e-12)

    def test_unflagged_parameters_untouched(self):
        base = default_params()
        spec = spec_with(vary_illness=True)
        for r in range(10):
            sampled, _ = sample_params(base, spec, 99, r)
            assert sampled.contact_rate == base.contact_rate
            assert sampled.infection_prob == base.infection_prob
            assert sampled.population == base.population
            assert sampled.initial_infected == base.initial_infected

    def test_draw_distribution(self):
        # 10,000 draws of illness duration: sample mean within 1% of 4.2,
        # sample sd within 5% of 0.42
        base = default_params()
        spec = spec_with(sigma_fraction=0.1)
        draws = np.array([sample_params(base, spec, 2024, r)[0].illness_duration
                          for r in range(10_000)])
        assert draws.mean() == pytest.approx(4.2, rel=0.01)
        assert draws.std(ddof=1) == pytest.approx(0.42, rel=0.05)

    def test_draw_depends_only_on_seed_replicate_param(self):
        base = default_params()
        one = spec_with(vary_illness=True)
        both = spec_with(vary_illness=True, vary_contact=True)
        for r in range(50):
            assert (sample_params(base, one, 5, r)[0].illness_duration
                    == sample_params(base, both, 5, r)[0].illness_duration)

    def test_replicate_index_bounds(self):
        with pytest.raises(ValueError):
            sample_params(default_params(), spec_with(), 99, -1)

    def test_domain_safety_under_huge_sigma(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                         sigma_fraction=5.0)
        for r in range(300):
            sampled, _ = sample_params(base, spec, 1, r)  # construction re-validates
            assert sampled.illness_duration > 0.0
            assert sampled.contact_rate >= 0.0
            assert 0.0 <= sampled.infection_prob <= 1.0

    def test_count_clamped_zero_at_small_sigma(self):
        ens = run_sd_ensemble(default_params(), spec_with(), weeks=2, replicates=100,
                              master_seed=99)
        assert ens.clamped_draws == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_clamped_draws_match_sample_params(self, threads):
        base = default_params()
        spec = VariationSpec(vary_infection=True, sigma_fraction=1000.0)
        expected = sum(sample_params(base, spec, 1, r)[1] for r in range(20))
        assert expected > 0
        ens = run_sd_ensemble(base, spec, weeks=3, replicates=20, master_seed=1, threads=threads)
        assert ens.clamped_draws == expected


class TestEnsemble:
    def test_single_replicate_tiny_sigma_matches_deterministic(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                         sigma_fraction=1e-12)
        ens = run_sd_ensemble(base, spec, weeks=15, replicates=1, master_seed=99)
        rows = week_indices(0.1, 15)
        expected = integrate(base, rows[-1])[rows, 1]
        assert ens.replicates == 1
        assert ens.matrix[0] == pytest.approx(expected, rel=1e-6)

    def test_bit_identical_reruns(self):
        base = default_params()
        spec = spec_with(vary_contact=True)
        a = run_sd_ensemble(base, spec, weeks=8, replicates=16, master_seed=77)
        b = run_sd_ensemble(base, spec, weeks=8, replicates=16, master_seed=77)
        assert np.array_equal(a.matrix, b.matrix)

    def test_thread_count_does_not_change_results(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_infection=True)
        serial = run_sd_ensemble(base, spec, weeks=6, replicates=12, master_seed=31, threads=1)
        parallel = run_sd_ensemble(base, spec, weeks=6, replicates=12, master_seed=31, threads=3)
        assert np.array_equal(serial.matrix, parallel.matrix)

    @pytest.mark.parametrize("flags, sigma, base, named", [
        ((True, True, True), 1e308, default_params(), "illness_duration = 1e+308 * 4.2"),
        ((False, True, False), 1e308, default_params(), "contact_rate = 1e+308 * "),
        ((True, False, False), 0.1, replace(default_params(), illness_duration=math.inf),
         "illness_duration = 0.1 * inf"),
    ])
    def test_spread_that_is_not_finite_fails_before_any_replicate(self, monkeypatch, flags,
                                                                  sigma, base, named):
        def replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(montecarlo, "sample_params", replicate)
        with pytest.raises(ValueError, match=re.escape(f"sigma_fraction * {named}")):
            run_sd_ensemble(base, VariationSpec(*flags, sigma_fraction=sigma), weeks=2,
                            replicates=2, master_seed=1)

    def test_largest_finite_spread_runs(self):
        # 1e308 * 0.065 is finite, so varying infection_prob alone still runs
        spec = VariationSpec(vary_infection=True, sigma_fraction=1e308)
        ens = run_sd_ensemble(default_params(), spec, weeks=2, replicates=2, master_seed=1)
        assert ens.replicates == 2 and ens.clamped_draws == 2

    # c*p = 1e6 needs a step of at most 2.5e-7 days, over MAX_STEPS in 28 days
    TOO_FAST = SirParams(population=100, contact_rate=1e6, infection_prob=1.0,
                         illness_duration=0.2, initial_infected=10)
    TOO_FAST_ERROR = re.escape("replicate 0 failed: 1/D = ") + r"\S+" + re.escape(
        " and c*p = 1000000.0 need a step of at most 2.5e-07 days, and 28 days of it "
        f"are more than MAX_STEPS = {MAX_STEPS} steps")

    def test_replicate_errors_are_tagged(self):
        spec = spec_with(sigma_fraction=1e-6)
        with pytest.raises(RuntimeError, match=self.TOO_FAST_ERROR):
            run_sd_ensemble(self.TOO_FAST, spec, weeks=4, replicates=3, master_seed=99)

    def test_pool_errors_are_tagged(self):
        spec = spec_with(sigma_fraction=1e-6)
        with pytest.raises(RuntimeError, match=self.TOO_FAST_ERROR):
            run_sd_ensemble(self.TOO_FAST, spec, weeks=4, replicates=4, master_seed=99, threads=2)

    def test_too_short_illness_runs_at_a_finer_step(self):
        # sigma 0.71 draws a 0.0087-day illness for replicate 7, and 0.1 / 2**6
        # is the first halving of dt = 0.1 whose step times 1/D is <= 0.25;
        # every other replicate's rates allow dt itself
        base = default_params()
        spec = spec_with(sigma_fraction=0.7109375)
        ens = run_sd_ensemble(base, spec, weeks=3, replicates=8, master_seed=322)
        rows = week_indices(0.1, 3)
        for r in range(8):
            params = sample_params(base, spec, 322, r)[0]
            k = 6 if r == 7 else 0
            rate = max(params.recovery_rate, params.contact_rate * params.infection_prob)
            assert 0.1 / 2**k * rate <= montecarlo._STIFF_LIMIT
            assert k == 0 or 0.1 / 2**(k - 1) * rate > montecarlo._STIFF_LIMIT
            expected = integrate(params, rows[-1] << k, 0.1 / 2**k)[rows << k, 1]
            assert np.array_equal(ens.matrix[r], expected)

    def test_halving_keeps_the_last_week_of_a_dt_just_off_the_grid(self):
        # 105 / dt is 1049.9999999999995, within the week grid's 1e-12 slack
        # at dt; each halving doubles the shortfall, so 105 days of dt / 64
        # hold 67199 whole steps, not 67200.  Replicate 7 steps at dt / 64,
        # where it runs 67200 steps and keeps the rows of dt shifted left by 6.
        dt = 0.10000000000000003
        base = default_params()
        spec = spec_with(sigma_fraction=0.7109375)
        ens = run_sd_ensemble(base, spec, weeks=15, replicates=8, master_seed=322, dt=dt)
        rows = week_indices(dt, 15)
        assert math.floor(105 / (dt / 64) + 1e-12) == (rows[-1] << 6) - 1
        for r in range(8):
            params = sample_params(base, spec, 322, r)[0]
            k = 6 if r == 7 else 0
            expected = integrate(params, rows[-1] << k, dt / 2**k)[rows << k, 1]
            assert np.array_equal(ens.matrix[r], expected)

    def test_other_value_errors_keep_their_message(self, monkeypatch):
        # an error of integrate reaches the caller with the replicate's tag alone
        def boom(params, steps, dt):
            raise ValueError("boom")

        monkeypatch.setattr(montecarlo, "integrate", boom)
        with pytest.raises(RuntimeError, match=r"^replicate 0 failed: boom$"):
            run_sd_ensemble(default_params(), spec_with(), weeks=1, replicates=1,
                            master_seed=5)

    def test_halving_stops_at_the_step_limit(self, monkeypatch):
        tried = []

        def spy(params, steps, dt):
            tried.append((steps, dt))
            return integrate(params, steps, dt)

        monkeypatch.setattr(montecarlo, "integrate", spy)
        # a contact rate of 0 draws 0 and leaves the illness as given
        spec = spec_with(vary_illness=False, vary_contact=True, sigma_fraction=0.1)
        # a 1e-9-day illness needs steps of 2.5e-10 days, and an illness of
        # 5e-324 days an infinite rate; neither runs a step
        for duration, rate, step in [(1e-9, "999999999.9999999", "2.5e-10"),
                                     (5e-324, "inf", "0")]:
            stiff = SirParams(population=100, contact_rate=0.0, infection_prob=0.5,
                              illness_duration=duration, initial_infected=10)
            with pytest.raises(RuntimeError, match=re.escape(
                    f"replicate 0 failed: 1/D = {rate} and c*p = 0.0 need a step of at most "
                    f"{step} days, and 7 days of it are more than MAX_STEPS = {MAX_STEPS} "
                    "steps")):
                run_sd_ensemble(stiff, spec, weeks=1, replicates=1, master_seed=5)
        assert tried == []
        # a 0.06-day illness needs dt / 8 of dt = 0.1, so 70 << 3 steps in a
        # week: they run at a step limit of exactly that many, and not below it
        slow = SirParams(population=100, contact_rate=0.0, infection_prob=0.5,
                         illness_duration=0.06, initial_infected=10)
        monkeypatch.setattr(montecarlo, "MAX_STEPS", 560)
        run_sd_ensemble(slow, spec, weeks=1, replicates=1, master_seed=5)
        assert tried == [(560, 0.1 / 8)]
        monkeypatch.setattr(montecarlo, "MAX_STEPS", 559)
        with pytest.raises(RuntimeError, match="more than MAX_STEPS = 559 steps"):
            run_sd_ensemble(slow, spec, weeks=1, replicates=1, master_seed=5)
        assert len(tried) == 1

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), replicates=st.integers(1, 9),
           flags=st.sampled_from([(True, False, False), (False, True, True), (True, True, True)]),
           sigma=st.floats(0.01, 3.0))
    def test_thread_count_property(self, seed, replicates, flags, sigma):
        spec = VariationSpec(*flags, sigma_fraction=sigma)
        serial = run_sd_ensemble(default_params(), spec, 3, replicates, seed, threads=1)
        pooled = run_sd_ensemble(default_params(), spec, 3, replicates, seed, threads=2)
        assert np.array_equal(serial.matrix, pooled.matrix)
        assert serial.clamped_draws == pooled.clamped_draws

    def test_scenario_ordering_by_spread(self):
        # varying all three parameters spreads weekly outcomes at least as
        # much as varying the least influential one alone
        base = default_params()
        single = run_sd_ensemble(base, spec_with(vary_illness=True), weeks=15,
                                 replicates=40, master_seed=4)
        combined = run_sd_ensemble(
            base, spec_with(vary_illness=True, vary_contact=True, vary_infection=True),
            weeks=15, replicates=40, master_seed=4)
        assert combined.matrix.std(axis=0).sum() > single.matrix.std(axis=0).sum()


def exact_weekly(params: SirParams, weeks: int) -> np.ndarray:
    """Weekly I of the SIR equations from ``solve_ivp`` at rtol 1e-11: Radau
    where a rate is over 5 per day, DOP853 elsewhere."""
    a, b = derived_rates(params)
    stiff = max(b, params.contact_rate * params.infection_prob) > 5.0

    def rhs(t, y):
        x = a * y[0] * y[1]
        return [-x, x - b * y[1]]

    def jac(t, y):
        return [[-a * y[1], -a * y[0]], [a * y[1], a * y[0] - b]]

    days = 7.0 * np.arange(1, weeks + 1)
    i0 = params.initial_infected
    solution = solve_ivp(rhs, (0.0, days[-1]), [params.population - i0, i0],
                         method="Radau" if stiff else "DOP853", t_eval=days,
                         rtol=1e-11, atol=1e-9, **({"jac": jac} if stiff else {}))
    assert solution.success, solution.message
    return solution.y[1]


class TestAccuracy:
    @pytest.mark.parametrize("flags, sigma, dt, initial_infected, seed, replicates", [
        # replicate 128 draws rates that dt = 0.5 steps stably but 42 people off
        ((True, True, True), 0.7109375, 0.5, 10, 11, 200),
        # replicate 7 draws a 0.0087-day illness
        ((True, False, False), 0.7109375, 0.1, 1, 322, 8),
        ((True, True, True), 0.7109375, 0.1, 1, 11, 20),
        ((True, True, True), 0.5, 0.5, 10, 3, 20),
    ])
    def test_every_week_is_within_one_person_of_solve_ivp(self, flags, sigma, dt,
                                                          initial_infected, seed, replicates):
        base = default_params(initial_infected=initial_infected)
        spec = VariationSpec(*flags, sigma_fraction=sigma)
        ens = run_sd_ensemble(base, spec, weeks=15, replicates=replicates, master_seed=seed,
                              dt=dt)
        for r in range(replicates):
            exact = exact_weekly(sample_params(base, spec, seed, r)[0], 15)
            error = np.abs(ens.matrix[r] - exact).max()
            assert error <= 1.0, f"replicate {r} is {error:.3g} people off"
