import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirvar import montecarlo
from sirvar.core import SirParams, default_params
from sirvar.montecarlo import VariationSpec, run_sd_ensemble, sample_params
from sirvar.sd import integrate, weekly_sample


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
        expected = weekly_sample(integrate(base, 105.0), 15)
        assert ens.replicates == 1
        assert ens.matrix[0] == pytest.approx(expected.infected, rel=1e-6)

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

        monkeypatch.setattr(montecarlo, "_sd_replicate", replicate)
        with pytest.raises(ValueError, match=re.escape(f"sigma_fraction * {named}")):
            run_sd_ensemble(base, VariationSpec(*flags, sigma_fraction=sigma), weeks=2,
                            replicates=2, master_seed=1)

    def test_largest_finite_spread_runs(self):
        # 1e308 * 0.065 is finite, so varying infection_prob alone still runs
        spec = VariationSpec(vary_infection=True, sigma_fraction=1e308)
        ens = run_sd_ensemble(default_params(), spec, weeks=2, replicates=2, master_seed=1)
        assert ens.replicates == 2 and ens.clamped_draws == 2

    def test_replicate_errors_are_tagged(self):
        bad = SirParams(population=100, contact_rate=1e6, infection_prob=1.0,
                        illness_duration=0.2, initial_infected=10)
        spec = spec_with(sigma_fraction=1e-6)
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_sd_ensemble(bad, spec, weeks=4, replicates=3, master_seed=99)

    def test_pool_errors_are_tagged(self):
        bad = SirParams(population=100, contact_rate=1e6, infection_prob=1.0,
                        illness_duration=0.2, initial_infected=10)
        spec = spec_with(sigma_fraction=1e-6)
        with pytest.raises(RuntimeError, match="replicate 0 failed: state left the valid region"):
            run_sd_ensemble(bad, spec, weeks=4, replicates=4, master_seed=99, threads=2)

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
