import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirvar.core import SirParams, default_params
from sirvar.montecarlo import VariationSpec, run_sd_ensemble, sample_params
from sirvar.sd import integrate, weekly_sample


def spec_with(**overrides):
    base = dict(vary_illness=True, sigma_fraction=0.1, replicates=10, master_seed=99)
    base.update(overrides)
    return VariationSpec(**base)


class TestVariationSpec:
    def test_requires_at_least_one_flag(self):
        with pytest.raises(ValueError):
            VariationSpec(sigma_fraction=0.1, replicates=10)

    def test_rejects_bad_sigma_and_replicates(self):
        with pytest.raises(ValueError):
            spec_with(sigma_fraction=0.0)
        with pytest.raises(ValueError):
            spec_with(sigma_fraction=-0.1)
        with pytest.raises(ValueError, match="sigma_fraction must be finite, got inf"):
            spec_with(sigma_fraction=math.inf)
        with pytest.raises(ValueError):
            spec_with(replicates=0)


class TestSampleParams:
    def test_degenerate_sigma_returns_base(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                         sigma_fraction=1e-15)
        sampled, _ = sample_params(base, spec, 3)
        assert sampled.illness_duration == pytest.approx(base.illness_duration, rel=1e-12)
        assert sampled.contact_rate == pytest.approx(base.contact_rate, rel=1e-12)
        assert sampled.infection_prob == pytest.approx(base.infection_prob, rel=1e-12)

    def test_unflagged_parameters_untouched(self):
        base = default_params()
        spec = spec_with(vary_illness=True)
        for r in range(spec.replicates):
            sampled, _ = sample_params(base, spec, r)
            assert sampled.contact_rate == base.contact_rate
            assert sampled.infection_prob == base.infection_prob
            assert sampled.population == base.population
            assert sampled.initial_infected == base.initial_infected

    def test_draw_distribution(self):
        # 10,000 draws of illness duration: sample mean within 1% of 4.2,
        # sample sd within 5% of 0.42
        base = default_params()
        spec = spec_with(replicates=10_000, sigma_fraction=0.1, master_seed=2024)
        draws = np.array([sample_params(base, spec, r)[0].illness_duration
                          for r in range(spec.replicates)])
        assert draws.mean() == pytest.approx(4.2, rel=0.01)
        assert draws.std(ddof=1) == pytest.approx(0.42, rel=0.05)

    def test_draw_depends_only_on_seed_replicate_param(self):
        base = default_params()
        one = spec_with(vary_illness=True, replicates=50, master_seed=5)
        both = spec_with(vary_illness=True, vary_contact=True, replicates=50, master_seed=5)
        for r in range(50):
            assert (sample_params(base, one, r)[0].illness_duration
                    == sample_params(base, both, r)[0].illness_duration)

    def test_replicate_index_bounds(self):
        with pytest.raises(ValueError):
            sample_params(default_params(), spec_with(replicates=5), 5)
        with pytest.raises(ValueError):
            sample_params(default_params(), spec_with(replicates=5), -1)

    def test_domain_safety_under_huge_sigma(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                         sigma_fraction=5.0, replicates=300, master_seed=1)
        for r in range(spec.replicates):
            sampled, _ = sample_params(base, spec, r)  # construction re-validates
            assert sampled.illness_duration > 0.0
            assert sampled.contact_rate >= 0.0
            assert 0.0 <= sampled.infection_prob <= 1.0

    def test_count_clamped_zero_at_small_sigma(self):
        ens = run_sd_ensemble(default_params(), spec_with(replicates=100), weeks=2)
        assert ens.clamped_draws == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_clamped_draws_match_sample_params(self, threads):
        base = default_params()
        spec = VariationSpec(vary_infection=True, sigma_fraction=1000.0, replicates=20,
                             master_seed=1)
        expected = sum(sample_params(base, spec, r)[1] for r in range(spec.replicates))
        assert expected > 0
        ens = run_sd_ensemble(base, spec, weeks=3, threads=threads)
        assert ens.clamped_draws == expected


class TestEnsemble:
    def test_single_replicate_tiny_sigma_matches_deterministic(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                         sigma_fraction=1e-12, replicates=1)
        ens = run_sd_ensemble(base, spec, weeks=15)
        expected = weekly_sample(integrate(base, 105.0), 15)
        assert ens.replicates == 1
        assert ens.matrix[0] == pytest.approx(expected.infected, rel=1e-6)

    def test_bit_identical_reruns(self):
        base = default_params()
        spec = spec_with(vary_contact=True, replicates=16, master_seed=77)
        a = run_sd_ensemble(base, spec, weeks=8)
        b = run_sd_ensemble(base, spec, weeks=8)
        assert np.array_equal(a.matrix, b.matrix)

    def test_thread_count_does_not_change_results(self):
        base = default_params()
        spec = spec_with(vary_illness=True, vary_infection=True, replicates=12,
                         master_seed=31)
        serial = run_sd_ensemble(base, spec, weeks=6, threads=1)
        parallel = run_sd_ensemble(base, spec, weeks=6, threads=3)
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_replicate_errors_are_tagged(self):
        bad = SirParams(population=100, contact_rate=1e6, infection_prob=1.0,
                        illness_duration=0.2, initial_infected=10)
        spec = spec_with(replicates=3, sigma_fraction=1e-6)
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_sd_ensemble(bad, spec, weeks=4)

    def test_pool_errors_are_tagged(self):
        bad = SirParams(population=100, contact_rate=1e6, infection_prob=1.0,
                        illness_duration=0.2, initial_infected=10)
        spec = spec_with(replicates=4, sigma_fraction=1e-6)
        with pytest.raises(RuntimeError, match="replicate 0 failed: state left the valid region"):
            run_sd_ensemble(bad, spec, weeks=4, threads=2)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), replicates=st.integers(1, 9),
           flags=st.sampled_from([(True, False, False), (False, True, True), (True, True, True)]),
           sigma=st.floats(0.01, 3.0))
    def test_thread_count_property(self, seed, replicates, flags, sigma):
        spec = VariationSpec(*flags, sigma_fraction=sigma, replicates=replicates,
                             master_seed=seed)
        serial = run_sd_ensemble(default_params(), spec, weeks=3, threads=1)
        pooled = run_sd_ensemble(default_params(), spec, weeks=3, threads=2)
        assert np.array_equal(serial.matrix, pooled.matrix)
        assert serial.clamped_draws == pooled.clamped_draws

    def test_scenario_ordering_by_spread(self):
        # varying all three parameters spreads weekly outcomes at least as
        # much as varying the least influential one alone
        base = default_params()
        single = run_sd_ensemble(base, spec_with(vary_illness=True, replicates=40,
                                                 master_seed=4), weeks=15)
        combined = run_sd_ensemble(
            base, spec_with(vary_illness=True, vary_contact=True, vary_infection=True,
                            replicates=40, master_seed=4), weeks=15)
        assert combined.matrix.std(axis=0).sum() > single.matrix.std(axis=0).sum()
