from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirvar import abm
from sirvar.abm import _simulate, run_abm, run_abm_ensemble
from sirvar.core import SirParams, default_params, replicate_rng
from sirvar.network import NetworkGenParams, build_small_world

from same_law import MIN_REPLICATES, assert_same_law, outcomes


# Status codes of the reference steps' per-agent ``status`` array.
SUSCEPTIBLE, INFECTIOUS, RECOVERED = 0, 1, 2


def params_for(n, c=5.0, p=0.1, d=4.2, i0=1):
    return SirParams(population=n, contact_rate=c, infection_prob=p,
                     illness_duration=d, initial_infected=i0)


def reference_targets_v1(infectious, topo, params, rng):
    """Targets of one day's transmissions under ``abm`` stream version 1.

    Every infectious agent draws Poisson(contact_rate) contacts and a
    neighbour slot for each, then each contact draws one transmission test.
    """
    contacts = rng.poisson(params.contact_rate, infectious.size)
    sources = np.repeat(infectious, contacts)
    if not sources.size:
        return sources
    slots = rng.integers(0, np.diff(topo.offsets)[sources])
    targets = topo.neighbors[topo.offsets[sources] + slots]
    return targets[rng.random(sources.size) < params.infection_prob]


def reference_targets_v2(infectious, topo, params, rng):
    """Targets of one day's transmissions under ``abm`` stream version 2.

    Every infectious agent draws Poisson(contact_rate * infection_prob)
    transmitting contacts and a neighbour slot for each.
    """
    transmissions = rng.poisson(params.contact_rate * params.infection_prob, infectious.size)
    sources = np.repeat(infectious, transmissions)
    if not sources.size:
        return sources
    slots = rng.integers(0, np.diff(topo.offsets)[sources])
    return topo.neighbors[topo.offsets[sources] + slots]


def reference_step_day(status, days_remaining, topo, params, rng, exponential_recovery,
                       targets_of=reference_targets_v2):
    """One day of the scan-everything step, on raw state arrays.

    It finds the infectious agents with ``flatnonzero`` over all agents
    every day, and it recovers an agent in fixed-duration mode when a float
    countdown, set to the duration on infection and cut by 1.0 each day,
    reaches 0.  It is kept as the reference the package's daily loop must
    equal.  ``targets_of`` draws the day's transmissions in one stream version.
    """
    infectious = np.flatnonzero(status == INFECTIOUS)
    if infectious.size == 0:
        return 0
    new_infections = 0
    transmitted = targets_of(infectious, topo, params, rng)
    victims = transmitted[status[transmitted] == SUSCEPTIBLE]
    if victims.size:
        new_infections = int(np.unique(victims).size)
        status[victims] = INFECTIOUS
        days_remaining[victims] = params.illness_duration
    if exponential_recovery:
        recovered = infectious[rng.random(infectious.size) < params.recovery_rate]
    else:
        days_remaining[infectious] -= 1.0
        recovered = infectious[days_remaining[infectious] <= 0.0]
    status[recovered] = RECOVERED
    days_remaining[recovered] = 0.0
    return new_infections


def reference_step_day_v1(status, days_remaining, topo, params, rng, exponential_recovery):
    """The step of ``abm`` stream version 1, which the package ran before version 2."""
    return reference_step_day(status, days_remaining, topo, params, rng, exponential_recovery,
                              targets_of=reference_targets_v1)


def reference_daily_counts(params, topo, weeks, rng, exponential_recovery,
                           step=reference_step_day):
    """Daily (S, I, R) rows of a reference ``step``, counted from ``status``."""
    status = np.zeros(topo.n, dtype=np.int8)
    days_remaining = np.zeros(topo.n)
    if params.initial_infected:
        seeds = rng.choice(topo.n, size=params.initial_infected, replace=False)
        status[seeds] = INFECTIOUS
        days_remaining[seeds] = params.illness_duration
    rows = [np.bincount(status, minlength=3)]
    for _day in range(weeks * 7):
        if rows[-1][INFECTIOUS]:  # else the day draws and changes nothing
            step(status, days_remaining, topo, params, rng, exponential_recovery)
        rows.append(np.bincount(status, minlength=3))
    return np.array(rows)


def ring_rows(d, c=200.0, p=1.0, days=7, seed=1):
    """Daily rows of one index case on the 6-ring, up to day ``days``."""
    topo = build_small_world(6, 2, 0.0, seed=0)
    return _simulate(params_for(6, c=c, p=p, d=d), topo, 1,
                     np.random.default_rng(seed), False).states[:days + 1].tolist()


class TestStepDay:
    """The day step, read from the daily rows of :func:`_simulate`."""

    def test_disease_free_state_is_absorbing(self):
        topo = build_small_world(20, 4, 0.0, seed=0)
        for exponential_recovery in (False, True):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            daily = _simulate(params_for(20, i0=0), topo, 2, rng, exponential_recovery).states
            assert np.array_equal(daily, np.tile([20, 0, 0], (15, 1)))
            assert rng.bit_generator.state == before

    def test_saturation_infects_ring_neighbours(self):
        # one index case, p = 1, contacts far above degree: both ring
        # neighbours are hit with probability 1 - exp(-100) per day, and
        # the index case stays infectious for 3 days
        assert ring_rows(3.0, days=4) == [[5, 1, 0], [3, 3, 0], [1, 5, 0], [0, 5, 1],
                                          [0, 3, 3]]

    def test_new_infectives_do_not_act_today(self):
        # with duration 1 the index case recovers at the end of its first
        # day, while its victims transmit and recover only on day 2
        assert ring_rows(1.0, c=500.0, days=4) == [[5, 1, 0], [3, 2, 1], [1, 2, 3],
                                                   [0, 1, 5], [0, 0, 6]]

    def test_single_step_expectation(self):
        # mean day-1 infections ~ contact_rate * infection_prob * susceptible
        # fraction of the neighbourhood, within 3 standard errors; day 1 does
        # not depend on the duration, and a short one ends most runs early
        topo = build_small_world(100, 4, 0.0, seed=0)
        params = params_for(100, c=2.0, p=0.05, d=1.0)
        trials = 10_000
        rng = np.random.default_rng(9)
        new = np.empty(trials)
        for t in range(trials):
            daily = _simulate(params, topo, 1, rng, False).states
            new[t] = daily[0, 0] - daily[1, 0]
        expected = params.contact_rate * params.infection_prob * 1.0
        se = new.std(ddof=1) / np.sqrt(trials)
        assert abs(new.mean() - expected) <= 3.0 * se


class TestRunAbm:
    def test_no_index_cases_all_zero(self):
        topo = build_small_world(50, 4, 0.1, seed=3)
        series = run_abm(params_for(50, i0=0), topo, weeks=6, seed=1)
        assert np.array_equal(series.infected, np.zeros(6))

    def test_zero_infection_prob_decays(self):
        # index cases recover within ceil(4.2 / 7) = 1 week, nobody else infected
        topo = build_small_world(50, 4, 0.1, seed=3)
        series = run_abm(params_for(50, p=0.0, i0=5), topo, weeks=4, seed=1)
        assert np.array_equal(series.infected, np.zeros(4))

    def test_determinism(self):
        topo = build_small_world(300, 6, 0.1, seed=4)
        params = params_for(300, c=6.0, p=0.2, i0=2)
        a = run_abm(params, topo, weeks=8, seed=123)
        b = run_abm(params, topo, weeks=8, seed=123)
        assert a == b

    def test_generator_seed_is_drawn_from_in_place(self):
        # A Generator seed is used as it is, not reseeded: run_abm leaves it
        # where _simulate leaves a twin Generator.
        topo = build_small_world(300, 6, 0.1, seed=4)
        params = params_for(300, c=6.0, p=0.2, i0=2)
        ours, twin = np.random.default_rng(5), np.random.default_rng(5)
        series = run_abm(params, topo, weeks=4, seed=ours)
        traj = _simulate(params, topo, 4, twin, False)
        assert ours.bit_generator.state == twin.bit_generator.state
        assert np.array_equal(series.infected, traj.i[7::7])

    def test_population_mismatch_rejected(self):
        topo = build_small_world(50, 4, 0.1, seed=3)
        with pytest.raises(ValueError):
            run_abm(params_for(49), topo, weeks=2, seed=0)

    def test_conservation_and_monotone_compartments(self):
        rng = np.random.default_rng(31)
        for case in range(10):
            n = int(rng.integers(100, 2000))
            k = int(rng.integers(1, 6)) * 2
            topo = build_small_world(n, k, float(rng.random()), seed=rng)
            params = params_for(n, c=float(rng.uniform(1, 10)),
                                p=float(rng.uniform(0.05, 0.6)),
                                d=float(rng.uniform(1, 10)),
                                i0=int(rng.integers(1, 5)))
            s, i, r = _simulate(params, topo, 8, rng, bool(case % 2)).states.T
            assert s[0] == n - params.initial_infected and r[0] == 0
            assert np.all(s + i + r == n)
            assert np.all(np.diff(s) <= 0)
            assert np.all(np.diff(r) >= 0)
            assert np.all(i >= 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weeks=st.integers(1, 4),
           exponential_recovery=st.booleans())
    def test_daily_trajectory_is_conserved_and_sampled_at_week_ends(
            self, seed, weeks, exponential_recovery):
        topo, params = random_case(np.random.default_rng(seed))
        traj = _simulate(params, topo, weeks, np.random.default_rng(seed), exponential_recovery)
        assert traj.dt == 1.0 and len(traj) == 7 * weeks + 1
        assert np.all(traj.s + traj.i + traj.r == topo.n)
        assert np.all(np.diff(traj.s) <= 0) and np.all(np.diff(traj.r) >= 0)
        series = run_abm(params, topo, weeks, np.random.default_rng(seed),
                         exponential_recovery=exponential_recovery)
        assert np.array_equal(series.infected, traj.i[7::7])

    def test_epidemic_extinction_within_horizon(self):
        params = params_for(150, c=10.0, p=0.9, d=3.0, i0=1)
        for seed in range(10):
            topo = build_small_world(150, 6, 0.1, seed=seed)
            series = run_abm(params, topo, weeks=52, seed=seed)
            assert series.infected[-1] == 0.0


class TestEnsemble:
    def test_single_replicate_matches_run_abm_with_derived_seed(self):
        params = params_for(200, c=6.0, p=0.2, i0=1)
        gen = NetworkGenParams(k=6, p_rewire=0.2)
        ens = run_abm_ensemble(params, gen, weeks=6, replicates=1, master_seed=55)
        topo = build_small_world(200, 6, 0.2, replicate_rng(55, 0, 0))
        direct = run_abm(params, topo, weeks=6, seed=replicate_rng(55, 0, 1))
        assert np.array_equal(ens.matrix[0], direct.infected)

    def test_thread_count_does_not_change_results(self):
        params = params_for(400, c=6.0, p=0.2, i0=1)
        gen = NetworkGenParams(k=8, p_rewire=0.3)
        serial = run_abm_ensemble(params, gen, weeks=5, replicates=8, master_seed=9,
                                  threads=1)
        parallel = run_abm_ensemble(params, gen, weeks=5, replicates=8, master_seed=9,
                                    threads=3)
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_reuse_network_is_deterministic_and_distinct(self):
        params = params_for(300, c=6.0, p=0.2, i0=1)
        gen = NetworkGenParams(k=6, p_rewire=0.2)
        shared_a = run_abm_ensemble(params, gen, weeks=5, replicates=6, master_seed=3,
                                    reuse_network=True)
        shared_b = run_abm_ensemble(params, gen, weeks=5, replicates=6, master_seed=3,
                                    reuse_network=True)
        fresh = run_abm_ensemble(params, gen, weeks=5, replicates=6, master_seed=3)
        assert np.array_equal(shared_a.matrix, shared_b.matrix)
        assert not np.array_equal(shared_a.matrix, fresh.matrix)

    @pytest.mark.parametrize("reuse_network", [False, True], ids=["fresh", "shared"])
    def test_week_grid_is_checked_before_any_network(self, monkeypatch, reuse_network):
        def build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(abm, "build_small_world", build)
        with pytest.raises(ValueError, match="weeks must be >= 1, got 0"):
            run_abm_ensemble(params_for(300), NetworkGenParams(k=6, p_rewire=0.2), weeks=0,
                             replicates=2, master_seed=1, reuse_network=reuse_network)

    @pytest.mark.parametrize("reuse_network", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("params", [params_for(300, c=1e300, p=0.065),
                                        params_for(300, c=abm._POISSON_MEAN_MAX * 2, p=1.0)])
    def test_poisson_mean_is_checked_before_any_network(self, monkeypatch, params,
                                                        reuse_network):
        def build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(abm, "build_small_world", build)
        with pytest.raises(ValueError, match=r"contact_rate \* infection_prob = .* is above "
                                             r"9\.22337e\+18, the largest Poisson mean"):
            run_abm_ensemble(params, NetworkGenParams(k=6, p_rewire=0.2), weeks=2,
                             replicates=2, master_seed=1, reuse_network=reuse_network)

    def test_run_abm_checks_the_poisson_mean(self):
        topo = build_small_world(300, 6, 0.2, seed=3)
        with pytest.raises(ValueError, match=r"contact_rate \* infection_prob = 6\.5e\+298"):
            run_abm(params_for(300, c=1e300, p=0.065), topo, weeks=2, seed=0)

    def test_poisson_mean_bound_is_numpys(self):
        # size 0 checks the mean without drawing
        rng = np.random.default_rng(0)
        rng.poisson(abm._POISSON_MEAN_MAX, 0)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(abm._POISSON_MEAN_MAX, np.inf), 0)
        abm.check_transmission_mean(params_for(300, c=abm._POISSON_MEAN_MAX, p=1.0))
        with pytest.raises(ValueError, match="largest Poisson mean"):
            abm.check_transmission_mean(
                params_for(300, c=float(np.nextafter(abm._POISSON_MEAN_MAX, np.inf)), p=1.0))

    def test_replicate_errors_are_tagged(self):
        params = params_for(10, i0=1)
        gen = NetworkGenParams(k=10, p_rewire=0.0)  # k == n is invalid
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_abm_ensemble(params, gen, weeks=2, replicates=2, master_seed=0)

    def test_pool_errors_are_tagged(self):
        params = params_for(10, i0=1)
        gen = NetworkGenParams(k=10, p_rewire=0.0)
        with pytest.raises(RuntimeError, match="replicate 0 failed: k must be smaller than n"):
            run_abm_ensemble(params, gen, weeks=2, replicates=4, master_seed=0, threads=2)


def random_case(rng):
    """A random small-world graph and parameter set with n in [3, 2000]."""
    n = int(np.exp(rng.uniform(np.log(3), np.log(2000))))
    k = 2 * int(rng.integers(1, min(5, (n - 1) // 2) + 1))
    topo = build_small_world(n, k, float(rng.random()), seed=rng)
    infection_prob = [0.0, 1.0, float(rng.random())][int(rng.integers(3))]
    params = params_for(n, c=float(rng.uniform(0, 10)), p=infection_prob,
                        d=float(rng.uniform(0.5, 8)), i0=int(rng.integers(0, n + 1)))
    return topo, params


def assert_matches_reference(params, topo, weeks, seed, exponential_recovery):
    """:func:`_simulate` equals the reference daily rows, Generator state included."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    daily = _simulate(params, topo, weeks, rng, exponential_recovery).states
    expected = reference_daily_counts(params, topo, weeks, ref_rng, exponential_recovery)
    where = f"seed {seed}, n={topo.n}, duration {params.illness_duration}"
    assert np.array_equal(daily, expected), where
    assert rng.bit_generator.state == ref_rng.bit_generator.state, where


class TestMatchesReference:
    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_random_graphs_step_for_step(self, exponential_recovery):
        cases = np.random.default_rng(2024)
        for case in range(60):
            topo, params = random_case(cases)
            assert_matches_reference(params, topo, 4, case, exponential_recovery)

    @pytest.mark.parametrize("exponential_recovery", [False, True])
    @pytest.mark.parametrize("duration", [1e-3, 0.5, 1.0, 3.0, 4.2, 2.0**53, np.inf])
    def test_durations(self, duration, exponential_recovery):
        # whole, fractional, tiny and unreachable durations recover on the
        # days of the reference's float countdown
        cases = np.random.default_rng(16)
        for case in range(20):
            topo, params = random_case(cases)
            params = replace(params, illness_duration=duration)
            assert_matches_reference(params, topo, 4, case, exponential_recovery)

    @pytest.mark.parametrize("exponential_recovery", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_default_daily_counts(self, seed, exponential_recovery):
        # replicate 0 of run-abm --seed <seed> --initial-infected 10
        params = default_params(initial_infected=10)
        topo = build_small_world(params.population, 10, 0.1, replicate_rng(seed, 0, 0))
        daily = _simulate(params, topo, 15, replicate_rng(seed, 0, 1),
                          exponential_recovery).states
        expected = reference_daily_counts(params, topo, 15, replicate_rng(seed, 0, 1),
                                          exponential_recovery)
        assert np.array_equal(daily, expected)


class TestSameLawAsVersion1:
    """``abm`` stream version 2 draws only the transmitting contacts; by Poisson
    thinning its epidemics have the law of version 1's, on one fixed graph."""

    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_outcomes_match_the_version_1_step(self, exponential_recovery):
        params = default_params(population=2000, initial_infected=10)
        topo = build_small_world(2000, 10, 0.1, replicate_rng(2024, 0))
        weeks, replicates = 10, MIN_REPLICATES
        new = [outcomes(_simulate(params, topo, weeks, replicate_rng(1, r),
                                  exponential_recovery).states)
               for r in range(replicates)]
        old = [outcomes(reference_daily_counts(params, topo, weeks, replicate_rng(2, r),
                                               exponential_recovery, step=reference_step_day_v1))
               for r in range(replicates)]
        assert_same_law(new, old)


class TestInfectiousSet:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponential_recovery=st.booleans())
    def test_daily_counts_match_status(self, seed, exponential_recovery):
        # the counts kept from the infectious index set equal those the
        # reference scans from its status array
        topo, params = random_case(np.random.default_rng(seed))
        assert_matches_reference(params, topo, 4, seed, exponential_recovery)
