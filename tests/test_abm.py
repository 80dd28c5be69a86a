import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirvar import abm
from sirvar.abm import _simulate, run_abm, run_abm_ensemble
from sirvar.core import SirParams, attack_fraction, replicate_rng
from sirvar.network import NODE_LIMIT, NetworkTopology, build_small_world

from final_size_law import ALPHA, chi_square, final_size_law, fixed_days, geometric_days, \
    mean_days
from paper_params import default_params
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


def reference_targets_v3(infectious, topo, params, rng):
    """Targets of one day's transmissions under ``abm`` stream versions 3 and 4.

    One Poisson(contact_rate * infection_prob * I) total of transmitting
    contacts, then a pair of uniforms for each: the first picks its source
    among the I infectious agents in the order given, the second its
    neighbour slot.
    """
    total = rng.poisson(params.contact_rate * params.infection_prob * infectious.size)
    u = rng.random((2, total))
    sources = infectious[np.floor(u[0] * infectious.size).astype(np.int64)]
    slots = np.floor(u[1] * np.diff(topo.offsets)[sources]).astype(np.int64)
    return topo.neighbors[topo.offsets[sources] + slots]


def by_index(infectious, infected_on):
    """Versions 1 to 3 hold the infectious agents in ascending index order."""
    return infectious


def by_infection_day(infectious, infected_on):
    """Version 4 holds them by infection day, oldest first, then by ascending index."""
    return infectious[np.argsort(infected_on[infectious], kind="stable")]


def reference_step_day(status, days_remaining, infected_on, day, topo, params, rng,
                       exponential_recovery, targets_of=reference_targets_v3,
                       order=by_infection_day):
    """Day ``day`` of the scan-everything step, on raw state arrays.

    It finds the infectious agents with ``flatnonzero`` over all agents
    every day and puts them in ``order`` by their ``infected_on`` days, and
    it recovers an agent in fixed-duration mode when a float countdown, set
    to the duration on infection and cut by 1.0 each day, reaches 0.  It is
    kept as the reference the package's daily loop must equal.  ``targets_of``
    and ``order`` pick the stream version: how the day's transmissions are
    drawn, and the order of the agents their sources and recovery tests index.
    """
    infectious = order(np.flatnonzero(status == INFECTIOUS), infected_on)
    if infectious.size == 0:
        return 0
    new_infections = 0
    transmitted = targets_of(infectious, topo, params, rng)
    victims = transmitted[status[transmitted] == SUSCEPTIBLE]
    if victims.size:
        new_infections = int(np.unique(victims).size)
        status[victims] = INFECTIOUS
        days_remaining[victims] = params.illness_duration
        infected_on[victims] = day
    if exponential_recovery:
        recovered = infectious[rng.random(infectious.size) < params.recovery_rate]
    else:
        days_remaining[infectious] -= 1.0
        recovered = infectious[days_remaining[infectious] <= 0.0]
    status[recovered] = RECOVERED
    days_remaining[recovered] = 0.0
    return new_infections


def reference_step_day_v1(*state, exponential_recovery):
    """The step of ``abm`` stream version 1, which the package ran before version 2."""
    return reference_step_day(*state, exponential_recovery, targets_of=reference_targets_v1,
                              order=by_index)


def reference_step_day_v2(*state, exponential_recovery):
    """The step of ``abm`` stream version 2, which the package ran before version 3."""
    return reference_step_day(*state, exponential_recovery, targets_of=reference_targets_v2,
                              order=by_index)


def reference_step_day_v3(*state, exponential_recovery):
    """The step of ``abm`` stream version 3, which the package ran before version 4."""
    return reference_step_day(*state, exponential_recovery, order=by_index)


def reference_daily_counts(params, topo, weeks, rng, exponential_recovery,
                           step=reference_step_day):
    """Daily (S, I, R) rows of a reference ``step``, counted from ``status``;
    the index cases are infected on day 0."""
    status = np.zeros(topo.n, dtype=np.int8)
    days_remaining = np.zeros(topo.n)
    infected_on = np.zeros(topo.n, dtype=np.int64)
    if params.initial_infected:
        seeds = rng.choice(topo.n, size=params.initial_infected, replace=False)
        status[seeds] = INFECTIOUS
        days_remaining[seeds] = params.illness_duration
    rows = [np.bincount(status, minlength=3)]
    for day in range(1, weeks * 7 + 1):
        if rows[-1][INFECTIOUS]:  # else the day draws and changes nothing
            step(status, days_remaining, infected_on, day, topo, params, rng,
                 exponential_recovery=exponential_recovery)
        rows.append(np.bincount(status, minlength=3))
    return np.array(rows)


def ring_rows(d, c=200.0, p=1.0, days=7, seed=1):
    """Daily rows of one index case on the 6-ring, up to day ``days``."""
    topo = build_small_world(6, 2, 0.0, seed=0)
    return _simulate(params_for(6, c=c, p=p, d=d), topo, 1,
                     np.random.default_rng(seed), False)[:days + 1].tolist()


class TestStepDay:
    """The day step, read from the daily rows of :func:`_simulate`."""

    def test_disease_free_state_is_absorbing(self):
        topo = build_small_world(20, 4, 0.0, seed=0)
        for exponential_recovery in (False, True):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            daily = _simulate(params_for(20, i0=0), topo, 2, rng, exponential_recovery)
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
            daily = _simulate(params, topo, 1, rng, False)
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
        assert np.array_equal(a.infected, b.infected)

    def test_generator_seed_is_drawn_from_in_place(self):
        # A Generator seed is used as it is, not reseeded: run_abm leaves it
        # where _simulate leaves a twin Generator.
        topo = build_small_world(300, 6, 0.1, seed=4)
        params = params_for(300, c=6.0, p=0.2, i0=2)
        ours, twin = np.random.default_rng(5), np.random.default_rng(5)
        series = run_abm(params, topo, weeks=4, seed=ours)
        traj = _simulate(params, topo, 4, twin, False)
        assert ours.bit_generator.state == twin.bit_generator.state
        assert np.array_equal(series.infected, traj[7::7, 1])

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
            s, i, r = _simulate(params, topo, 8, rng, bool(case % 2)).T
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
        assert traj.shape == (7 * weeks + 1, 3)
        s = traj[:, 0]
        assert np.all(s + traj[:, 1] + traj[:, 2] == topo.n)
        assert np.all(np.diff(s) <= 0) and np.all(np.diff(traj[:, 2]) >= 0)
        series = run_abm(params, topo, weeks, np.random.default_rng(seed),
                         exponential_recovery=exponential_recovery)
        assert np.array_equal(series.infected, traj[7::7, 1])

    def test_epidemic_extinction_within_horizon(self):
        params = params_for(150, c=10.0, p=0.9, d=3.0, i0=1)
        for seed in range(10):
            topo = build_small_world(150, 6, 0.1, seed=seed)
            series = run_abm(params, topo, weeks=52, seed=seed)
            assert series.infected[-1] == 0.0


class TestEnsemble:
    def test_single_replicate_matches_run_abm_with_derived_seed(self):
        params = params_for(200, c=6.0, p=0.2, i0=1)
        ens = run_abm_ensemble(params, 6, 0.2, weeks=6, replicates=1, master_seed=55)
        topo = build_small_world(200, 6, 0.2, replicate_rng(55, 0, 0))
        direct = run_abm(params, topo, weeks=6, seed=replicate_rng(55, 0, 1))
        assert np.array_equal(ens.matrix[0], direct.infected)

    def test_thread_count_does_not_change_results(self):
        params = params_for(400, c=6.0, p=0.2, i0=1)
        k, p_rewire = 8, 0.3
        serial = run_abm_ensemble(params, k, p_rewire, weeks=5, replicates=8, master_seed=9,
                                  threads=1)
        parallel = run_abm_ensemble(params, k, p_rewire, weeks=5, replicates=8, master_seed=9,
                                    threads=3)
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_reuse_network_is_deterministic_and_distinct(self):
        params = params_for(300, c=6.0, p=0.2, i0=1)
        k, p_rewire = 6, 0.2
        shared_a = run_abm_ensemble(params, k, p_rewire, weeks=5, replicates=6, master_seed=3,
                                    reuse_network=True)
        shared_b = run_abm_ensemble(params, k, p_rewire, weeks=5, replicates=6, master_seed=3,
                                    reuse_network=True)
        fresh = run_abm_ensemble(params, k, p_rewire, weeks=5, replicates=6, master_seed=3)
        assert np.array_equal(shared_a.matrix, shared_b.matrix)
        assert not np.array_equal(shared_a.matrix, fresh.matrix)

    @pytest.mark.parametrize("reuse_network", [False, True], ids=["fresh", "shared"])
    def test_week_grid_is_checked_before_any_network(self, monkeypatch, reuse_network):
        def build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(abm, "build_small_world", build)
        with pytest.raises(ValueError, match="weeks must be >= 1, got 0"):
            run_abm_ensemble(params_for(300), 6, 0.2, weeks=0,
                             replicates=2, master_seed=1, reuse_network=reuse_network)

    @pytest.mark.parametrize("reuse_network", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("params", [params_for(300, c=1e300, p=0.065),
                                        # above numpy's largest Poisson mean, about 9.22e18
                                        params_for(300, c=1e19, p=1.0),
                                        # c * p is within numpy's bound, the day's total is not
                                        replace(default_params(), contact_rate=1e17)])
    def test_poisson_mean_is_checked_before_any_network(self, monkeypatch, params,
                                                        reuse_network):
        def build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(abm, "build_small_world", build)
        with pytest.raises(ValueError, match=r"contact_rate \* infection_prob \* population = .* "
                                             r"is above 4\.29497e\+09, the transmission budget"):
            run_abm_ensemble(params, 6, 0.2, weeks=2,
                             replicates=2, master_seed=1, reuse_network=reuse_network)

    def test_run_abm_checks_the_poisson_mean(self):
        topo = build_small_world(300, 6, 0.2, seed=3)
        with pytest.raises(ValueError,
                           match=r"contact_rate \* infection_prob \* population = 1\.95e\+301"):
            run_abm(params_for(300, c=1e300, p=0.065), topo, weeks=2, seed=0)

    def test_transmission_budget(self):
        # numpy draws a Poisson count of the budget's mean (size 0 checks the
        # mean without drawing), so the budget is the one bound
        np.random.default_rng(0).poisson(abm._TRANSMISSION_BUDGET, 0)
        # the bound is on c * p * N; dividing by N = 2**10 is exact
        c = abm._TRANSMISSION_BUDGET / 2**10
        abm.check_transmission_mean(params_for(2**10, c=c, p=1.0))
        with pytest.raises(ValueError, match=r"is above 4\.29497e\+09, the transmission budget"):
            abm.check_transmission_mean(params_for(2**10, c=float(np.nextafter(c, np.inf)), p=1.0))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_network_size_is_checked_before_any_network(self, monkeypatch, threads):
        def build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(abm, "build_small_world", build)
        params = params_for(10, i0=1)
        with pytest.raises(ValueError, match="k must be smaller than n, got k=10, n=10"):
            # k == n is invalid
            run_abm_ensemble(params, 10, 0.0, weeks=2, replicates=4, master_seed=0,
                             threads=threads)

    @pytest.mark.parametrize("replicates, threads, named", [(0, 1, "replicates"),
                                                            (2, 0, "threads")])
    def test_ensemble_size_is_checked_before_the_shared_network(self, monkeypatch,
                                                                replicates, threads, named):
        def build(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(abm, "build_small_world", build)
        with pytest.raises(ValueError, match=f"^{named} must be >= 1, got 0$"):
            run_abm_ensemble(params_for(300), 6, 0.2, weeks=2,
                             replicates=replicates, master_seed=1, threads=threads,
                             reuse_network=True)


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
    daily = _simulate(params, topo, weeks, rng, exponential_recovery)
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
    @pytest.mark.parametrize("duration", [1e-3, 0.5, 1.0, 3.0, 4.2, np.nextafter(1.0, 2.0),
                                          np.nextafter(5.0, 0.0), 2.0**53, 1e300, np.inf])
    def test_durations(self, duration, exponential_recovery):
        # whole, fractional, tiny, just above or below a whole day, and
        # unreachable durations recover on the days of the reference's float
        # countdown
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
                          exponential_recovery)
        expected = reference_daily_counts(params, topo, 15, replicate_rng(seed, 0, 1),
                                          exponential_recovery)
        assert np.array_equal(daily, expected)


class TestIndexWidth:
    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_daily_counts_do_not_depend_on_the_csr_index_width(self, exponential_recovery):
        # the day widens its int32 targets to intp once; int64 neighbours
        # must give the same rows and leave the Generator in the same state
        params = default_params(population=2000, initial_infected=10)
        narrow = build_small_world(2000, 10, 0.1, replicate_rng(2024, 0))
        wide = NetworkTopology(n=narrow.n, neighbors=narrow.neighbors.astype(np.int64),
                               offsets=narrow.offsets)
        assert narrow.neighbors.dtype == np.int32
        for seed in range(5):
            rngs = np.random.default_rng(seed), np.random.default_rng(seed)
            daily = [_simulate(params, topo, 10, rng, exponential_recovery)
                     for topo, rng in zip((narrow, wide), rngs)]
            assert daily[0][-1, 2] > params.initial_infected, seed
            assert np.array_equal(daily[0], daily[1]), seed
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state, seed


class TestSameLawAsVersion1:
    """Version 1 drew every contact and a transmission test for each; by
    Poisson thinning and splitting the package's epidemics have its law, on
    one fixed graph."""

    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_outcomes_match_the_version_1_step(self, exponential_recovery):
        params = default_params(population=2000, initial_infected=10)
        topo = build_small_world(2000, 10, 0.1, replicate_rng(2024, 0))
        weeks, replicates = 10, MIN_REPLICATES
        new = [outcomes(_simulate(params, topo, weeks, replicate_rng(1, r),
                                  exponential_recovery))
               for r in range(replicates)]
        old = [outcomes(reference_daily_counts(params, topo, weeks, replicate_rng(2, r),
                                               exponential_recovery, step=reference_step_day_v1))
               for r in range(replicates)]
        assert_same_law(new, old)


class TestSameLawAsVersion2:
    """Since ``abm`` stream version 3 the day draws one Poisson total of its
    transmissions and a uniform source for each; by Poisson splitting its
    epidemics have the law of version 2's Poisson count per agent."""

    @pytest.mark.parametrize("initial_infected", [1, 10])
    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_outcomes_match_the_version_2_step(self, exponential_recovery, initial_infected):
        params = default_params(population=2000, initial_infected=initial_infected)
        topo = build_small_world(2000, 10, 0.1, replicate_rng(2024, 0))
        weeks, replicates = 10, MIN_REPLICATES
        new = [outcomes(_simulate(params, topo, weeks, replicate_rng(3, r),
                                  exponential_recovery))
               for r in range(replicates)]
        old = [outcomes(reference_daily_counts(params, topo, weeks, replicate_rng(4, r),
                                               exponential_recovery, step=reference_step_day_v2))
               for r in range(replicates)]
        assert_same_law(new, old)


class TestSameLawAsVersion3:
    """``abm`` stream version 4 holds the infectious agents in infection
    order where version 3 held them by index; the source pick is uniform and
    the recovery tests alike, so by exchangeability the law is version 3's."""

    @pytest.mark.parametrize("initial_infected", [1, 10])
    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_outcomes_match_the_version_3_step(self, exponential_recovery, initial_infected):
        params = default_params(population=2000, initial_infected=initial_infected)
        topo = build_small_world(2000, 10, 0.1, replicate_rng(2024, 0))
        weeks, replicates = 10, MIN_REPLICATES
        new = [outcomes(_simulate(params, topo, weeks, replicate_rng(5, r),
                                  exponential_recovery))
               for r in range(replicates)]
        old = [outcomes(reference_daily_counts(params, topo, weeks, replicate_rng(6, r),
                                               exponential_recovery, step=reference_step_day_v3))
               for r in range(replicates)]
        assert_same_law(new, old)


class TestUniformPick:
    """``floor(u * m)`` with numpy's uniform ``u`` stays below ``m``."""

    def test_largest_uniform_picks_the_last_index(self):
        # numpy's random() is k * 2**-53 for k < 2**53, so its largest value
        # is the double just below 1; times any count m below NODE_LIMIT it
        # must floor to m - 1.  Every m below 2**24, the edges of each
        # binade up to NODE_LIMIT and a random sample of the rest.
        top = np.nextafter(1.0, 0.0)
        assert top == 1.0 - 2.0**-53
        edges = (2 ** np.arange(1, 32))[:, None] + np.arange(-2, 3)
        sample = np.random.default_rng(0).integers(2**24, NODE_LIMIT, 2**20)
        for m in (*np.array_split(np.arange(1, 2**24), 8), edges.ravel(), sample,
                  np.array([NODE_LIMIT - 1])):
            m = m[(m >= 1) & (m < NODE_LIMIT)]
            assert np.array_equal((top * m).astype(np.int64), m - 1)


class TestInfectiousSet:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponential_recovery=st.booleans())
    def test_daily_counts_match_status(self, seed, exponential_recovery):
        # the counts kept from the infectious index set equal those the
        # reference scans from its status array
        topo, params = random_case(np.random.default_rng(seed))
        assert_matches_reference(params, topo, 4, seed, exponential_recovery)


class TestMeanField:
    """On a near-complete graph the ABM's final size is the ODE's at the ABM's own R0.

    With N = 2,000 and k = 1,998 each agent misses one other, and p_rewire = 0
    draws nothing.  An agent transmits Poisson(c * p) times a day for L days,
    so R0 = c * p * E[L], where E[L] is D in exponential mode and ceil(D) in
    fixed mode.  Given take-off, the mean attack lies within 4 standard
    errors of ``attack_fraction(c * p * E[L])``.  The fixed mode's ceil(D) = 5
    transmitting days at D = 4.2 give R0 = 1.84 against the ODE's 1.54, so
    its mean lies far from ``attack_fraction(c * p * D)``: a mean-D duration
    rule would move it there.
    """

    @pytest.fixture(scope="class")
    def complete(self):
        return build_small_world(2000, 1998, 0.0, 0), default_params(2000, initial_infected=10)

    @pytest.mark.parametrize("exponential_recovery", [True, False])
    def test_attack_given_take_off_is_the_mean_field_final_size(self, complete,
                                                                  exponential_recovery):
        topo, params = complete
        final_s = np.array([
            _simulate(params, topo, 52, replicate_rng(5, r, 1), exponential_recovery)[-1, 0]
            for r in range(300)])
        attack = 1.0 - final_s / params.population
        attack = attack[attack > 0.1]  # outbreaks that took off
        mean, se = attack.mean(), attack.std(ddof=1) / math.sqrt(attack.size)
        rate = params.contact_rate * params.infection_prob
        duration = params.illness_duration
        lasting = duration if exponential_recovery else math.ceil(duration)
        assert abs(mean - attack_fraction(rate * lasting)) < 4 * se
        if not exponential_recovery:  # the gate can tell ceil(D) from D
            assert abs(mean - attack_fraction(rate * duration)) > 40 * se


# Runs of each exact-law case: the χ² gate's sample.
EXACT_LAW_RUNS = 4000


@functools.lru_cache(maxsize=None)
def complete_graph_final_sizes(duration, exponential_recovery):
    """Final sizes of :data:`EXACT_LAW_RUNS` runs from one index case on the
    complete graph of 51 agents, at paper c and p, seed 11."""
    topo = build_small_world(51, 50, 0.0, 0)
    params = replace(default_params(51), illness_duration=duration)
    last = np.array([
        _simulate(params, topo, 30, replicate_rng(11, r, 1), exponential_recovery)[-1]
        for r in range(EXACT_LAW_RUNS)])
    assert not last[:, 1].any()  # every run has ended by week 30: its final size is reached
    return (51 - last[:, 0]).astype(int)


class TestExactFinalSize:
    """On a complete graph the final size follows the exact small-N law.

    N = 51, k = 50 and p_rewire = 0 build the complete graph, so an agent
    transmits Poisson(c * p) times a day, each time to one of the other 50 at
    random, on L days: ceil(D) in fixed mode, Geometric(1 / D) on 1, 2, ... in
    exponential mode.  :func:`final_size_law.final_size_law` gives the law of
    the number ever infected; a χ² test of 4,000 runs must not reject it at
    :data:`final_size_law.ALPHA`.
    """

    @staticmethod
    def law(days):
        params = default_params(51)
        return final_size_law(51, params.contact_rate * params.infection_prob, days)

    @pytest.mark.parametrize("duration, exponential_recovery", [
        (4.2, False), (4.0, False), (4.2, True),
    ], ids=["fixed-4.2", "fixed-4.0", "exponential-4.2"])
    def test_final_size_follows_the_exact_law(self, duration, exponential_recovery):
        days = geometric_days(duration) if exponential_recovery else fixed_days(math.ceil(duration))
        stat, df, p = chi_square(complete_graph_final_sizes(duration, exponential_recovery),
                                 self.law(days))
        assert p > ALPHA, (stat, df)

    def test_fixed_mode_is_not_the_mean_duration_law(self):
        # power: at D = 4.2 the fixed mode's five transmitting days are told
        # apart from L = 4 or 5 days with mean D
        stat, df, p = chi_square(complete_graph_final_sizes(4.2, False), self.law(mean_days(4.2)))
        assert p < ALPHA, (stat, df)

    def test_law_is_exact_for_three_agents(self):
        # q = exp(-λL) escapes one infective: the index case infects no one;
        # or one, who infects no one; or, otherwise, all three are infected
        rate, lasting = 0.8, 3
        q = math.exp(-rate / 2 * lasting)
        law = final_size_law(3, rate, fixed_days(lasting))
        assert law == pytest.approx([0.0, q * q, 2 * q * q * (1 - q), 1 - q * q * (3 - 2 * q)],
                                    rel=1e-12)
