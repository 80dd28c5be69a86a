import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirvar import abm
from sirvar.abm import Population, Status, _simulate, run_abm, run_abm_ensemble, step_day
from sirvar.core import SirParams, default_params, replicate_rng
from sirvar.network import NetworkGenParams, build_small_world

from same_law import MIN_REPLICATES, assert_same_law, outcomes


# Plain ints for the reference steps: comparing an array with an IntEnum is slow.
SUSCEPTIBLE, INFECTIOUS, RECOVERED = map(int, Status)


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
    every day, as the package's step did before it kept an index set; it is
    kept as the reference the incremental step must equal.  ``targets_of``
    draws the day's transmissions in one stream version.
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


def counts(pop):
    """(susceptible, infectious, recovered) totals of a population, scanned from ``status``."""
    s = int(np.count_nonzero(pop.status == Status.SUSCEPTIBLE))
    i = int(np.count_nonzero(pop.status == Status.INFECTIOUS))
    return s, i, len(pop) - s - i


def reference_daily_counts(params, topo, weeks, rng, exponential_recovery,
                           step=reference_step_day):
    """Daily (S, I, R) rows of a reference ``step``, counted from ``status``."""
    status = np.zeros(topo.n, dtype=np.int8)
    days_remaining = np.zeros(topo.n)
    if params.initial_infected:
        seeds = rng.choice(topo.n, size=params.initial_infected, replace=False)
        status[seeds] = Status.INFECTIOUS
        days_remaining[seeds] = params.illness_duration
    rows = [np.bincount(status, minlength=len(Status))]
    for _day in range(weeks * 7):
        if rows[-1][INFECTIOUS]:  # else the day draws and changes nothing
            step(status, days_remaining, topo, params, rng, exponential_recovery)
        rows.append(np.bincount(status, minlength=len(Status)))
    return np.array(rows)


class TestAgentState:
    def test_invariant_days_iff_infectious(self):
        topo = build_small_world(200, 6, 0.2, seed=8)
        params = params_for(200, c=8.0, p=0.5, d=2.5, i0=5)
        for exponential_recovery in (False, True):
            rng = np.random.default_rng(8)
            pop = Population(200)
            pop.infect(np.arange(5), params.illness_duration)
            for _day in range(30):
                step_day(pop, topo, params, rng, exponential_recovery=exponential_recovery)
                infectious = pop.status == Status.INFECTIOUS
                assert np.array_equal(pop.days_remaining > 0.0, infectious)
                assert np.all(pop.days_remaining >= 0.0)
            assert np.count_nonzero(pop.status == Status.RECOVERED) > 5

    def test_population_round_trip(self):
        pop = Population(3)
        pop.infect([1], duration=2.0)
        pop.status[2] = Status.RECOVERED
        assert pop.status.tolist() == [Status.SUSCEPTIBLE, Status.INFECTIOUS, Status.RECOVERED]
        assert pop.days_remaining.tolist() == [0.0, 2.0, 0.0]
        assert counts(pop) == (1, 1, 1)
        assert len(pop) == 3


class TestStepDay:
    def test_disease_free_state_is_absorbing(self):
        topo = build_small_world(20, 4, 0.0, seed=0)
        pop = Population(20)
        before = pop.status.copy()
        new = step_day(pop, topo, params_for(20), np.random.default_rng(0))
        assert new == 0
        assert np.array_equal(pop.status, before)

    def test_saturation_infects_ring_neighbours(self):
        # one infectious node, p = 1, contacts far above degree: both ring
        # neighbours are hit with probability 1 - exp(-100) per step
        topo = build_small_world(6, 2, 0.0, seed=0)
        pop = Population(6)
        pop.infect([2], duration=3.0)
        new = step_day(pop, topo, params_for(6, c=200.0, p=1.0, d=3.0),
                       np.random.default_rng(1))
        assert new == 2
        assert pop.status[1] == Status.INFECTIOUS
        assert pop.status[3] == Status.INFECTIOUS
        assert pop.days_remaining[1] == 3.0
        # the source keeps transmitting tomorrow with one day less
        assert pop.days_remaining[2] == 2.0

    def test_new_infectives_do_not_act_today(self):
        # with duration 1 the source recovers at the end of its first day;
        # the victims must still carry the full duration
        topo = build_small_world(6, 2, 0.0, seed=0)
        pop = Population(6)
        pop.infect([0], duration=1.0)
        step_day(pop, topo, params_for(6, c=500.0, p=1.0, d=1.0), np.random.default_rng(2))
        assert pop.status[0] == Status.RECOVERED
        assert pop.days_remaining[1] == 1.0
        assert pop.days_remaining[5] == 1.0

    def test_single_step_expectation(self):
        # mean new infections ~ contact_rate * infection_prob * susceptible
        # fraction of the neighbourhood, within 3 standard errors
        topo = build_small_world(100, 4, 0.0, seed=0)
        params = params_for(100, c=2.0, p=0.05)
        trials = 10_000
        rng = np.random.default_rng(9)
        counts = np.empty(trials)
        for t in range(trials):
            pop = Population(100)
            pop.infect([50], duration=4.2)
            counts[t] = step_day(pop, topo, params, rng)
        expected = params.contact_rate * params.infection_prob * 1.0
        se = counts.std(ddof=1) / np.sqrt(trials)
        assert abs(counts.mean() - expected) <= 3.0 * se

    def test_population_topology_size_mismatch(self):
        topo = build_small_world(10, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            step_day(Population(9), topo, params_for(9), np.random.default_rng(0))


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
        for _ in range(10):
            n = int(rng.integers(100, 2000))
            k = int(rng.integers(1, 6)) * 2
            topo = build_small_world(n, k, float(rng.random()), seed=rng)
            params = params_for(n, c=float(rng.uniform(1, 10)),
                                p=float(rng.uniform(0.05, 0.6)),
                                d=float(rng.uniform(1, 10)),
                                i0=int(rng.integers(1, 5)))
            pop = Population(n)
            pop.infect(np.arange(params.initial_infected), params.illness_duration)
            prev_s, prev_i, prev_r = counts(pop)
            cumulative = prev_i
            for _day in range(56):
                new = step_day(pop, topo, params, rng)
                s, i, r = counts(pop)
                assert s + i + r == n
                assert s <= prev_s
                assert r >= prev_r
                assert i >= 0
                cumulative += new
                assert cumulative == n - s
                prev_s, prev_i, prev_r = s, i, r

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


class TestMatchesReference:
    @pytest.mark.parametrize("exponential_recovery", [False, True])
    def test_random_graphs_step_for_step(self, exponential_recovery):
        cases = np.random.default_rng(2024)
        for case in range(60):
            topo, params = random_case(cases)
            seeds = cases.choice(topo.n, size=params.initial_infected, replace=False)
            pop = Population(topo.n)
            pop.infect(seeds, params.illness_duration)
            status, days_remaining = pop.status.copy(), pop.days_remaining.copy()
            rng = np.random.default_rng(case)
            ref_rng = np.random.default_rng(case)
            for day in range(25):
                new = step_day(pop, topo, params, rng, exponential_recovery=exponential_recovery)
                expected = reference_step_day(status, days_remaining, topo, params, ref_rng,
                                              exponential_recovery)
                where = f"case {case}, n={topo.n}, day {day}"
                assert new == expected, where
                assert np.array_equal(pop.status, status), where
                assert np.array_equal(pop.days_remaining, days_remaining), where
                assert rng.bit_generator.state == ref_rng.bit_generator.state, where

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
    def test_tracks_status_after_every_step(self, seed, exponential_recovery):
        rng = np.random.default_rng(seed)
        topo, params = random_case(rng)
        pop = Population(topo.n)
        # repeated and negative indices, and a second call that overlaps the first
        pop.infect(rng.integers(-topo.n, topo.n, size=params.initial_infected),
                   params.illness_duration)
        pop.infect(rng.integers(0, topo.n, size=2), params.illness_duration)
        for _day in range(30):
            assert np.array_equal(pop.infectious, np.flatnonzero(pop.status == Status.INFECTIOUS))
            assert pop.infectious.dtype == np.intp
            assert np.all(np.diff(pop.infectious) > 0)
            step_day(pop, topo, params, rng, exponential_recovery=exponential_recovery)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponential_recovery=st.booleans())
    def test_daily_counts_match_status(self, seed, exponential_recovery):
        topo, params = random_case(np.random.default_rng(seed))
        daily = _simulate(params, topo, 4, np.random.default_rng(seed), exponential_recovery).states
        rng = np.random.default_rng(seed)
        pop = Population(topo.n)
        if params.initial_infected:
            pop.infect(rng.choice(topo.n, size=params.initial_infected, replace=False),
                       params.illness_duration)
        rows = [counts(pop)]
        for _day in range(28):
            step_day(pop, topo, params, rng, exponential_recovery=exponential_recovery)
            rows.append(counts(pop))
        assert np.array_equal(daily, np.array(rows))
