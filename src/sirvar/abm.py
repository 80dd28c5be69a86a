"""Agent-based SIR simulator on a contact network.

Time advances in synchronous daily steps.  Within one day:

1. every currently infectious agent makes Poisson(contact_rate) contacts,
   each with a target picked uniformly with replacement from its neighbour
   list, and each contacted susceptible independently becomes infected
   with probability ``infection_prob``.  Eligibility is judged against the
   start-of-day states, and new infectives only start transmitting the
   next day;
2. agents that were infectious at the start of the day progress towards
   recovery.  By default an agent stays infectious for a fixed
   ``illness_duration`` days (its remaining time drops by one per day and
   it recovers on reaching zero).  With ``exponential_recovery`` each such
   agent instead recovers with probability ``1 / illness_duration`` per
   day, which matches the ODE's linear recovery term in expectation and is
   the right mode for mean-field comparisons.

Recovered agents never change state again.  A run yields a
:class:`sirvar.core.Trajectory` of daily (S, I, R) counts with a one-day
step, which :func:`sirvar.sd.weekly_sample` turns into end-of-week values
as it does the ODE's trajectory.  Ensemble replicates draw their network
and simulation randomness from :func:`sirvar.core.replicate_rng` streams
and run through :func:`sirvar.core.run_replicates`.

The daily counts a seed yields are fixed by the order of random draws,
which is part of this module's contract; it is version 2 of the ``abm``
stream in :data:`sirvar.io.STREAM_VERSIONS`.  Each day draws, in order:

1. ``rng.poisson(contact_rate * infection_prob, I)``, one count of
   transmitting contacts per infectious agent, in ascending agent index;
2. ``rng.integers(0, degree)``, one neighbour slot per transmitting contact;
3. with ``exponential_recovery`` only, ``rng.random(I)``, one recovery test
   per agent infectious at the start of the day, in ascending agent index.

Only transmitting contacts are drawn: by Poisson thinning (Kingman,
*Poisson Processes*, 1993), Poisson(c) contacts each kept with probability
p, independently of their uniform slots, are Poisson(c * p) contacts with
uniform slots.  So version 1, which drew every contact and one
``rng.random`` transmission test per contact, has the same law.

A day with no infectious agent draws nothing.  A day costs time in
proportion to its infectious agents and contacts, not to the population:
:class:`Population` keeps the sorted index array of infectious agents, so
its ``status`` must change only through ``infect`` and :func:`step_day`.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .core import EnsembleResult, SirParams, Trajectory, WeeklySeries, replicate_rng, run_replicates
from .network import NetworkGenParams, NetworkTopology, build_small_world
from .sd import week_indices, weekly_sample

# RNG stream ids per replicate (part of the reproducibility contract).
_STREAM_NETWORK = 0
_STREAM_SIMULATION = 1
# Spawn key marking the shared network when replicates reuse one topology.
_SHARED_NETWORK_KEY = (0x6E6574,)


class Status(IntEnum):
    SUSCEPTIBLE = 0
    INFECTIOUS = 1
    RECOVERED = 2


# Plain ints for the daily step: IntEnum attribute lookups are slow.
_SUSCEPTIBLE = int(Status.SUSCEPTIBLE)
_INFECTIOUS = int(Status.INFECTIOUS)
_RECOVERED = int(Status.RECOVERED)


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """Ascending distinct entries of ``a``, which is sorted in place."""
    a.sort()
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class Population:
    """Mutable array-backed agent population.

    Holds one status byte and one remaining-days float per agent, plus
    ``infectious``, the ascending indices of the infectious agents.  The
    simulator mutates these in place; change ``status`` only through
    :meth:`infect` and :func:`step_day`, which keep ``infectious`` in step.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"population must have >= 1 agent, got {n}")
        self.status = np.zeros(n, dtype=np.int8)
        self.days_remaining = np.zeros(n, dtype=float)
        self.infectious = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return self.status.size

    def infect(self, indices, duration: float) -> None:
        """Make the agents at integer ``indices`` infectious for ``duration`` days."""
        indices = np.asarray(indices, dtype=np.intp).ravel()
        self.status[indices] = _INFECTIOUS
        self.days_remaining[indices] = duration
        # The status write above has range-checked the indices.
        self.infectious = _sorted_distinct(np.concatenate((self.infectious, indices % len(self))))


def step_day(
    pop: Population,
    topo: NetworkTopology,
    params: SirParams,
    rng: np.random.Generator,
    exponential_recovery: bool = False,
) -> int:
    """Advance the population by one day in place.

    Returns the number of agents newly infected during the day.
    """
    if len(pop) != topo.n:
        raise ValueError(f"population size {len(pop)} != topology size {topo.n}")

    status = pop.status
    infectious = pop.infectious
    if infectious.size == 0:
        return 0

    victims = infectious[:0]  # empty, of the index dtype
    transmissions = rng.poisson(params.contact_rate * params.infection_prob, infectious.size)
    sources = np.repeat(infectious, transmissions)
    if sources.size:
        slots = rng.integers(0, topo.degrees[sources])
        targets = topo.neighbors[topo.offsets[sources] + slots]
        # All draws above use start-of-day states, so infection is
        # synchronous: a target hit twice today gets two independent
        # chances, and today's new infectives neither transmit nor recover
        # before tomorrow.
        victims = _sorted_distinct(targets[status[targets] == _SUSCEPTIBLE])
        status[victims] = _INFECTIOUS
        pop.days_remaining[victims] = params.illness_duration

    # Recovery applies to agents infectious at the start of the day only.
    if exponential_recovery:
        recovers = rng.random(infectious.size) < params.recovery_rate
    else:
        left = pop.days_remaining[infectious] - 1.0
        pop.days_remaining[infectious] = left
        recovers = left <= 0.0
    recovered = infectious[recovers]
    status[recovered] = _RECOVERED
    pop.days_remaining[recovered] = 0.0
    # Start-of-day infectives and today's victims are disjoint sets.
    still = np.concatenate((infectious[~recovers], victims))
    still.sort()
    pop.infectious = still
    return int(victims.size)


def _simulate(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    rng: np.random.Generator,
    exponential_recovery: bool,
) -> Trajectory:
    """Daily engine: the (S, I, R) counts of days 0 to ``7 * weeks``.

    Row ``d`` of the returned one-day trajectory holds the counts at the end
    of day ``d``; row 0 is the state after seeding the index cases.  The
    counts are at most N, far below 2**53, so they are exact as floats.
    """
    pop = Population(topo.n)
    if params.initial_infected:
        seeds = rng.choice(topo.n, size=params.initial_infected, replace=False)
        pop.infect(seeds, params.illness_duration)

    days = weeks * 7
    daily = np.empty((days + 1, 3), dtype=np.int64)
    n = topo.n
    susceptible = n - pop.infectious.size
    daily[0] = susceptible, pop.infectious.size, 0
    for day in range(1, days + 1):
        susceptible -= step_day(pop, topo, params, rng,
                                exponential_recovery=exponential_recovery)
        infectious = pop.infectious.size
        daily[day] = susceptible, infectious, n - susceptible - infectious
    return Trajectory(dt=1.0, states=daily)


def run_abm(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    seed,
    exponential_recovery: bool = False,
) -> WeeklySeries:
    """Run one agent-based simulation and report end-of-week prevalence.

    All agents start susceptible except ``params.initial_infected``
    uniformly random index cases.  The daily counts are sampled by
    :func:`sirvar.sd.weekly_sample`, as the ODE's trajectory is: entry ``w``
    is the infectious count at the end of day ``7 * (w + 1)``.

    Raises
    ------
    ValueError
        If ``params.population`` does not match the topology size, or if
        ``weeks < 1``.
    """
    if params.population != topo.n:
        raise ValueError(
            f"params.population={params.population} does not match topology n={topo.n}"
        )
    week_indices(1.0, weeks)
    rng = np.random.default_rng(seed)
    return weekly_sample(_simulate(params, topo, weeks, rng, exponential_recovery), weeks)


def _abm_replicate(context, r: int) -> np.ndarray:
    params, gen, weeks, master_seed, shared_topo, exponential_recovery = context
    topo = shared_topo
    if topo is None:
        net_rng = replicate_rng(master_seed, r, _STREAM_NETWORK)
        topo = build_small_world(params.population, gen.k, gen.p_rewire, net_rng)
    sim_rng = replicate_rng(master_seed, r, _STREAM_SIMULATION)
    return run_abm(params, topo, weeks, sim_rng,
                   exponential_recovery=exponential_recovery).infected


def run_abm_ensemble(
    params: SirParams,
    gen: NetworkGenParams,
    weeks: int,
    replicates: int,
    master_seed: int,
    threads: int = 1,
    reuse_network: bool = False,
    exponential_recovery: bool = False,
) -> EnsembleResult:
    """Run an ensemble of independent agent-based simulations.

    By default every replicate generates its own topology and index cases
    from its own streams; with ``reuse_network`` a single topology (derived
    from the master seed alone) is shared by all replicates.  ``weeks`` is
    checked by :func:`sirvar.sd.week_indices` before any network is built.
    """
    week_indices(1.0, weeks)
    shared = None
    if reuse_network:
        net_rng = replicate_rng(master_seed, *_SHARED_NETWORK_KEY)
        shared = build_small_world(params.population, gen.k, gen.p_rewire, net_rng)
    context = (params, gen, weeks, master_seed, shared, exponential_recovery)
    return EnsembleResult(run_replicates(_abm_replicate, context, replicates, threads))
