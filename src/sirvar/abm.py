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
   ``illness_duration`` D: one infected on day ``infected_on`` is still
   infectious at the end of day ``d`` while ``d - infected_on < D``, so it
   recovers after ceil(D) days.  With ``exponential_recovery`` each such
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

A day with no infectious agent draws nothing, and a day costs time in
proportion to its infectious agents and contacts, not to the population.
The state is three arrays: ``susceptible`` flags, ``infected_on`` days and
``infectious``, the ascending indices of the infectious agents; an agent in
neither set has recovered.

The fixed-duration rule recovers agents on the same days as the reference
step in the tests, a float countdown set to D on infection, cut by 1.0
each day and recovering at 0.  For D < 2**53 each subtraction of 1.0 is
exact while the countdown is at least 1, so it reads exactly D - m after m
days, and the last step, from (0, 1] to (-1, 0], keeps its sign.  For
D >= 2**53 neither rule recovers within any run shorter than 2**52 days.
"""

from __future__ import annotations

import numpy as np

from .core import EnsembleResult, SirParams, Trajectory, WeeklySeries, replicate_rng, run_replicates
from .network import NetworkGenParams, NetworkTopology, build_small_world
from .sd import week_indices, weekly_sample

# RNG stream ids per replicate (part of the reproducibility contract).
_STREAM_NETWORK = 0
_STREAM_SIMULATION = 1
# Spawn key marking the shared network when replicates reuse one topology.
_SHARED_NETWORK_KEY = (0x6E6574,)
# The largest mean numpy's Poisson draw takes; a larger one raises
# "lam value too large".
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """Ascending distinct entries of ``a``, which is sorted in place."""
    a.sort()
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _simulate(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    rng: np.random.Generator,
    exponential_recovery: bool,
) -> Trajectory:
    """Daily engine: the (S, I, R) counts of days 0 to ``7 * weeks``.

    Row ``d`` of the returned one-day trajectory holds the counts at the end
    of day ``d``; row 0 is the state after seeding the index cases, which
    count as infected on day 0.  Once no agent is infectious, the remaining
    rows repeat the last one.  The counts are at most N, far below 2**53,
    so they are exact as floats.
    """
    n = topo.n
    susceptible = np.ones(n, dtype=bool)
    infected_on = np.zeros(n, dtype=np.int64)
    infectious = np.sort(rng.choice(n, size=params.initial_infected, replace=False))
    susceptible[infectious] = False

    daily = np.empty((7 * weeks + 1, 3), dtype=np.int64)
    s = n - infectious.size
    daily[0] = s, infectious.size, 0
    for day in range(1, len(daily)):
        if infectious.size == 0:
            daily[day:] = s, 0, n - s
            break
        transmissions = rng.poisson(params.contact_rate * params.infection_prob, infectious.size)
        sources = np.repeat(infectious, transmissions)
        slots = rng.integers(0, topo.degrees[sources])
        targets = topo.neighbors[topo.offsets[sources] + slots]
        # All draws above use start-of-day states, so infection is
        # synchronous: a target hit twice today gets two independent
        # chances, and today's new infectives neither transmit nor recover
        # before tomorrow.
        victims = _sorted_distinct(targets[susceptible[targets]])
        susceptible[victims] = False
        infected_on[victims] = day
        s -= victims.size

        # Recovery applies to agents infectious at the start of the day only.
        if exponential_recovery:
            recovers = rng.random(infectious.size) < params.recovery_rate
        else:
            recovers = day - infected_on[infectious] >= params.illness_duration
        # Start-of-day infectives and today's victims are disjoint sets.
        infectious = np.concatenate((infectious[~recovers], victims))
        infectious.sort()
        daily[day] = s, infectious.size, n - s - infectious.size
    return Trajectory(dt=1.0, states=daily)


def check_transmission_mean(params: SirParams) -> None:
    """Raise ``ValueError`` if ``contact_rate * infection_prob``, the Poisson mean
    of an infectious agent's transmitting contacts per day, is above the largest
    mean numpy's Poisson draw takes."""
    mean = params.contact_rate * params.infection_prob
    if mean > _POISSON_MEAN_MAX:
        raise ValueError(f"contact_rate * infection_prob = {mean:.6g} is above "
                         f"{_POISSON_MEAN_MAX:.6g}, the largest Poisson mean numpy draws")


def run_abm(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    seed,
    exponential_recovery: bool = False,
) -> WeeklySeries:
    """Run one agent-based simulation and report end-of-week prevalence.

    All agents start susceptible except ``params.initial_infected``
    uniformly random index cases.  The daily counts of :func:`_simulate` are
    sampled by :func:`sirvar.sd.weekly_sample`, as the ODE's trajectory is:
    entry ``w`` is the infectious count at the end of day ``7 * (w + 1)``.

    Raises
    ------
    ValueError
        If ``params.population`` does not match the topology size, if
        ``weeks < 1``, or if :func:`check_transmission_mean` rejects ``params``.
    """
    if params.population != topo.n:
        raise ValueError(
            f"params.population={params.population} does not match topology n={topo.n}"
        )
    week_indices(1.0, weeks)
    check_transmission_mean(params)
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
    checked by :func:`sirvar.sd.week_indices`, and ``params`` by
    :func:`check_transmission_mean`, before any network is built.
    """
    week_indices(1.0, weeks)
    check_transmission_mean(params)
    shared = None
    if reuse_network:
        net_rng = replicate_rng(master_seed, *_SHARED_NETWORK_KEY)
        shared = build_small_world(params.population, gen.k, gen.p_rewire, net_rng)
    context = (params, gen, weeks, master_seed, shared, exponential_recovery)
    return EnsembleResult(run_replicates(_abm_replicate, context, replicates, threads))
