"""Agent-based SIR simulator on a contact network.

Time advances in synchronous daily steps.  Within one day:

1. every currently infectious agent makes Poisson(contact_rate *
   infection_prob) transmitting contacts, each to a neighbour slot picked
   uniformly with replacement from its neighbour list, and a susceptible
   that any of them reaches becomes infected.  Eligibility is judged
   against the start-of-day states, and new infectives only start
   transmitting the next day;
2. agents that were infectious at the start of the day progress towards
   recovery.  By default an agent stays infectious for a fixed
   ``illness_duration`` D: one infected on day ``i`` is still infectious at
   the end of day ``d`` while ``d - i < D``, so it recovers after ceil(D)
   days.  With ``exponential_recovery`` each such agent instead recovers
   with probability ``1 / illness_duration`` per day, which matches the
   ODE's linear recovery term in expectation and is the right mode for
   mean-field comparisons.

Recovered agents never change state again.  A run yields a float64 array
of daily (S, I, R) counts, one row a day from day 0, whose end-of-week
values are its rows ``week_indices(1.0, weeks)``:
:func:`sirvar.sd.week_indices` is the rule that places the ODE's on its
own grid too.  Ensemble replicates draw their network and simulation
randomness from :func:`sirvar.core.replicate_rng` streams and run through
:func:`sirvar.core.run_replicates`.

The daily counts a seed yields are fixed by the order of random draws,
which is part of this module's contract; it is version 4 of the ``abm``
stream in :data:`sirvar.io.STREAM_VERSIONS`.  Each day with I >= 1
infectious agents, held in order of infection day, oldest first, and by
ascending index within a day (the index cases count as day 0), draws, in
order:

1. ``T = rng.poisson(contact_rate * infection_prob * I)``, one scalar: the
   day's transmitting contacts;
2. ``u = rng.random((2, T))``: transmission ``t`` comes from infectious
   agent ``floor(u[0, t] * I)`` in that order, and goes to its
   neighbour slot ``floor(u[1, t] * degree)``;
3. with ``exponential_recovery`` only, ``rng.random(I)``, one recovery test
   per agent infectious at the start of the day, in that order.

The law is that of versions 1 to 3.  Version 1 drew Poisson(c) contacts
per infectious agent, a uniform slot for each and one ``rng.random``
transmission test per contact; by Poisson thinning (Kingman, *Poisson
Processes*, 1993) the kept contacts are Poisson(c * p) per agent with
uniform slots, which version 2 drew directly.  By Poisson splitting, I
independent Poisson(c * p) counts are a Poisson(c * p * I) total whose
transmissions each pick their source uniformly, which version 3 draws, one
call per day in place of two calls of size I.  Version 4 makes version
3's draws, but on the infectious agents in infection order where version 3
held them in ascending index order: the source pick is uniform and the
recovery tests are independent and alike, so by exchangeability the order
does not change the law.  A uniform ``u`` is a multiple of 2**-53 in
[0, 1), so ``floor(u * m)`` is within m * 2**-53 of
uniform on 0 .. m - 1, and never reaches m: the largest ``u``, 1 - 2**-53,
times any m < 2**53 rounds to below m by at least one spacing of the
doubles just below m, which is at most 1.
:func:`check_transmission_mean` keeps the day's Poisson mean, at most
``contact_rate * infection_prob * population``, within the transmission
budget, so no day asks for its ``(2, T)`` block of uniforms beyond 64 GiB.
The budget is the one bound: it sits far below the largest mean numpy's
Poisson draw takes, about 9.22e18.  The block is drawn whole, not in
chunks, since chunks would change the stream.

A day with no infectious agent draws nothing, and a day costs time in
proportion to its infectious agents and contacts, not to the population.
The state is two arrays, ``susceptible`` flags and ``infectious``, the
indices of the infectious agents in infection order, and ``counts``, a list
of the agents infected each day; an agent in neither array has recovered.
A day sorts only its hits: they are disjoint from the agents already
infectious, so sorting them and dropping adjacent repeats, a target hit
twice, gives the day's cohort, which goes at the end of ``infectious``.
The day's index arrays are all intp, int64 on a 64-bit platform: the int32
targets read from the network's neighbours are widened once, since numpy
converts an index of another type each time it is used, which at tens of
targets costs more than the indexing itself.

The fixed-duration rule is a whole-day cut.  An agent infected on day
``i`` recovers at the end of day ``d`` once ``d - i >= D``, and for a whole
number x of days, ``x >= D`` exactly when ``x >= ceil(D)``; so the day
keeps the agents with ``i > d - ceil(D)``.  Every earlier day cut the
cohorts before, so from day ``ceil(D)`` on the day drops just the cohort of
day ``d - ceil(D)``, its ``counts`` entry of agents at the front of
``infectious``.  No run reaches ``7 * weeks + 1`` days past an infection,
so ``ceil(D)`` is clamped to that, which keeps it an int for any D,
infinity included.  The cut recovers agents on the same days as the
reference step in the tests, a float countdown set to D on infection, cut
by 1.0 each day and recovering at 0.  For D < 2**53 each
subtraction of 1.0 is exact while the countdown is at least 1, so it reads
exactly D - m after m days, and the last step, from (0, 1] to (-1, 0],
keeps its sign: it recovers after ceil(D) days.  For D >= 2**53 neither
rule recovers within any run shorter than 2**52 days.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EnsembleResult,
    SirParams,
    WeeklySeries,
    check_replicates,
    check_seed,
    replicate_rng,
    run_replicates,
)
from .network import NetworkTopology, build_small_world, check_network
from .sd import week_indices

# RNG stream ids per replicate (part of the reproducibility contract).
_STREAM_NETWORK = 0
_STREAM_SIMULATION = 1
# Spawn key marking the shared network when replicates reuse one topology.
_SHARED_NETWORK_KEY = (0x6E6574,)
# The most transmissions a day is planned for: the day's (2, T) block of
# float64 uniforms then takes at most 2 * 8 * 2**32 bytes, 64 GiB.
_TRANSMISSION_BUDGET = 2**32


def _simulate(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    rng: np.random.Generator,
    exponential_recovery: bool,
) -> np.ndarray:
    """Daily engine: the (S, I, R) counts of days 0 to ``7 * weeks``.

    Row ``d`` of the returned ``(7 * weeks + 1, 3)`` float64 array holds
    the counts at the end of day ``d``; row 0 is the state after seeding the
    index cases, which count as infected on day 0.  Once no agent is
    infectious, the remaining rows repeat the last one.  The counts are at
    most N, far below 2**53, so they are exact as floats.
    """
    n = topo.n
    neighbors, offsets, degrees = topo.neighbors, topo.offsets, topo.degrees
    transmission_mean = params.contact_rate * params.infection_prob
    recovery_rate = params.recovery_rate
    days = 7 * weeks
    duration = params.illness_duration
    # Whole days from infection to recovery, ceil(D), clamped to one past the horizon.
    lasting = math.ceil(duration) if duration <= days else days + 1
    susceptible = np.ones(n, dtype=bool)
    infectious = np.sort(rng.choice(n, size=params.initial_infected, replace=False))
    susceptible[infectious] = False
    # counts[d]: the agents infected on day d, the index cases on day 0.
    counts = [infectious.size]

    s = n - infectious.size
    rows = [(s, infectious.size, 0)]
    for day in range(1, days + 1):
        if infectious.size == 0:
            rows += [(s, 0, n - s)] * (days + 1 - day)
            break
        u = rng.random((2, rng.poisson(transmission_mean * infectious.size)))
        sources = infectious[(u[0] * infectious.size).astype(np.int64)]
        slots = offsets[sources] + (u[1] * degrees[sources]).astype(np.int64)
        # Widened once: numpy converts an int32 index on every use.
        targets = neighbors[slots].astype(np.intp)
        # All draws above use start-of-day states, so infection is
        # synchronous: a target hit twice today gets two independent
        # chances, and today's new infectives neither transmit nor recover
        # before tomorrow.
        hits = targets[susceptible[targets]]
        susceptible[hits] = False
        hits.sort()
        distinct = np.empty(hits.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(hits[1:], hits[:-1], out=distinct[1:])
        hits = hits[distinct]
        counts.append(hits.size)

        # Recovery applies to agents infectious at the start of the day only.
        if exponential_recovery:
            kept = infectious[rng.random(infectious.size) >= recovery_rate]
        elif day >= lasting:  # the cohort of day - lasting, at the front, recovers
            kept = infectious[counts[day - lasting]:]
        else:
            kept = infectious
        infectious = np.concatenate((kept, hits))
        s -= hits.size
        rows.append((s, infectious.size, n - s - infectious.size))
    return np.array(rows, dtype=float)


def check_transmission_mean(params: SirParams) -> None:
    """Raise ``ValueError`` if ``contact_rate * infection_prob * population``,
    the Poisson mean of the day's transmitting contacts when every agent is
    infectious, is above the per-day transmission budget.  Any mean that
    numpy's Poisson draw would reject is far above it."""
    mean = params.contact_rate * params.infection_prob * params.population
    if mean > _TRANSMISSION_BUDGET:
        raise ValueError(f"contact_rate * infection_prob * population = {mean:.6g} is above "
                         f"{_TRANSMISSION_BUDGET:.6g}, the transmission budget of one day "
                         f"(its uniforms would take over 64 GiB)")


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
    sampled at the rows of :func:`sirvar.sd.week_indices` on the one-day
    grid, as the ODE's trajectory is on its own: entry ``w`` is the
    infectious count at the end of day ``7 * (w + 1)``.

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
    rows = week_indices(1.0, weeks)
    check_transmission_mean(params)
    rng = np.random.default_rng(seed)
    return WeeklySeries(_simulate(params, topo, weeks, rng, exponential_recovery)[rows, 1])


def run_abm_ensemble(
    params: SirParams,
    k: int,
    p_rewire: float,
    weeks: int,
    replicates: int,
    master_seed: int,
    threads: int = 1,
    reuse_network: bool = False,
    exponential_recovery: bool = False,
) -> EnsembleResult:
    """Run an ensemble of independent agent-based simulations.

    Each replicate runs on a small-world network of mean degree ``k`` and
    rewiring probability ``p_rewire`` over ``params.population`` nodes.  By
    default every replicate generates its own topology and index cases
    from its own streams; with ``reuse_network`` a single topology (derived
    from the master seed alone) is shared by all replicates.  Every input is
    checked before any network is built: ``weeks`` by
    :func:`sirvar.sd.week_indices`, ``params`` by :func:`check_transmission_mean`,
    the population, ``k`` and ``p_rewire`` by :func:`sirvar.network.check_network`,
    ``replicates`` and ``threads`` by :func:`sirvar.core.check_replicates`, and
    ``master_seed`` by :func:`sirvar.core.check_seed`.
    """
    week_indices(1.0, weeks)
    check_transmission_mean(params)
    check_network(params.population, k, p_rewire)
    check_replicates(replicates, threads)
    check_seed(master_seed)

    def network(*key: int) -> NetworkTopology:
        return build_small_world(params.population, k, p_rewire, replicate_rng(master_seed, *key))

    shared = network(*_SHARED_NETWORK_KEY) if reuse_network else None

    def replicate(r: int) -> np.ndarray:
        topo = network(r, _STREAM_NETWORK) if shared is None else shared
        return run_abm(params, topo, weeks, replicate_rng(master_seed, r, _STREAM_SIMULATION),
                       exponential_recovery=exponential_recovery).infected

    return EnsembleResult(run_replicates(replicate, replicates, threads))
