"""Agent-based SIR simulator on a contact network.

Time advances in synchronous daily steps.  Within one day:

1. every currently infectious agent draws its contact count from
   Poisson(contact_rate) and picks that many targets uniformly with
   replacement from its neighbour list;
2. each contacted susceptible independently becomes infected with
   probability ``infection_prob``.  Eligibility is judged against the
   start-of-day states, and new infectives only start transmitting the
   next day;
3. agents that were infectious at the start of the day progress towards
   recovery.  By default an agent stays infectious for a fixed
   ``illness_duration`` days (its remaining time drops by one per day and
   it recovers on reaching zero).  With ``exponential_recovery`` each such
   agent instead recovers with probability ``1 / illness_duration`` per
   day, which matches the ODE's linear recovery term in expectation and is
   the right mode for mean-field comparisons.

Recovered agents never change state again.  Ensemble replicates draw
their network and simulation randomness from
:func:`sirvar.core.replicate_rng` streams and run through
:func:`sirvar.core.run_replicates`.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .core import EnsembleResult, SirParams, WeeklySeries, replicate_rng, run_replicates
from .network import NetworkGenParams, NetworkTopology, build_small_world

# RNG stream ids per replicate (part of the reproducibility contract).
_STREAM_NETWORK = 0
_STREAM_SIMULATION = 1
# Spawn key marking the shared network when replicates reuse one topology.
_SHARED_NETWORK_KEY = (0x6E6574,)


class Status(IntEnum):
    SUSCEPTIBLE = 0
    INFECTIOUS = 1
    RECOVERED = 2


class Population:
    """Mutable array-backed agent population.

    Holds one status byte and one remaining-days float per agent; the
    simulator mutates these in place.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"population must have >= 1 agent, got {n}")
        self.status = np.zeros(n, dtype=np.int8)
        self.days_remaining = np.zeros(n, dtype=float)

    def __len__(self) -> int:
        return self.status.size

    def infect(self, indices, duration: float) -> None:
        self.status[indices] = Status.INFECTIOUS
        self.days_remaining[indices] = duration

    def counts(self) -> tuple[int, int, int]:
        """(susceptible, infectious, recovered) totals."""
        s = int(np.count_nonzero(self.status == Status.SUSCEPTIBLE))
        i = int(np.count_nonzero(self.status == Status.INFECTIOUS))
        return s, i, len(self) - s - i


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
    infectious = np.flatnonzero(status == Status.INFECTIOUS)
    if infectious.size == 0:
        return 0

    new_infections = 0
    contacts = rng.poisson(params.contact_rate, infectious.size)
    sources = np.repeat(infectious, contacts)
    if sources.size:
        degrees = topo.degrees
        slots = rng.integers(0, degrees[sources])
        targets = topo.neighbors[topo.offsets[sources] + slots]
        transmitted = targets[rng.random(sources.size) < params.infection_prob]
        # All contact draws above use start-of-day states, so infection is
        # synchronous: a target hit twice today gets two independent
        # chances, and today's new infectives neither transmit nor recover
        # before tomorrow.
        victims = transmitted[status[transmitted] == Status.SUSCEPTIBLE]
        if victims.size:
            new_infections = int(np.unique(victims).size)
            pop.infect(victims, params.illness_duration)

    # Recovery applies to agents infectious at the start of the day only.
    if exponential_recovery:
        recovered = infectious[rng.random(infectious.size) < params.recovery_rate]
    else:
        pop.days_remaining[infectious] -= 1.0
        recovered = infectious[pop.days_remaining[infectious] <= 0.0]
    status[recovered] = Status.RECOVERED
    pop.days_remaining[recovered] = 0.0
    return new_infections


def _simulate(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    rng: np.random.Generator,
    exponential_recovery: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Daily engine; returns (weekly infectious counts, daily SIR counts)."""
    pop = Population(topo.n)
    if params.initial_infected:
        seeds = rng.choice(topo.n, size=params.initial_infected, replace=False)
        pop.infect(seeds, params.illness_duration)

    days = weeks * 7
    daily = np.empty((days + 1, 3), dtype=np.int64)
    daily[0] = pop.counts()
    weekly = np.empty(weeks, dtype=float)
    for day in range(1, days + 1):
        step_day(pop, topo, params, rng, exponential_recovery=exponential_recovery)
        daily[day] = pop.counts()
        if day % 7 == 0:
            weekly[day // 7 - 1] = daily[day, 1]
    return weekly, daily


def run_abm(
    params: SirParams,
    topo: NetworkTopology,
    weeks: int,
    seed,
    exponential_recovery: bool = False,
) -> WeeklySeries:
    """Run one agent-based simulation and report end-of-week prevalence.

    All agents start susceptible except ``params.initial_infected``
    uniformly random index cases.  The weekly convention matches the ODE
    side: entry ``w`` is the infectious count at the end of day
    ``7 * (w + 1)``.

    Raises
    ------
    ValueError
        If ``params.population`` does not match the topology size.
    """
    if params.population != topo.n:
        raise ValueError(
            f"params.population={params.population} does not match topology n={topo.n}"
        )
    if weeks < 1:
        raise ValueError(f"weeks must be >= 1, got {weeks}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weekly, _ = _simulate(params, topo, weeks, rng, exponential_recovery)
    return WeeklySeries(weeks=weeks, infected=weekly)


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
    from the master seed alone) is shared by all replicates.
    """
    shared = None
    if reuse_network:
        net_rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=_SHARED_NETWORK_KEY)
        )
        shared = build_small_world(params.population, gen.k, gen.p_rewire, net_rng)
    context = (params, gen, weeks, master_seed, shared, exponential_recovery)
    return EnsembleResult(run_replicates(_abm_replicate, context, replicates, threads))
