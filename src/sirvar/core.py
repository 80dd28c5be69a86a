"""Shared domain types and epidemiological parameter definitions.

Both simulation paradigms consume the same :class:`SirParams`.  The ODE
model composes them into the classic transmission coefficient via
frequency-dependent mixing, ``a = contact_rate * infection_prob / N``, and
a recovery rate ``b = 1 / illness_duration``, so that a contact rate and a
per-contact infection probability mean the same thing to the agent-based
model and to the differential equations.

All types are immutable after construction and validate their fields, so
they can be shared freely between worker processes.

Both ensembles (Monte-Carlo SD runs and ABM runs) go through one driver,
:func:`run_replicates`.  Replicate ``r`` draws its randomness only from
:func:`replicate_rng` streams keyed by ``(master_seed, r, stream)``, so a
replicate's result does not depend on which process runs it, and results
are assembled in replicate order: ensembles are bit-identical for any
thread count.  With ``threads > 1`` the replicates are split by residue
among this process and workers forked from it, which inherit the shared
inputs and receive only their replicate indices.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass

import numpy as np

try:  # glibc's; other C libraries have none
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

#: Number of people in the Osterlovsta study region (Russian influenza, Sweden,
#: 1889-90) used as the default experiment size.
DEFAULT_POPULATION = 52910

#: Per-contact transmission probability fitted to the influenza data.
DEFAULT_INFECTION_PROB = 0.065

#: Mean infectious period in days fitted to the influenza data.
DEFAULT_ILLNESS_DURATION = 4.2

#: Fraction of the population ever infected in the study region; the
#: default contact rate is calibrated so the deterministic model hits it.
DEFAULT_ATTACK_RATE = 0.61

# Newton step size at which attack_fraction stops.
_ATTACK_TOL = 1e-14


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SirParams:
    """Epidemiological parameter set shared by both simulation paradigms.

    Attributes
    ----------
    population : int
        Total number of individuals, N >= 1.
    contact_rate : float
        Contacts per individual per day, finite and >= 0.
    infection_prob : float
        Probability of transmission per susceptible-infectious contact,
        in [0, 1].
    illness_duration : float
        Days spent infectious, > 0.  The recovery rate is its inverse, so
        ``inf`` means no recovery.
    initial_infected : int
        Index cases at t = 0, in [0, population].
    """

    population: int
    contact_rate: float
    infection_prob: float
    illness_duration: float
    initial_infected: int = 1

    def __post_init__(self):
        for name in ("population", "initial_infected"):
            value = getattr(self, name)
            _require(isinstance(value, numbers.Integral),
                     f"{name} must be an integer, got {value!r}")
        _require(self.population >= 1, f"population must be >= 1, got {self.population}")
        _require(self.contact_rate >= 0.0, f"contact_rate must be >= 0, got {self.contact_rate}")
        _require(self.contact_rate < math.inf,
                 f"contact_rate must be finite, got {self.contact_rate}")
        _require(
            0.0 <= self.infection_prob <= 1.0,
            f"infection_prob must be in [0, 1], got {self.infection_prob}",
        )
        _require(
            self.illness_duration > 0.0,
            f"illness_duration must be > 0, got {self.illness_duration}",
        )
        _require(
            0 <= self.initial_infected <= self.population,
            f"initial_infected must be in [0, population], got {self.initial_infected}",
        )

    @property
    def recovery_rate(self) -> float:
        """Per-day recovery rate b = 1 / illness_duration."""
        return 1.0 / self.illness_duration


def derived_rates(params: SirParams) -> tuple[float, float]:
    """ODE coefficients (a, b) implied by a parameter set.

    ``a = contact_rate * infection_prob / population`` is the per-pair
    transmission coefficient of the frequency-dependent SIR equations;
    ``b`` is the recovery rate.  ``a`` is homogeneous of degree -1 in the
    population and +1 in each of contact rate and infection probability.
    """
    a = params.contact_rate * params.infection_prob / params.population
    return a, params.recovery_rate


def basic_reproduction_number(params: SirParams) -> float:
    """R0 = a * N / b = contact_rate * infection_prob * illness_duration."""
    a, b = derived_rates(params)
    return a * params.population / b


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class WeeklySeries:
    """The weekly infected counts of one :func:`sirvar.abm.run_abm` call.

    ``infected`` is 1-D, non-empty and non-negative, under the end-of-week convention
    of :class:`EnsembleResult`, the type of every other weekly table.  It stays only
    because the benchmark's ABM probe reads ``run_abm(...).infected``.
    """

    infected: np.ndarray

    def __post_init__(self):
        infected = _frozen_array(self.infected)
        _require(infected.ndim == 1 and infected.size >= 1,
                 f"weekly values must be a non-empty 1-D array, got shape {infected.shape}")
        _require(bool((infected >= 0.0).all()), "weekly infected counts must be non-negative")
        object.__setattr__(self, "infected", infected)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Replicate-by-week matrix of infected counts from an ensemble run.

    ``matrix`` has shape (replicates, weeks); ``matrix[r, w]`` is replicate ``r``'s
    infected count at the end of week ``w + 1`` (day ``7 * (w + 1)``), the end-of-week
    convention used throughout.  A deterministic run or a reference is one row.
    ``clamped_draws`` counts Monte-Carlo parameter draws that had to be
    clamped to their domain (always 0 for agent-based ensembles).
    """

    matrix: np.ndarray
    clamped_draws: int = 0

    def __post_init__(self):
        matrix = _frozen_array(self.matrix)
        _require(matrix.ndim == 2 and matrix.shape[0] >= 1 and matrix.shape[1] >= 1,
                 f"matrix must have shape (replicates >= 1, weeks >= 1), got {matrix.shape}")
        _require(bool((matrix >= 0.0).all()), "weekly infected counts must be non-negative")
        object.__setattr__(self, "matrix", matrix)

    @property
    def replicates(self) -> int:
        return self.matrix.shape[0]

    @property
    def weeks(self) -> int:
        return self.matrix.shape[1]


def replicate_rng(master_seed: int, *spawn_key: int) -> np.random.Generator:
    """Generator for one random stream of an ensemble.

    The stream depends only on ``master_seed`` and the ``spawn_key``
    integers.  Replicate ``r`` keys its streams ``(r, stream)``, and the one
    network that ``reuse_network`` shares among ABM replicates is keyed
    ``sirvar.abm._SHARED_NETWORK_KEY``; these keys are part of the
    reproducibility contract of every saved ensemble.  Both ensembles draw only
    from here, so this is where a master seed from metadata is checked; the CLI
    checks ``--seed`` first, to report it as a usage error.
    """
    if not 0 <= master_seed < 2**64:  # no message formatting on this hot path
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=spawn_key))


def _run_share(fn, context, share: range) -> tuple[list, RuntimeError | None]:
    """Rows of the replicates in ``share``, in order, up to the first that
    fails, and that failure tagged with its replicate (None if none failed)."""
    rows = []
    for r in share:
        try:
            rows.append(fn(context, r))
        except Exception as exc:
            failure = RuntimeError(f"replicate {r} failed: {exc}")
            failure.__cause__ = exc
            return rows, failure
    return rows, None


def _serve(conn, fn, context) -> None:
    """Body of a forked worker: run the share it is sent, send back its outcome."""
    conn.send(_run_share(fn, context, conn.recv()))


def run_replicates(fn, context, replicates: int, threads: int = 1) -> list:
    """``[fn(context, r) for r in range(replicates)]``, run in ``w`` processes.

    Of the ``w = min(threads, replicates)`` processes, this one runs
    replicates 0, w, 2w, ...; worker ``k`` of ``w - 1``, forked from it
    through an explicit ``fork`` context, inherits ``fn`` and
    ``context``, is sent the residue class k, k + w, ... over a pipe, and
    sends its rows back.  The result list is in replicate order whatever
    ``threads`` is.  A failure in replicate ``r`` is raised as
    ``RuntimeError("replicate r failed: ...")``: the lowest-numbered one when
    several fail, where a worker that dies counts as failing at its first
    replicate.  Every worker is joined before this returns or raises.  A
    forked worker starts with every resident page of this process, even freed
    heap that glibc kept because a live block sits above it, so the free heap
    is handed back first: workers start from the live data alone.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, replicates)
    started = []
    try:
        if workers > 1:
            import multiprocessing  # serial runs never load it

            if _malloc_trim is not None:
                _malloc_trim(0)
            fork = multiprocessing.get_context("fork")
        for k in range(1, workers):
            conn, child = fork.Pipe()
            proc = fork.Process(target=_serve, args=(child, fn, context))
            proc.start()
            child.close()
            started.append((proc, conn))
            conn.send(range(k, replicates, workers))
        outcomes = [_run_share(fn, context, range(0, replicates, workers))]
        for k, (proc, conn) in enumerate(started, start=1):
            try:
                outcomes.append(conn.recv())
            except EOFError:
                proc.join()
                outcomes.append(([], RuntimeError(
                    f"replicate {k} was lost: its worker exited with code {proc.exitcode}")))
    except BaseException:
        for proc, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, conn in started:
            proc.join()
            conn.close()
    failed = [k + workers * len(rows) for k, (rows, failure) in enumerate(outcomes) if failure]
    if failed:
        raise outcomes[min(failed) % workers][1]
    results = [None] * replicates
    for k, (rows, _) in enumerate(outcomes):
        results[k::workers] = rows
    return results


def final_size_reproduction_number(attack_rate: float) -> float:
    """R0 for which the closed SIR epidemic infects ``attack_rate`` of everyone.

    Inverts the final-size relation ``1 - s_inf = 1 - exp(-R0 (1 - s_inf))``
    at ``1 - s_inf = attack_rate``, which solves in closed form.
    """
    _require(0.0 < attack_rate < 1.0, f"attack_rate must be in (0, 1), got {attack_rate}")
    return -math.log(1.0 - attack_rate) / attack_rate


def attack_fraction(r0: float) -> float:
    """Final epidemic size fraction for a given R0 (Newton iteration).

    Solves ``f(x) = x - 1 + exp(-R0 x) = 0`` for the attack fraction x.
    Returns 0 when R0 <= 1 (no epidemic in the deterministic limit).
    """
    if r0 <= 1.0:
        return 0.0
    x = 1.0 - 1.0 / r0  # always below the root, Newton converges monotonically
    for _ in range(100):
        fx = x - 1.0 + math.exp(-r0 * x)
        dfx = 1.0 - r0 * math.exp(-r0 * x)
        step = fx / dfx
        x -= step
        if abs(step) < _ATTACK_TOL:
            break
    return x


def calibrate_contact_rate(
    infection_prob: float = DEFAULT_INFECTION_PROB,
    illness_duration: float = DEFAULT_ILLNESS_DURATION,
) -> float:
    """Contact rate for which the deterministic model hits :data:`DEFAULT_ATTACK_RATE`.

    The observed data fixes the attack rate (61% of the study population)
    but not the contact rate, so the default contact rate is derived from
    ``R0 = contact_rate * infection_prob * illness_duration`` with R0 taken
    from the final-size relation.  With the default inputs this yields
    R0 ~= 1.5436 and ~5.654 contacts per day.
    """
    scale = infection_prob * illness_duration
    r0 = final_size_reproduction_number(DEFAULT_ATTACK_RATE)
    # scale > 0 first: r0 / 0.0 raises ZeroDivisionError
    _require(infection_prob > 0.0 and illness_duration > 0.0 and 0.0 < scale < math.inf
             and r0 / scale < math.inf,
             f"calibrating a contact rate needs infection_prob > 0, illness_duration > 0 and "
             f"a finite contact rate, got infection_prob={infection_prob}, "
             f"illness_duration={illness_duration}")
    return r0 / scale

