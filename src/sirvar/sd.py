"""Deterministic system-dynamics SIR integrator.

The model is the classic coupled system

    dS/dt = -a S I
    dI/dt =  a S I - b I
    dR/dt =  b I

integrated with fixed-step classical 4th-order Runge-Kutta.  SIR is smooth
and non-stiff, so a fixed step keeps weekly sampling exact and results
bit-reproducible; the default step is 0.1 day.

Simulated time has one step rule: ``days`` hold ``floor(days / dt + 1e-12)``
whole steps of ``dt``, and every function here counts steps by it.

Each step checks only whether a compartment went negative or NaN.  Such a
step gets the full check at once, valid region and conservation drift, and
is either clipped to zero or ends the loop.  The other steps are checked
together over the finished trajectory, and the first failing step raises,
as a check of every step would.  So a failing run stops within one step of
its first negative or NaN state; drift alone shows after the whole horizon.

The order of the floating-point operations in a step is part of the output
contract, as the draw order is in :mod:`sirvar.abm` and
:mod:`sirvar.network`: each stage computes its infection flux
``x = a * S * I`` once, with ``dS = -x`` and ``dI = x - b * I``, and the
stage and step sums keep their textbook order.  Rewriting the step must
keep every rounding; ``reference_integrate`` in ``tests/test_sd.py`` holds
the earlier loop, and the trajectory bytes and errors must equal it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SirParams, Trajectory, WeeklySeries, derived_rates

#: Default integration step in days.
DEFAULT_DT = 0.1

#: Relative tolerance on |S + I + R - N| along a trajectory.
CONSERVATION_RTOL = 1e-6

# Negative excursions beyond this (relative to N) mean the step is too large.
_NEGATIVE_RTOL = 1e-9


class StepSizeError(RuntimeError):
    """The integration step pushed a state out of the valid region."""


class HorizonError(ValueError):
    """The trajectory is too short for the requested weekly sampling."""


def integrate(params: SirParams, horizon_days: float, dt: float = DEFAULT_DT) -> Trajectory:
    """Integrate the SIR equations from (N - I0, I0, 0) over ``horizon_days``.

    Parameters
    ----------
    params : SirParams
        Epidemiological parameters; the ODE coefficients come from
        :func:`sirvar.core.derived_rates`.
    horizon_days : float
        Length of the integration in days, >= dt.
    dt : float
        Fixed step in days.

    Returns
    -------
    Trajectory
        ``floor(horizon_days / dt + 1e-12) + 1`` states including the initial one.

    Raises
    ------
    ValueError
        If ``dt`` is not positive or leaves no whole step in ``horizon_days``.
    StepSizeError
        At the first step that leaves the valid region: a compartment below
        zero beyond roundoff, or not finite, or conservation drift above
        ``CONSERVATION_RTOL * N``.  A negative or NaN state ends the loop at
        once; drift alone is found after the last step.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    steps = _step_count(horizon_days, dt)
    if steps < 1:
        raise ValueError(f"dt={dt} exceeds horizon_days={horizon_days}")

    a, b = derived_rates(params)
    n = float(params.population)

    s = n - float(params.initial_infected)
    i = float(params.initial_infected)
    r = 0.0
    flat = [s, i, r]

    half = 0.5 * dt
    sixth = dt / 6.0
    checked = []  # steps checked, and clipped, in the loop

    for k in range(steps):
        # x is a stage's infection flux a*S*I: dS = -x, dI = x - b*I.
        x1 = a * s * i
        i1 = x1 - b * i
        ia = i + half * i1
        x2 = a * (s - half * x1) * ia
        i2 = x2 - b * ia
        ib = i + half * i2
        x3 = a * (s - half * x2) * ib
        i3 = x3 - b * ib
        ic = i + dt * i3
        x4 = a * (s - dt * x3) * ic
        ds = sixth * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
        di = sixth * (i1 + 2.0 * i2 + 2.0 * i3 + (x4 - b * ic))
        s -= ds
        i += di
        r -= di - ds  # dR = -(dS + dI); keeps the sum conserved to roundoff

        if not (s >= 0.0 and i >= 0.0 and r >= 0.0):  # NaN fails too
            if not (_in_region(s, i, r, n) and _conserved(s, i, r, n)):
                flat += (s, i, r)  # unclipped, for _check_states to report
                break
            # Clip roundoff-scale negatives so downstream types stay valid.
            checked.append(k + 1)
            if s < 0.0:
                s = 0.0
            if i < 0.0:
                i = 0.0
        flat += (s, i, r)

    states = np.fromiter(flat, float, len(flat)).reshape(-1, 3)
    _check_states(states, checked, n, dt)
    return Trajectory(dt=dt, states=states)


def _in_region(s, i, r, n):
    """No compartment below ``-_NEGATIVE_RTOL * n``, infinite or NaN; elementwise on arrays."""
    tol = _NEGATIVE_RTOL * n
    return ((-tol <= s) & (s < math.inf) & (-tol <= i) & (i < math.inf)
            & (-tol <= r) & (r < math.inf))


def _conserved(s, i, r, n):
    """``S + I + R`` within ``CONSERVATION_RTOL * n`` of ``n``, not NaN; elementwise on arrays."""
    tol = CONSERVATION_RTOL * n
    drift = s + i + r - n
    return (-tol <= drift) & (drift <= tol)


def _check_states(states, checked, n, dt) -> None:
    """Raise :class:`StepSizeError` at the first state of ``states`` (row ``k``
    is the state after step ``k``) that leaves the valid region or drifts,
    skipping the steps in ``checked``."""
    valid = _in_region(*states.T, n) & _conserved(*states.T, n)
    valid[checked] = True
    if valid.all():
        return
    step = int(valid.argmin())
    s, i, r = states[step].tolist()
    if not _in_region(s, i, r, n):
        finite = all(map(math.isfinite, (s, i, r)))
        raise StepSizeError(
            f"state left the valid region at step {step} (t={step * dt:.3f} d) "
            f"with dt={dt}: S={s:.6g}, I={i:.6g}, R={r:.6g}; "
            f"{'reduce dt' if finite else 'the state is not finite'}"
        )
    raise StepSizeError(
        f"conservation drift exceeds {CONSERVATION_RTOL * n:.3g} at step {step} with dt={dt}"
    )


def _step_count(days: float, dt: float) -> int:
    """Whole steps of ``dt`` in ``days``: ``floor(days / dt + 1e-12)``, the one step rule."""
    count = days / dt + 1e-12
    if not count < 2.0**63:
        raise ValueError(f"dt={dt} divides {days} days into more steps than an int64 index holds")
    return math.floor(count)


def week_indices(dt: float, weeks: int) -> np.ndarray:
    """Indices of days 7, 14, ..., ``7 * weeks`` on the integration grid of step ``dt``.

    This is the one end-of-week rule: :func:`weekly_sample` applies it to a
    trajectory, and :func:`sirvar.montecarlo.run_sd_ensemble` computes it once
    and applies it to every replicate's trajectory.

    Raises
    ------
    ValueError
        If ``dt`` is not positive, ``weeks < 1``, a week boundary is not a
        whole number of steps, or the last one's nearest step is past the
        ``floor(7 * weeks / dt + 1e-12)`` steps that :func:`integrate` runs.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if weeks < 1:
        raise ValueError(f"weeks must be >= 1, got {weeks}")
    steps = _step_count(7.0 * weeks, dt)
    indices = np.empty(weeks, dtype=int)
    for w in range(weeks):
        day = 7.0 * (w + 1)
        idx = round(day / dt)
        if not abs(idx * dt - day) <= 1e-9:  # NaN fails too: dt = inf gives 0 * inf
            raise ValueError(f"dt={dt} does not place day {day} on the integration grid")
        indices[w] = idx
    if idx > steps:
        raise ValueError(f"dt={dt} places day {day} at step {idx}, past the {steps} steps in it")
    return indices


def weekly_sample(traj: Trajectory, weeks: int) -> WeeklySeries:
    """Resample a trajectory onto the weekly reporting grid.

    ``infected[w]`` is the prevalence at day ``7 * (w + 1)``, i.e. at the
    end of each week.  It samples the ODE's trajectory and the ABM's one-day
    trajectory of daily counts alike, at the rows of :func:`week_indices`,
    the one end-of-week rule, so a trajectory from :func:`integrate` over
    ``7 * weeks`` days always holds them; a shorter one raises
    :class:`HorizonError`.  A Monte-Carlo ensemble indexes its replicates'
    trajectories by those rows directly.
    """
    indices = week_indices(traj.dt, weeks)
    if indices[-1] >= len(traj):
        raise HorizonError(f"trajectory ends at step {len(traj) - 1}, before week {weeks} ends")
    return WeeklySeries(traj.i[indices])
