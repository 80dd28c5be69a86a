"""Deterministic system-dynamics SIR integrator.

The model is the classic coupled system

    dS/dt = -a S I
    dI/dt =  a S I - b I
    dR/dt =  b I

integrated with fixed-step classical 4th-order Runge-Kutta, so weekly sampling
is exact and results bit-reproducible; the default step is 0.1 day.  A step is
accurate only while ``dt * max(1/D, c*p)`` is well below 1 (RK4 is stable up to
2.785): SD-MC picks each replicate's step from its rates, run-sd takes dt as given.

Days become steps in one place: :func:`week_indices` places each week's end
on the grid of step ``dt`` and rejects a grid that misses one, or that holds
more than :data:`MAX_STEPS` steps, about 10 s of RK4.  :func:`integrate` runs
a given whole number of steps, so a caller takes the count from the week
grid, the last week's row, and keeps the grid's rows of the array it returns.

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
the earlier loop, and the trajectory bytes and errors must equal it, except
where a step's R rounds below zero: this loop clips R as it clips S and I,
while the earlier one raises ``ValueError`` at a negative count.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .core import SirParams, derived_rates

#: Default integration step in days.
DEFAULT_DT = 0.1

#: Relative tolerance on |S + I + R - N| along a trajectory.
CONSERVATION_RTOL = 1e-6

#: The most steps of ``dt`` one trajectory may take; the step rule rejects more.
MAX_STEPS = 10**7

# Negative excursions beyond this (relative to N) mean the step is too large.
_NEGATIVE_RTOL = 1e-9


def integrate(params: SirParams, steps: int, dt: float = DEFAULT_DT) -> np.ndarray:
    """Integrate the SIR equations from (N - I0, I0, 0) for ``steps`` steps of ``dt``.

    Parameters
    ----------
    params : SirParams
        Epidemiological parameters; the ODE coefficients come from
        :func:`sirvar.core.derived_rates`.
    steps : int
        Whole steps to run, at least 1 and at most :data:`MAX_STEPS`; the
        last row of :func:`week_indices` for a run over whole weeks.
    dt : float
        Fixed step in days, > 0.

    Returns
    -------
    numpy.ndarray
        Shape ``(steps + 1, 3)``, float64 and read-only: row ``k`` is
        (S, I, R) at time ``k * dt`` days, row 0 the initial state.  Every
        row is in the valid region, roundoff negatives clipped to zero.  The
        loop's states are packed once into the bytes the array views.

    Raises
    ------
    ValueError
        If ``steps`` is below 1 or above :data:`MAX_STEPS`, or ``dt`` is
        not above 0 (NaN included), before any step.
    RuntimeError
        At the first step that leaves the valid region: a compartment below
        zero beyond roundoff, or not finite, or conservation drift above
        ``CONSERVATION_RTOL * N``.  A negative or NaN state ends the loop at
        once; drift alone is found after the last step.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in 1 .. MAX_STEPS = {MAX_STEPS}, got {steps}")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")

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
            # Clip roundoff-scale negatives so every returned row is non-negative.
            checked.append(k + 1)
            if s < 0.0:
                s = 0.0
            if i < 0.0:
                i = 0.0
            if r < 0.0:
                r = 0.0
        flat += (s, i, r)

    states = np.frombuffer(struct.pack(f"{len(flat)}d", *flat)).reshape(-1, 3)
    _check_states(states, checked, n, dt)
    return states


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
    """Raise ``RuntimeError`` at the first state of ``states`` (row ``k``
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
        raise RuntimeError(
            f"state left the valid region at step {step} (t={step * dt:.3f} d) "
            f"with dt={dt}: S={s:.6g}, I={i:.6g}, R={r:.6g}; "
            f"{'reduce dt' if finite else 'the state is not finite'}"
        )
    raise RuntimeError(
        f"conservation drift exceeds {CONSERVATION_RTOL * n:.3g} at step {step} with dt={dt}"
    )


def week_indices(dt: float, weeks: int) -> np.ndarray:
    """Indices of days 7, 14, ..., ``7 * weeks`` on the integration grid of step ``dt``.

    This is the one end-of-week rule and the one place days become steps: a
    run over ``weeks`` weeks integrates ``indices[-1]`` steps and keeps the
    rows ``indices``, as every SD caller does, and the ABM's one-day grid is
    ``week_indices(1.0, weeks)``.  ``7 * weeks`` days hold
    ``floor(7 * weeks / dt + 1e-12)`` whole steps of ``dt``; an accepted
    grid's last row equals that count.

    Raises
    ------
    ValueError
        If ``dt`` is not positive, ``weeks < 1``, ``7 * weeks`` days hold
        more than :data:`MAX_STEPS` steps, a week boundary is not a whole
        number of steps, or the last one's nearest step is past the whole
        steps in ``7 * weeks`` days.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if weeks < 1:
        raise ValueError(f"weeks must be >= 1, got {weeks}")
    days = 7.0 * weeks
    count = days / dt + 1e-12
    if not count < MAX_STEPS + 1:
        raise ValueError(f"dt={dt} divides {7 * weeks} days into more than "
                         f"MAX_STEPS = {MAX_STEPS} steps (weeks={weeks})")
    steps = math.floor(count)
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
