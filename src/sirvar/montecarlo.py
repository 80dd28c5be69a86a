"""Monte-Carlo ensemble harness for the system-dynamics model.

Each replicate redraws the flagged input parameters from a normal
distribution centred on the base value with standard deviation
``sigma_fraction * base``, then integrates the deterministic model.  The
four experiment scenarios are: vary illness duration, vary contact rate,
vary infection probability, and vary all three together.

The draw for a given parameter of a given replicate comes from the
:func:`sirvar.core.replicate_rng` stream keyed by the parameter's id, and
replicates run through :func:`sirvar.core.run_replicates`.  :mod:`sirvar.core`
owns the seed and size rules of both ensembles: as for the agent-based one, the
ensemble size and master seed are arguments of :func:`run_sd_ensemble`,
not part of a :class:`VariationSpec`.  ``_VARIED`` lists the parameters a
:class:`VariationSpec` can vary: its order is the draw order, and its
stream ids are part of the reproducibility contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import EnsembleResult, SirParams, check_seed, replicate_rng, run_replicates
from .sd import DEFAULT_DT, MAX_STEPS, integrate, week_indices

# Attempts at redrawing an out-of-domain value before clamping.
_MAX_REDRAWS = 100

# The largest dt * max(1/D, c*p) a replicate steps at, far below RK4's limit of 2.785.
_STIFF_LIMIT = 0.25

# (VariationSpec flag, SirParams field, stream id, lower, upper, lower bound
# open), in draw order.
_VARIED = (
    ("vary_illness", "illness_duration", 0, 0.0, math.inf, True),
    ("vary_contact", "contact_rate", 1, 0.0, math.inf, False),
    ("vary_infection", "infection_prob", 2, 0.0, 1.0, False),
)


@dataclass(frozen=True)
class VariationSpec:
    """Which parameters a Monte-Carlo experiment perturbs, and how much.

    ``sigma_fraction`` is the per-parameter standard deviation expressed
    as a fraction of the parameter's base value; it is finite and > 0.
    The ensemble size and seed are :func:`run_sd_ensemble` arguments.
    """

    vary_illness: bool = False
    vary_contact: bool = False
    vary_infection: bool = False
    sigma_fraction: float = 0.1

    def __post_init__(self):
        if not any(getattr(self, flag) for flag, *_ in _VARIED):
            raise ValueError("at least one vary flag must be set")
        if not self.sigma_fraction > 0.0:
            raise ValueError(f"sigma_fraction must be > 0, got {self.sigma_fraction}")
        if not self.sigma_fraction < math.inf:
            raise ValueError(f"sigma_fraction must be finite, got {self.sigma_fraction}")


def _draw_truncated(rng, mean, sigma, lower, upper, lower_open):
    """Normal draw restricted to [lower, upper]; redraw, then clamp.

    Returns (value, clamped).  Clamping is a last resort that in practice
    needs sigma_fraction of several hundred percent to trigger; open lower
    bounds clamp to a small positive fraction of the mean so derived rates
    stay finite.
    """
    value = mean
    for _ in range(_MAX_REDRAWS):
        value = rng.normal(mean, sigma)
        if lower_open:
            if lower < value <= upper:
                return value, False
        elif lower <= value <= upper:
            return value, False
    floor = lower + 1e-9 * abs(mean) if lower_open else lower
    return min(max(value, floor), upper), True


def _check_spread(base: SirParams, spec: VariationSpec) -> None:
    """Raise ``ValueError`` if a varied parameter's spread ``sigma_fraction * base``
    is not finite, naming the first such parameter in draw order."""
    for flag, field, *_ in _VARIED:
        mean = getattr(base, field)
        if getattr(spec, flag) and not spec.sigma_fraction * mean < math.inf:
            raise ValueError(f"sigma_fraction * {field} = {spec.sigma_fraction!r} * {mean!r} "
                             "is not finite")


def sample_params(base: SirParams, spec: VariationSpec, master_seed: int,
                  replicate_index: int) -> tuple[SirParams, int]:
    """Parameter set for one replicate of a seeded ensemble, and how many draws were clamped.

    Flagged parameters are redrawn from Normal(base, sigma_fraction * base)
    truncated to their valid domain; unflagged parameters are returned
    bit-identical to the base values.
    """
    drawn = {}
    clamped = 0
    for flag, field, stream, lower, upper, lower_open in _VARIED:
        if getattr(spec, flag):
            mean = getattr(base, field)
            rng = replicate_rng(master_seed, replicate_index, stream)
            drawn[field], c = _draw_truncated(
                rng, mean, spec.sigma_fraction * mean, lower, upper, lower_open)
            clamped += c
    return replace(base, **drawn), clamped


def run_sd_ensemble(
    base: SirParams,
    spec: VariationSpec,
    weeks: int,
    replicates: int,
    master_seed: int,
    dt: float = DEFAULT_DT,
    threads: int = 1,
) -> EnsembleResult:
    """Run the Monte-Carlo ensemble for one variation scenario.

    ``dt``, ``weeks``, each varied parameter's spread, which must be finite,
    ``master_seed``, ``replicates`` and ``threads`` are checked before any replicate
    runs, and a bad one raises ``ValueError``.  Replicate ``r``, one closure over these inputs
    for :func:`sirvar.core.run_replicates`, integrates ``sample_params(base, spec,
    master_seed, r)`` and keeps the week grid ``rows`` of :func:`sirvar.sd.week_indices`.
    Each replicate steps at ``dt / 2**k`` for the least ``k`` with
    ``(dt / 2**k) * max(1/D, c*p) <= 0.25`` for its drawn rates: it runs ``rows[-1] << k``
    steps and keeps rows ``rows << k``, or fails before any step if that is more
    than :data:`sirvar.sd.MAX_STEPS` steps, which :func:`sirvar.core.run_replicates`
    raises as that replicate's ``RuntimeError``.  The result counts the clamped
    draws of all replicates and is a pure function of the inputs, independent of
    ``threads``.
    """
    _check_spread(base, spec)
    rows = week_indices(dt, weeks)
    check_seed(master_seed)

    def replicate(r: int) -> tuple[np.ndarray, int]:
        params, clamped = sample_params(base, spec, master_seed, r)
        b, cp = params.recovery_rate, params.contact_rate * params.infection_prob
        k = 0  # halving keeps week w's end at step rows[w] << k
        while dt / 2**k * max(b, cp) > _STIFF_LIMIT:
            k += 1
            if rows[-1] << k > MAX_STEPS:
                raise ValueError(f"1/D = {b!r} and c*p = {cp!r} need a step of at most "
                                 f"{_STIFF_LIMIT / max(b, cp):.3g} days, and {7 * len(rows)} "
                                 f"days of it are more than MAX_STEPS = {MAX_STEPS} steps")
        return integrate(params, rows[-1] << k, dt / 2**k)[rows << k, 1], clamped

    results = run_replicates(replicate, replicates, threads)
    return EnsembleResult([row for row, _ in results],
                          clamped_draws=sum(clamped for _, clamped in results))
