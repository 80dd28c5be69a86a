"""SIR epidemic simulation under two paradigms with ensemble variance analysis.

The package pairs a deterministic system-dynamics SIR integrator (with a
Monte-Carlo parameter-variation harness) against a stochastic agent-based
SIR simulator on Watts-Strogatz small-world contact networks, and provides
the statistics used to compare them: weekly quartile summaries, total
variation, and the Wilcoxon signed-rank test.
"""

__version__ = "0.1.0"

from .core import (
    EnsembleResult,
    SirParams,
    Trajectory,
    WeeklySeries,
    basic_reproduction_number,
    calibrate_contact_rate,
    default_params,
    derived_rates,
    replicate_rng,
)
from .sd import integrate, weekly_sample
from .montecarlo import VariationSpec, run_sd_ensemble, sample_params
from .network import NetworkGenParams, NetworkTopology, build_small_world
from .abm import run_abm, run_abm_ensemble
from .stats import WeeklySummary, WilcoxonResult, weekly_summary, wilcoxon_signed_rank

__all__ = [
    "EnsembleResult",
    "NetworkGenParams",
    "NetworkTopology",
    "SirParams",
    "Trajectory",
    "VariationSpec",
    "WeeklySeries",
    "WeeklySummary",
    "WilcoxonResult",
    "basic_reproduction_number",
    "build_small_world",
    "calibrate_contact_rate",
    "default_params",
    "derived_rates",
    "integrate",
    "replicate_rng",
    "run_abm",
    "run_abm_ensemble",
    "run_sd_ensemble",
    "sample_params",
    "weekly_sample",
    "weekly_summary",
    "wilcoxon_signed_rank",
]
