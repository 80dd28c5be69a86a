"""The paper's default experiment as one :class:`sirvar.core.SirParams`.

The CLI builds the same set from its flag defaults; tests use
:func:`default_params` to run that configuration, or a smaller population of it.
"""

from sirvar.core import (
    DEFAULT_ILLNESS_DURATION,
    DEFAULT_INFECTION_PROB,
    DEFAULT_POPULATION,
    SirParams,
    calibrate_contact_rate,
)


def default_params(population: int = DEFAULT_POPULATION, initial_infected: int = 1) -> SirParams:
    """Parameter set for the default experiment configuration."""
    return SirParams(
        population=population,
        contact_rate=calibrate_contact_rate(),
        infection_prob=DEFAULT_INFECTION_PROB,
        illness_duration=DEFAULT_ILLNESS_DURATION,
        initial_infected=initial_infected,
    )
