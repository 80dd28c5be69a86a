"""The bundled synthetic reference file: where it is and how it was made.

``test_io`` regenerates the file with :func:`write_synthetic_reference`
and compares it byte for byte with the bundled copy.  :func:`save_series`
writes any weekly series in the same schema.
"""

from importlib import resources
from pathlib import Path

from sirvar.core import WeeklySeries, default_params
from sirvar.io import SYNTHETIC_REFERENCE_NAME, _write_table
from sirvar.sd import integrate, weekly_sample


def save_series(series: WeeklySeries, path) -> None:
    """Write a weekly series in the reference CSV schema that ``io.load_reference`` reads."""
    _write_table(path, "week,infected", 1, series.infected[:, None].tolist())


def synthetic_reference_path() -> Path:
    """Path of the bundled synthetic reference file."""
    return Path(resources.files("sirvar").joinpath(f"data/{SYNTHETIC_REFERENCE_NAME}"))


def write_synthetic_reference(path, weeks: int = 15) -> None:
    """Generate the synthetic reference series at ``path``.

    Runs the calibrated deterministic model over ``weeks`` weeks and
    rounds each weekly value to the nearest whole count (banker's
    rounding, via ``round``).
    """
    traj = integrate(default_params(), horizon_days=7.0 * weeks)
    weekly = weekly_sample(traj, weeks)
    save_series(WeeklySeries([round(v) for v in weekly.infected]), path)
