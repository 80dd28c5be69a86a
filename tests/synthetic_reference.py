"""The bundled synthetic reference file: where it is and how it was made.

``test_io`` regenerates the file with :func:`write_synthetic_reference`
and compares it byte for byte with the bundled copy.  :func:`save_series`
writes any weekly series in the same schema.
"""

from importlib import resources
from pathlib import Path

from sirvar.core import WeeklySeries
from sirvar.io import _write_table
from sirvar.sd import integrate, week_indices

from paper_params import default_params

#: Name of the bundled reference file in ``sirvar/data``.
SYNTHETIC_REFERENCE_NAME = "synthetic_reference.csv"


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
    rows = week_indices(0.1, weeks)
    weekly = integrate(default_params(), rows[-1], 0.1)[rows, 1]
    save_series(WeeklySeries([round(v) for v in weekly]), path)
