"""Reference-data ingestion and experiment-output persistence.

Reference series use a minimal CSV schema: a ``week,infected`` header, one
row per 1-indexed week, UTF-8, comma-separated, finite non-negative counts.

Saved runs are one directory per run.  In ``csv`` format the directory
holds ``series.csv`` or ``ensemble.csv``, a ``summary.csv`` for ensembles,
and ``metadata.json``; in ``json`` format everything lives in a single
``run.json``.  Metadata records the seeds, parameters, conventions and
versions needed to re-execute the run bit-identically, and
:func:`rerun_from_metadata` does exactly that.  The CLI's ensemble commands
also execute fresh runs through :func:`rerun_from_metadata`, so a saved
ensemble reruns through the code that wrote it.

Floats are written with ``repr``, which round-trips doubles exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

from . import __version__
from .abm import run_abm_ensemble
from .core import EnsembleResult, SirParams, WeeklySeries
from .montecarlo import VariationSpec, run_sd_ensemble
from .network import NetworkGenParams
from .sd import integrate, weekly_sample
from .stats import WeeklySummary

#: Name of the bundled, synthetic weekly reference file.  It is produced
#: by :func:`write_synthetic_reference` from the calibrated deterministic
#: run, with values rounded to whole counts.  It is a stand-in with the
#: right shape and scale, not observed surveillance data.
SYNTHETIC_REFERENCE_NAME = "synthetic_reference.csv"

_CONVENTIONS = {
    "weekly_sampling": "end-of-week prevalence: value w is the infected count at day 7*(w+1)",
    "quantile_rule": "linear interpolation between order statistics at position 1+(n-1)q",
    "wilcoxon": "paired signed-rank, zeros dropped, midrank ties, W=min(W+,W-), "
                "exact two-sided p for n<=20 else normal approximation",
}


class ReferenceFormatError(ValueError):
    """A reference CSV file violates the week,infected schema."""


@dataclass(frozen=True)
class ReferenceSeries:
    """Observed (or synthetic) weekly infected counts for one region."""

    region: str
    series: WeeklySeries
    provenance: str


def load_reference(path, region: str | None = None, provenance: str | None = None) -> ReferenceSeries:
    """Parse and validate a reference CSV file.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ReferenceFormatError
        On schema violations; the message names the offending line.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "week,infected":
        raise ReferenceFormatError(f"{path}: line 1: expected header 'week,infected'")
    values = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise ReferenceFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            week = int(parts[0])
            count = float(parts[1])
        except ValueError as exc:
            raise ReferenceFormatError(f"{path}: line {lineno}: {exc}") from None
        if week != len(values) + 1:
            raise ReferenceFormatError(
                f"{path}: line {lineno}: weeks must be 1-indexed and consecutive, got {week}"
            )
        if not 0 <= count < math.inf:
            raise ReferenceFormatError(
                f"{path}: line {lineno}: count must be finite and >= 0, got {count}")
        values.append(count)
    if not values:
        raise ReferenceFormatError(f"{path}: no data rows")
    series = WeeklySeries(weeks=len(values), infected=values)
    return ReferenceSeries(
        region=region if region is not None else path.stem,
        series=series,
        provenance=provenance if provenance is not None else f"loaded from {path}",
    )


def _fmt(value: float) -> str:
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def save_series(series: WeeklySeries, path) -> None:
    """Write a weekly series in the reference CSV schema."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("week,infected\n")
        for w, value in enumerate(series.infected, start=1):
            fh.write(f"{w},{_fmt(value)}\n")


def synthetic_reference_path() -> Path:
    """Path of the bundled synthetic reference file."""
    return Path(resources.files("sirvar").joinpath(f"data/{SYNTHETIC_REFERENCE_NAME}"))


def write_synthetic_reference(path, weeks: int = 15) -> None:
    """Generate the synthetic reference series at ``path``.

    Runs the calibrated deterministic model over ``weeks`` weeks and
    rounds each weekly value to the nearest whole count (banker's
    rounding, via ``round``).
    """
    from .core import default_params

    traj = integrate(default_params(), horizon_days=7.0 * weeks)
    weekly = weekly_sample(traj, weeks)
    rounded = WeeklySeries(weeks=weeks, infected=[round(v) for v in weekly.infected])
    save_series(rounded, path)


def make_metadata(kind: str, params: SirParams, weeks: int, seed: int, **extra) -> dict:
    """Run metadata sufficient for a bit-identical re-execution."""
    meta = {
        "kind": kind,
        "tool": "sirvar",
        "version": __version__,
        "created_unix": time.time(),
        "params": asdict(params),
        "weeks": weeks,
        "master_seed": seed,
        "conventions": dict(_CONVENTIONS),
    }
    meta.update(extra)
    return meta


def rerun_from_metadata(meta: dict, threads: int = 1):
    """Execute a run from its metadata alone: a fresh ensemble run or a rerun of a saved one.

    Returns a :class:`WeeklySeries` for deterministic runs and an
    :class:`EnsembleResult` for ensembles.
    """
    kind = meta["kind"]
    params = SirParams(**meta["params"])
    weeks = meta["weeks"]
    if kind == "sd":
        traj = integrate(params, horizon_days=7.0 * weeks, dt=meta["dt"])
        return weekly_sample(traj, weeks)
    if kind == "sd-mc":
        spec = VariationSpec(**{f.name: meta[f.name] for f in fields(VariationSpec)})
        return run_sd_ensemble(params, spec, weeks, dt=meta["dt"], threads=threads)
    if kind == "abm":
        gen = NetworkGenParams(k=meta["network_k"], p_rewire=meta["network_p_rewire"])
        return run_abm_ensemble(
            params, gen, weeks, replicates=meta["replicates"], master_seed=meta["master_seed"],
            threads=threads, reuse_network=meta["reuse_network"],
            exponential_recovery=meta["exponential_recovery"])
    raise ValueError(f"unknown run kind {kind!r}")


# ---------------------------------------------------------------------------
# run directories


def save_series_run(series: WeeklySeries, out_dir, metadata: dict, fmt: str = "csv") -> None:
    """Persist a deterministic single-series run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        save_series(series, out / "series.csv")
        with open(out / "metadata.json", "w", encoding="utf-8") as fh:
            json.dump(metadata, fh, indent=2)
    elif fmt == "json":
        payload = {"metadata": metadata, "series": [float(v) for v in series.infected]}
        with open(out / "run.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def save_ensemble(
    ensemble: EnsembleResult,
    summary: WeeklySummary,
    out_dir,
    metadata: dict,
    fmt: str = "csv",
) -> None:
    """Persist an ensemble run: replicate matrix, summary and metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = dict(metadata)
    meta["total_variation"] = summary.total_variation
    if fmt == "csv":
        with open(out / "ensemble.csv", "w", encoding="utf-8") as fh:
            header = ",".join(f"week_{w + 1}" for w in range(ensemble.weeks))
            fh.write(f"replicate,{header}\n")
            for r, values in enumerate(ensemble.matrix):
                row = ",".join(_fmt(v) for v in values)
                fh.write(f"{r},{row}\n")
        with open(out / "summary.csv", "w", encoding="utf-8") as fh:
            fh.write("week,median,q1,q3,iqr\n")
            rows = zip(summary.median, summary.q1, summary.q3, summary.iqr)
            for week, values in enumerate(rows, start=1):
                fh.write(f"{week},{','.join(_fmt(v) for v in values)}\n")
        with open(out / "metadata.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
    elif fmt == "json":
        payload = {
            "metadata": meta,
            "ensemble": ensemble.matrix.tolist(),
            "summary": {
                "median": summary.median.tolist(),
                "q1": summary.q1.tolist(),
                "q3": summary.q3.tolist(),
                "iqr": summary.iqr.tolist(),
                "total_variation": summary.total_variation,
            },
        }
        with open(out / "run.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def load_run(run_dir) -> dict:
    """Load a saved run directory (either format).

    Returns a dict with ``metadata`` plus either ``series``
    (:class:`WeeklySeries`) or ``ensemble`` (:class:`EnsembleResult`).
    """
    run = Path(run_dir)
    json_path = run / "run.json"
    if json_path.exists():
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        meta = payload["metadata"]
        if "series" in payload:
            values = payload["series"]
            return {"metadata": meta,
                    "series": WeeklySeries(weeks=len(values), infected=values)}
        return {"metadata": meta,
                "ensemble": EnsembleResult(payload["ensemble"], meta.get("clamped_draws", 0))}

    with open(run / "metadata.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    series_path = run / "series.csv"
    if series_path.exists():
        ref = load_reference(series_path)
        return {"metadata": meta, "series": ref.series}
    with open(run / "ensemble.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for raw in lines[1:]:
        if not raw.strip():
            continue
        parts = raw.split(",")
        rows.append([float(v) for v in parts[1:]])
    return {"metadata": meta, "ensemble": EnsembleResult(rows, meta.get("clamped_draws", 0))}
