"""Reference-data ingestion and experiment-output persistence.

Every weekly-count file (a ``week,infected`` reference series, and a run's
``series.csv``, ``ensemble.csv`` and ``summary.csv``) is one UTF-8,
comma-separated table: a header line, then rows of an index (weeks count
from 1, replicates from 0) and finite non-negative counts.  Every run file
is read through the same count check, which names the file.
The bundled ``data/synthetic_reference.csv`` is the calibrated deterministic
run's weekly prevalence, rounded to whole counts (``tests/synthetic_reference.py``
regenerates it): a stand-in with the right shape and scale, not observed data.

Saved runs are one directory per run, holding ``series.csv`` or
``ensemble.csv``, a ``summary.csv`` for ensembles, and ``metadata.json``.
Metadata records the seeds, parameters, conventions and versions needed to
re-execute the run bit-identically, and :func:`rerun_from_metadata` does
exactly that.  The CLI's ensemble commands also execute fresh runs through
it, so a saved ensemble reruns through the code that wrote it.  In memory every
weekly table is an :class:`EnsembleResult`; a reference or ``series.csv`` is its one row.

Floats are written with ``repr``, which round-trips doubles exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .abm import run_abm_ensemble
from .core import EnsembleResult, SirParams
from .montecarlo import VariationSpec, run_sd_ensemble
from .network import NetworkGenParams
from .sd import integrate, week_indices
from .stats import WeeklySummary

_CONVENTIONS = {
    "weekly_sampling": "end-of-week prevalence: value w is the infected count at day 7*(w+1)",
    "quantile_rule": "linear interpolation between order statistics at position 1+(n-1)q",
    "wilcoxon": "paired signed-rank, zeros dropped, midrank ties, W=min(W+,W-), "
                "exact two-sided p for n<=20 else normal approximation",
}

#: Version of each random-stream family (``sd_mc``: Monte-Carlo draws,
#: ``network``: rewiring, ``abm``: the day step).  A change to a family's
#: draws bumps it, and :func:`rerun_from_metadata` refuses other versions.
STREAM_VERSIONS = {"sd_mc": 1, "network": 2, "abm": 3}
# The stream families each run kind draws from.
_KIND_STREAMS = {"sd": (), "sd-mc": ("sd_mc",), "abm": ("network", "abm")}


class ReferenceFormatError(ValueError):
    """A reference file or saved run file violates the weekly-count table schema."""


def _check_counts(values, where: str):
    """Return ``values`` after checking that each is finite and >= 0."""
    for count in values:
        if not 0 <= count < math.inf:
            raise ReferenceFormatError(f"{where}: count must be finite and >= 0, got {count!r}")
    return values


def _read_table(path, header: str | None, first_index: int) -> list[list[float]]:
    """Rows of a weekly-count table without their index, checked against
    ``header`` (None accepts any) and indices counting up from ``first_index``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if header is not None and (not lines or lines[0].strip() != header):
        raise ReferenceFormatError(f"{path}: line 1: expected header '{header}'")
    columns = lines[0].split(",") if lines else []
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        where = f"{path}: line {lineno}"
        parts = raw.split(",")
        if len(parts) != len(columns):
            raise ReferenceFormatError(f"{where}: expected {len(columns)} fields, got {len(parts)}")
        try:
            index = int(parts[0])
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ReferenceFormatError(f"{where}: {exc}") from None
        if index != first_index + len(rows):
            raise ReferenceFormatError(
                f"{where}: {columns[0]}s must be {first_index}-indexed and consecutive, "
                f"got {index}")
        rows.append(_check_counts(values, where))
    if not rows:
        raise ReferenceFormatError(f"{path}: no data rows")
    return rows


def _fmt(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


def _write_table(path, header: str, first_index: int, rows) -> None:
    """Write a weekly-count table: ``header``, then each row's index and values,
    which are Python floats (an array's ``tolist()``), not numpy scalars."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for index, values in enumerate(rows, start=first_index):
            fh.write(f"{index},{','.join(map(_fmt, values))}\n")


def load_reference(path) -> EnsembleResult:
    """Parse and validate a reference CSV file (header ``week,infected``) as a (1, weeks) ensemble.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ReferenceFormatError
        On schema violations; the message names the offending line.
    """
    return EnsembleResult([[count for count, in _read_table(path, "week,infected", 1)]])


def make_metadata(kind: str, params: SirParams, weeks: int, seed: int | None, **extra) -> dict:
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
        "streams": dict(STREAM_VERSIONS),
    }
    meta.update(extra)
    return meta


def rerun_from_metadata(meta: dict, threads: int = 1) -> EnsembleResult:
    """Execute a run from its metadata alone: a fresh ensemble run or a rerun of a saved one.

    Returns an :class:`EnsembleResult` for every kind; a deterministic ``sd``
    run is its one row.  A run that records another stream version than
    :data:`STREAM_VERSIONS` (none counts as 1) raises ``ValueError``.
    """
    kind = meta["kind"]
    streams = meta.get("streams", {})
    for family in _KIND_STREAMS.get(kind, ()):
        version = streams.get(family, 1)
        if version != STREAM_VERSIONS[family]:
            raise ValueError(f"{kind} run records {family} stream version {version}, but this "
                             f"sirvar draws version {STREAM_VERSIONS[family]}")
    params = SirParams(**meta["params"])
    weeks = meta["weeks"]
    if kind == "sd":
        rows = week_indices(meta["dt"], weeks)
        return EnsembleResult([integrate(params, rows[-1], meta["dt"])[rows, 1]])
    if kind == "sd-mc":
        spec = VariationSpec(**{f.name: meta[f.name] for f in fields(VariationSpec)})
        return run_sd_ensemble(params, spec, weeks, replicates=meta["replicates"],
                               master_seed=meta["master_seed"], dt=meta["dt"], threads=threads)
    if kind == "abm":
        gen = NetworkGenParams(k=meta["network_k"], p_rewire=meta["network_p_rewire"])
        return run_abm_ensemble(
            params, gen, weeks, replicates=meta["replicates"], master_seed=meta["master_seed"],
            threads=threads, reuse_network=meta["reuse_network"],
            exponential_recovery=meta["exponential_recovery"])
    raise ValueError(f"unknown run kind {kind!r}")


# ---------------------------------------------------------------------------
# run directories


def _save_run(out_dir, metadata: dict, tables: dict) -> None:
    """Write each of ``tables`` (file name to ``(header, first_index, rows)``)
    and ``metadata.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for table, (header, first_index, rows) in tables.items():
        _write_table(out / table, header, first_index, rows)
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2)


def save_series_run(infected, out_dir, metadata: dict) -> None:
    """Persist a deterministic run: its 1-D weekly infected counts and metadata."""
    _save_run(out_dir, metadata,
              tables={"series.csv": ("week,infected", 1, zip(infected.tolist()))})


def save_ensemble(
    ensemble: EnsembleResult,
    summary: WeeklySummary,
    out_dir,
    metadata: dict,
) -> None:
    """Persist an ensemble run: replicate matrix, summary and metadata."""
    meta = {**metadata, "total_variation": summary.total_variation}
    columns = {name: getattr(summary, name).tolist() for name in ("median", "q1", "q3", "iqr")}
    matrix = ensemble.matrix.tolist()
    weeks = ",".join(f"week_{w + 1}" for w in range(ensemble.weeks))
    _save_run(out_dir, meta,
              tables={"ensemble.csv": (f"replicate,{weeks}", 0, matrix),
                      "summary.csv": (f"week,{','.join(columns)}", 1, zip(*columns.values()))})


def load_run(run_dir) -> dict:
    """Load a saved run directory, checking every count it holds.

    Returns a dict with ``metadata`` and ``ensemble`` (:class:`EnsembleResult`);
    a deterministic run's ``series.csv`` is read as the ensemble's one row.
    A bad count raises :class:`ReferenceFormatError` naming its file and line or row,
    and so does a table whose shape is not the metadata's ``replicates`` (1 for a
    single series) by ``weeks``, a ``metadata.json`` that is not a JSON object,
    a ``weeks`` or ``replicates`` that is not an integer >= 1, or a
    ``clamped_draws`` that is not an integer >= 0 (a missing one reads 0).
    """
    run = Path(run_dir)
    path = run / "metadata.json"
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    if type(meta) is not dict:
        raise ReferenceFormatError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    replicates, weeks = meta.get("replicates", 1), meta.get("weeks")
    clamped = meta.get("clamped_draws", 0)
    for name, value, low in (("weeks", weeks, 1), ("replicates", replicates, 1),
                             ("clamped_draws", clamped, 0)):
        if type(value) is not int or value < low:
            raise ReferenceFormatError(f"{path}: {name} must be an integer >= {low}, "
                                       f"got {value!r}")
    path = run / "series.csv"
    if path.exists():
        rows = load_reference(path).matrix
    else:
        path = run / "ensemble.csv"
        rows = _read_table(path, None, 0)
    if len(rows) != replicates:
        raise ReferenceFormatError(
            f"{path}: expected {replicates} rows (replicates in the metadata), got {len(rows)}")
    for r, row in enumerate(rows):
        if len(row) != weeks:
            raise ReferenceFormatError(
                f"{path}: row {r}: expected {weeks} counts (weeks in the metadata), "
                f"got {len(row)}")
    return {"metadata": meta, "ensemble": EnsembleResult(rows, clamped)}
