"""Command-line driver for the simulation experiment matrix.

Four subcommands cover the experiment matrix: ``run-sd`` (deterministic
model), ``run-mc`` (Monte-Carlo parameter variation of the deterministic
model), ``run-abm`` (agent-based ensemble) and ``compare`` (signed-rank
validation against a reference series plus variance totals).

Each run command writes one run directory under ``--out`` containing the
results and a ``metadata.json`` sufficient to reproduce them bit-exactly, and
``compare`` writes ``report.csv`` and ``report.txt`` there.
Only ``run-mc`` and ``run-abm`` take ``--seed``, ``--replicates`` and ``--threads``,
and no thread count affects any output value; ``run-sd`` draws nothing and
records a null master seed.  ``run-mc`` and ``run-abm`` build their
metadata first and execute it through :func:`sirvar.io.rerun_from_metadata`,
so a saved ensemble reruns through the code that wrote it, and the CLI
checks no flag itself.  Exit codes: 0 success, 1 runtime error, 2 usage
error.  :func:`main` alone picks the code: a ``ValueError`` from a run
command is a usage error, since the library raises one only for a bad input,
before any network, replicate or step, and every other failure, every
failure of ``compare`` included, is exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__, io, stats
from .core import (
    DEFAULT_ILLNESS_DURATION,
    DEFAULT_INFECTION_PROB,
    DEFAULT_POPULATION,
    SirParams,
    calibrate_contact_rate,
)
from .sd import DEFAULT_DT, integrate, week_indices

# What run-mc's --vary can name besides "all", in the metadata's order of vary_* flags.
_VARIED = ("illness", "contact", "infection")


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output directory for this run")
    parser.add_argument("--weeks", type=int, default=15, help="reporting horizon in weeks")
    parser.add_argument("--population", type=int, default=DEFAULT_POPULATION,
                        help="total number of individuals")
    parser.add_argument("--contact-rate", type=float, default=None,
                        help="contacts per individual per day "
                             "(default: calibrated to the 61%% attack rate)")
    parser.add_argument("--infection-prob", type=float, default=DEFAULT_INFECTION_PROB,
                        help="per-contact transmission probability")
    parser.add_argument("--illness-duration", type=float, default=DEFAULT_ILLNESS_DURATION,
                        help="infectious period in days")
    parser.add_argument("--initial-infected", type=int, default=1,
                        help="number of index cases")


def _add_ensemble_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42, help="master seed (unsigned 64-bit)")
    parser.add_argument("--replicates", type=int, default=100, help="ensemble size")
    parser.add_argument("--threads", type=int, default=1,
                        help="processes that run replicates, this one included "
                             "(never changes results)")


def _params_from_args(args) -> tuple[SirParams, dict]:
    """Parameters and their provenance from the flags every run command shares."""
    if args.contact_rate is None:
        contact_rate = calibrate_contact_rate(
            infection_prob=args.infection_prob,
            illness_duration=args.illness_duration,
        )
        contact_src = "calibrated to 61% deterministic attack rate"
    else:
        contact_rate = args.contact_rate
        contact_src = "user"
    params = SirParams(
        population=args.population,
        contact_rate=contact_rate,
        infection_prob=args.infection_prob,
        illness_duration=args.illness_duration,
        initial_infected=args.initial_infected,
    )
    provenance = {
        "population": "study region" if args.population == DEFAULT_POPULATION else "user",
        "infection_prob": "data fit" if args.infection_prob == DEFAULT_INFECTION_PROB else "user",
        "illness_duration": "data fit" if args.illness_duration == DEFAULT_ILLNESS_DURATION else "user",
        "contact_rate": contact_src,
    }
    return params, provenance


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def cmd_run_sd(args) -> int:
    params, provenance = _params_from_args(args)
    rows = week_indices(args.dt, args.weeks)
    _, i, r = integrate(params, rows[-1], args.dt).T
    meta = io.make_metadata(
        "sd", params, args.weeks, None,
        dt=args.dt,
        parameter_provenance=provenance,
        peak_infected=float(i.max()),
        peak_day=float(i.argmax() * args.dt),
        cumulative_recovered_final=float(r[-1]),
    )
    io.save_series_run(i[rows], args.out, meta)
    print(f"run-sd: wrote {args.weeks} weekly values to {args.out} "
          f"(peak infected {i.max():.0f} on day {i.argmax() * args.dt:.1f})")
    return 0


def _mc_inputs(args) -> tuple[str, dict]:
    flags = {f"vary_{name}": args.vary in (name, "all") for name in _VARIED}
    return "sd-mc", dict(dt=args.dt, **flags, sigma_fraction=args.sigma,
                         replicates=args.replicates)


def _abm_inputs(args) -> tuple[str, dict]:
    return "abm", dict(
        replicates=args.replicates,
        network_k=args.k,
        network_p_rewire=args.p_rewire,
        reuse_network=args.reuse_network,
        exponential_recovery=args.exponential_recovery,
    )


def cmd_run_ensemble(args) -> int:
    """Run-mc and run-abm: execute the metadata that ``args.inputs`` builds, then save."""
    params, provenance = _params_from_args(args)
    kind, inputs = args.inputs(args)
    meta = io.make_metadata(kind, params, args.weeks, args.seed, **inputs)
    start = time.perf_counter()
    ensemble = io.rerun_from_metadata(meta, threads=args.threads)
    elapsed = time.perf_counter() - start
    meta.update(
        clamped_draws=ensemble.clamped_draws,
        threads=args.threads,
        cpu_count=_cpu_count(),
        elapsed_seconds=elapsed,
        parameter_provenance=provenance,
    )
    summary = stats.weekly_summary(ensemble)
    io.save_ensemble(ensemble, summary, args.out, meta)
    scenario = f"[{args.vary}]" if kind == "sd-mc" else ""
    print(f"{args.command}{scenario}: {ensemble.replicates}x{args.weeks} matrix in {args.out}, "
          f"total variation {summary.total_variation:.0f}, {elapsed:.2f}s")
    return 0


def _compare_row(name: str, run: dict, reference) -> dict:
    # A deterministic run is a one-row ensemble: its weekly median is that row.
    summary = stats.weekly_summary(run["ensemble"])
    result = stats.wilcoxon_signed_rank(summary.median, reference.matrix[0])
    deterministic = run["metadata"].get("kind") == "sd"
    return {
        "input": name,
        "kind": "deterministic" if deterministic else "ensemble",
        "n_effective": result.n_effective,
        "w_statistic": result.w_statistic,
        "p_value": result.p_value,
        "reject_at_5pct": result.reject_at_5pct,
        "total_variation": "" if deterministic else summary.total_variation,
    }


def cmd_compare(args) -> int:
    reference = io.load_reference(args.reference)
    rows = []
    for input_dir in args.inputs:
        run = io.load_run(input_dir)
        weeks = run["metadata"]["weeks"]
        if weeks != reference.weeks:
            raise ValueError(f"{input_dir}: week count mismatch: {weeks} weeks, "
                             f"the reference has {reference.weeks}")
        rows.append(_compare_row(Path(input_dir).name, run, reference))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    columns = ["input", "kind", "n_effective", "w_statistic", "p_value",
               "reject_at_5pct", "total_variation"]
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")

    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    lines = [f"reference: {Path(args.reference).stem} ({reference.weeks} weeks)"]
    lines.append("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
    text = "\n".join(lines)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirvar",
        description="SIR epidemic simulation: deterministic, Monte-Carlo and agent-based, "
                    "with ensemble variance analysis",
    )
    parser.add_argument("--version", action="version", version=f"sirvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_sd = sub.add_parser("run-sd", formatter_class=fmt,
                          help="deterministic system-dynamics run")
    _add_shared_flags(p_sd)
    p_sd.add_argument("--dt", type=float, default=DEFAULT_DT, help="RK4 step in days, as given: "
                      "accurate while dt * max(1/D, c*p) is well below 1 (stable up to 2.785)")
    p_sd.set_defaults(func=cmd_run_sd)

    p_mc = sub.add_parser("run-mc", formatter_class=fmt,
                          help="Monte-Carlo parameter-variation ensemble")
    _add_shared_flags(p_mc)
    _add_ensemble_flags(p_mc)
    p_mc.add_argument("--vary", choices=sorted([*_VARIED, "all"]), required=True,
                      help="which parameter(s) to vary")
    p_mc.add_argument("--sigma", type=float, default=0.1,
                      help="standard deviation as a fraction of each varied parameter's mean")
    p_mc.add_argument("--dt", type=float, default=DEFAULT_DT, help="integration step in days")
    p_mc.set_defaults(func=cmd_run_ensemble, inputs=_mc_inputs)

    p_abm = sub.add_parser("run-abm", formatter_class=fmt,
                           help="agent-based ensemble on a small-world network")
    _add_shared_flags(p_abm)
    _add_ensemble_flags(p_abm)
    p_abm.add_argument("--k", type=int, default=10, help="even mean degree of the lattice")
    p_abm.add_argument("--p-rewire", type=float, default=0.1,
                       help="Watts-Strogatz rewiring probability")
    p_abm.add_argument("--reuse-network", action="store_true",
                       help="share one topology across replicates instead of regenerating")
    p_abm.add_argument("--exponential-recovery", action="store_true",
                       help="recover with daily probability 1/duration instead of a fixed duration")
    p_abm.set_defaults(func=cmd_run_ensemble, inputs=_abm_inputs)

    p_cmp = sub.add_parser("compare", formatter_class=fmt,
                           help="signed-rank validation of runs against a reference series")
    p_cmp.add_argument("--reference", required=True, help="reference CSV (week,infected)")
    p_cmp.add_argument("--inputs", nargs="+", required=True, help="run directories to compare")
    p_cmp.add_argument("--out", required=True, help="output directory for the report")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        usage = isinstance(exc, ValueError) and args.func is not cmd_compare
        print(f"sirvar: {'usage error' if usage else 'error'}: {exc}", file=sys.stderr)
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
