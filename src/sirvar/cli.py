"""Command-line driver for the simulation experiment matrix.

Four subcommands cover the experiment matrix: ``run-sd`` (deterministic
model), ``run-mc`` (Monte-Carlo parameter variation of the deterministic
model), ``run-abm`` (agent-based ensemble) and ``compare`` (signed-rank
validation against a reference series plus variance totals).

Every command writes one run directory under ``--out`` containing the
results and a ``metadata.json`` sufficient to reproduce them bit-exactly.
Only ``run-mc`` and ``run-abm`` take ``--seed``, ``--replicates`` and ``--threads``,
and no thread count affects any output value; ``run-sd`` draws nothing and
records a null master seed.  ``run-mc`` and ``run-abm`` build their
metadata first and execute it through :func:`sirvar.io.rerun_from_metadata`,
so a saved ensemble reruns through the code that wrote it.  Exit codes:
0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import __version__, io, stats
from .abm import check_transmission_mean
from .core import (
    DEFAULT_ILLNESS_DURATION,
    DEFAULT_INFECTION_PROB,
    DEFAULT_POPULATION,
    SirParams,
    calibrate_contact_rate,
)
from .montecarlo import VariationSpec, check_spread
from .network import NODE_LIMIT, NetworkGenParams
from .sd import DEFAULT_DT, MAX_STEPS, integrate, week_indices

_SCENARIOS = {
    "illness": dict(vary_illness=True),
    "contact": dict(vary_contact=True),
    "infection": dict(vary_infection=True),
    "all": dict(vary_illness=True, vary_contact=True, vary_infection=True),
}


class UsageError(ValueError):
    """An invalid flag value; maps to exit code 2."""


@contextmanager
def _building_inputs():
    """Report a value that a domain type rejects while the flags are turned
    into inputs as a usage error; later ValueErrors are runtime errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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
    """Parameters and their provenance from the flags every run command shares,
    after checking the flags that no domain type validates."""
    if args.weeks < 1:
        raise UsageError(f"--weeks must be >= 1, got {args.weeks}")
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
    with _building_inputs():
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


def _mc_inputs(args, params: SirParams) -> tuple[str, dict]:
    spec = VariationSpec(sigma_fraction=args.sigma, **_SCENARIOS[args.vary])
    week_indices(args.dt, args.weeks)
    try:
        check_spread(params, spec)
    except ValueError as exc:
        raise UsageError(f"--sigma: {exc}") from None
    return "sd-mc", dict(dt=args.dt, scenario=args.vary, **asdict(spec),
                         replicates=args.replicates)


def _abm_inputs(args, params: SirParams) -> tuple[str, dict]:
    if args.k >= args.population:
        raise UsageError(
            f"--k must be < --population, got k={args.k}, population={args.population}")
    if args.population >= NODE_LIMIT:
        raise UsageError(
            f"--population must be below 2**31 for run-abm, got {args.population}")
    gen = NetworkGenParams(k=args.k, p_rewire=args.p_rewire)
    try:
        week_indices(1.0, args.weeks)  # the daily grid run_abm_ensemble checks
    except ValueError:
        raise UsageError(
            f"--weeks {args.weeks} is {7 * args.weeks} days, and run-abm steps through at "
            f"most MAX_STEPS = {MAX_STEPS} days, so --weeks must be at most "
            f"{MAX_STEPS // 7}") from None
    check_transmission_mean(params)
    return "abm", dict(
        replicates=args.replicates,
        network_k=gen.k,
        network_p_rewire=gen.p_rewire,
        reuse_network=args.reuse_network,
        exponential_recovery=args.exponential_recovery,
        recovery_model="exponential" if args.exponential_recovery else "fixed-duration",
    )


def cmd_run_ensemble(args) -> int:
    """Run-mc and run-abm: execute the metadata that ``args.inputs`` builds, then save."""
    with _building_inputs():
        params, provenance = _params_from_args(args)
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
        if args.replicates < 1:
            raise UsageError(f"--replicates must be >= 1, got {args.replicates}")
        kind, inputs = args.inputs(args, params)
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
    p_sd.add_argument("--dt", type=float, default=DEFAULT_DT, help="integration step in days")
    p_sd.set_defaults(func=cmd_run_sd)

    p_mc = sub.add_parser("run-mc", formatter_class=fmt,
                          help="Monte-Carlo parameter-variation ensemble")
    _add_shared_flags(p_mc)
    _add_ensemble_flags(p_mc)
    p_mc.add_argument("--vary", choices=sorted(_SCENARIOS), required=True,
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
    except UsageError as exc:
        print(f"sirvar: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 1
        print(f"sirvar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
