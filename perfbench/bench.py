"""Ensemble benchmark of the sirvar command-line interface.

Run from the root of a source checkout:

    python3 perfbench/bench.py --workload mc-all --seed 7 --seconds 25 --trace 0

Each sample of a workload runs its ``run-*`` command through
``sirvar.cli.main`` in this process, then ``compare`` of that output against
the bundled synthetic reference.  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` samples
alternate between untraced and traced and the last line holds the
per-layer metrics.  The line before it records the machine, the sample
count and the SHA-256 of the outputs.  See README.md in this directory.

The CPU speed of a shared host drifts by up to half while a run lasts, so
each timed sample is paired with the time of a fixed pure-Python kernel run
just before it, and ``wall_s`` and ``setup_s`` are reported at the speed at
which that kernel takes ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WEEKS = 15
DEFAULT_POPULATION = 52_910
# Fewest timed samples per run, however short --seconds is; trace mode
# takes this many untraced and this many traced.
MIN_SAMPLES = 3
SETUP_REPEATS = 5
# Speed at which times are reported: that at which kernel() takes this long.
REFERENCE_KERNEL_S = 0.015
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import sirvar.cli; sirvar.cli.build_parser()")


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    replicates: int
    threads: int


# Sizes are scaled so that one sample takes well under a second and the
# kernel run before it sees nearly the same CPU speed.
WORKLOADS = {
    "mc-all": Workload(
        ("run-mc", "--vary", "all"), replicates=250, threads=1),
    "abm-fresh": Workload(
        ("run-abm",), replicates=3, threads=1),
    "abm-shared": Workload(
        ("run-abm", "--reuse-network", "--initial-infected", "10"),
        replicates=30, threads=2),
}

# Smoke mode: tiny population and ensembles, for the benchmark's own tests.
SMOKE_POPULATION = 2000
SMOKE_REPLICATES = {"mc-all": 20, "abm-fresh": 4, "abm-shared": 6}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "core.EnsembleResult.matrix.calls": "count",
    "sd.integrate.calls": "count",
    "sd.integrate.s": "s",
    "sd.integrate.steps": "count",
    "sd.integrate.ns_per_step": "ns/step",
    "sd.weekly_sample.s": "s",
    "montecarlo.run_sd_ensemble.self_s": "s",
    "montecarlo.count_clamped.s": "s",
    "network.build_small_world.calls": "count",
    "network.build_small_world.s": "s",
    "network.build_small_world.ms_per_call": "ms/call",
    "network.rewired_edges": "count",
    "abm.run_abm.calls": "count",
    "abm.run_abm.s": "s",
    "abm.run_abm.ms_p50": "ms",
    "abm.run_abm.ms_p90": "ms",
    "abm.agent_days": "count",
    "abm.infectious_weeks": "count",
    "abm.outbreak_share": "frac",
    "abm.run_abm_ensemble.self_s": "s",
    "abm.pool.job_bytes": "B",
    "abm.pool.efficiency": "frac",
    "stats.weekly_summary.s": "s",
    "stats.median_series.s": "s",
    "stats.wilcoxon_signed_rank.s": "s",
    "io.save_ensemble.s": "s",
    "io.load_run.s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "trace.spans": "count",
    "trace.self_cover": "frac",
    "trace.overhead_frac": "frac",
}

# Counts that must read the same on every traced sample of one seed.
EXACT_COUNTS = ("sd.integrate.steps", "network.rewired_edges", "abm.pool.job_bytes",
                "abm.outbreak_share", "io.bytes_written", "io.bytes_read",
                "abm.agent_days", "abm.infectious_weeks", "core.EnsembleResult.matrix.calls")


def kernel() -> float:
    """Fixed pure-Python work: float arithmetic in a loop like the RK4 step
    of ``sd.integrate``, with some dict and list stores."""
    s, i, a, b, h = 52_000.0, 1.0, 1e-5, 0.3, 5e-5
    recent, trail = {}, []
    for k in range(60_000):
        s1 = -a * s * i
        i1 = a * s * i - b * i
        s += h * s1
        i += h * i1
        if k & 7 == 0:
            recent[k & 1023] = s
            trail.append(i)
    return s + i + len(recent) + len(trail)


def kernel_seconds(cpus=()) -> float:
    """Wall time of one kernel() call, a probe of the CPU speed right now.
    With ``cpus``, the mean over those CPUs, probed one at a time: the
    CPUs of a shared host drift apart, and pool workers run on all of them."""
    if not cpus:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def at_reference_speed(pairs) -> float:
    """Median of (wall time / kernel time) over (wall, kernel) pairs, in
    seconds at the speed at which the kernel takes REFERENCE_KERNEL_S."""
    return REFERENCE_KERNEL_S * statistics.median(wall / probe for wall, probe in pairs)


class Tally:
    """Commands and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)
        return ok


class Runner:
    """Runs samples of one workload through ``sirvar.cli.main``."""

    def __init__(self, cli, name: str, seed: int, out: Path, smoke: bool):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.out = out
        wl = WORKLOADS[name]
        self.replicates = SMOKE_REPLICATES[name] if smoke else wl.replicates
        self.population = SMOKE_POPULATION if smoke else DEFAULT_POPULATION
        self.extra = ("--population", str(self.population)) if smoke else ()
        self.tally = Tally()
        self.probe_cpus = sorted(os.sched_getaffinity(0))[:wl.threads] if wl.threads > 1 else ()
        self.reference = SRC / "sirvar" / "data" / "synthetic_reference.csv"

    def argv(self, threads: int, out: Path) -> list[str]:
        wl = WORKLOADS[self.name]
        return [*wl.command, *self.extra, "--replicates", str(self.replicates),
                "--threads", str(threads), "--seed", str(self.seed), "--out", str(out)]

    def _main(self, argv) -> int:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return self.cli.main([str(a) for a in argv])

    def sample(self, threads: int) -> tuple[float, float, float, float, str]:
        """One timed sample; returns (wall, kernel time just before it,
        start, end, output sha256)."""
        shutil.rmtree(self.out, ignore_errors=True)
        run_dir, cmp_dir = self.out / "run", self.out / "cmp"
        gc.collect()
        probe = kernel_seconds(self.probe_cpus)
        t0 = perf_counter()
        rc_run = self._main(self.argv(threads, run_dir))
        rc_cmp = self._main(["compare", "--reference", self.reference,
                             "--inputs", run_dir, "--out", cmp_dir])
        t1 = perf_counter()
        self.tally.check(rc_run == 0, f"{self.name}: run command exit code {rc_run}")
        self.tally.check(rc_cmp == 0, f"compare exit code {rc_cmp}")
        self.check_matrix(run_dir / "ensemble.csv")
        return t1 - t0, probe, t0, t1, output_sha256(run_dir, cmp_dir)

    def check_matrix(self, path: Path) -> None:
        try:
            matrix = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        except (OSError, ValueError) as exc:
            self.tally.check(False, f"cannot read {path.name}: {exc}")
            return
        self.tally.check(matrix.shape == (self.replicates, WEEKS),
                         f"matrix shape {matrix.shape}")
        self.tally.check(bool(np.isfinite(matrix).all() and (matrix >= 0).all()
                              and (matrix <= self.population).all()),
                         "matrix values finite and in [0, N]")

    def check_reference(self) -> None:
        """run-sd at paper defaults, rounded, equals the bundled reference."""
        out = self.out / "sd"
        rc = self._main(["run-sd", "--out", out])
        if not self.tally.check(rc == 0, f"run-sd exit code {rc}"):
            return
        got = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        want = np.loadtxt(self.reference, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        self.tally.check(got.shape == want.shape
                         and [round(v) for v in got] == want.tolist(),
                         "run-sd at defaults matches the synthetic reference")

    def data_bytes(self) -> tuple[int, int]:
        """(bytes written, bytes read) of data files; metadata.json is left
        out because it holds timestamps and elapsed times."""
        run_dir, cmp_dir = self.out / "run", self.out / "cmp"
        written = sum(p.stat().st_size for p in data_files(run_dir, cmp_dir))
        read = self.reference.stat().st_size + sum(
            p.stat().st_size for p in data_files(run_dir)
            if p.name in ("ensemble.csv", "run.json"))
        return written, read


def data_files(*dirs: Path) -> list[Path]:
    """Output files of the given run directories, except metadata.json."""
    return [p for d in dirs if d.is_dir() for p in sorted(d.iterdir())
            if p.name != "metadata.json"]


def output_sha256(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for path in data_files(*dirs):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(runner: Runner, seconds: float, trace: bool):
    """Time samples for ``seconds``; returns the untraced (wall, kernel time)
    pairs, the layer metrics and the output sha."""
    wl = WORKLOADS[runner.name]
    tally = runner.tally
    sha = None
    walls, traced_walls, traced = [], [], []
    start, wall = perf_counter(), 0.0
    # Stop before a sample that would end past the deadline, judged by the
    # last sample's length.
    while (perf_counter() - start + wall <= seconds or len(walls) < MIN_SAMPLES
           or (trace and len(traced_walls) < MIN_SAMPLES)):
        if trace and len(traced_walls) < len(walls):
            tracer = spans.Tracer()
            tracer.install()
            try:
                wall, probe, t0, t1, got = runner.sample(wl.threads)
            finally:
                tracer.uninstall()
            errors = spans.nesting_errors(tracer.spans, t0, t1)
            tally.check(not errors, "; ".join(errors[:3]))
            traced_walls.append((wall, probe))
            traced.append((wall, tracer, *runner.data_bytes()))
        else:
            wall, probe, _, _, got = runner.sample(wl.threads)
            walls.append((wall, probe))
        sha = sha or got
        tally.check(got == sha, f"{runner.name}: output differs between repeats of seed "
                                f"{runner.seed}")

    serial = None
    if wl.threads > 1:
        serial = spans.Tracer() if trace else None
        if serial:
            serial.install()
        try:
            *_, got = runner.sample(1)
        finally:
            if serial:
                serial.uninstall()
        tally.check(got == sha, f"{runner.name}: --threads {wl.threads} output differs "
                                "from the serial run")
    runner.check_reference()

    metrics = None
    if trace:
        per_sample = []
        for wall, tracer, written, read in traced:
            m = spans.layer_metrics(tracer, wall, runner.replicates, wl.threads, serial)
            m["io.bytes_written"], m["io.bytes_read"] = written, read
            per_sample.append(m)
        for key in EXACT_COUNTS:
            values = {m[key] for m in per_sample}
            tally.check(len(values) == 1, f"{key} differs between traced samples: {values}")
        metrics = {k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]}
        metrics["trace.overhead_frac"] = (at_reference_speed(traced_walls)
                                          / at_reference_speed(walls) - 1.0)
    return walls, metrics, sha


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(repeats: int) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser, at the reference speed.  This process and the interpreter are
    held to one CPU, so the kernel probes the CPU the interpreter runs on;
    each interpreter is paired with the mean of the probes before and after
    it, since it runs long enough for the speed to change."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        walls, probes = [], [kernel_seconds()]
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                           cwd=ROOT, stdin=subprocess.DEVNULL)
            walls.append(perf_counter() - t0)
            probes.append(kernel_seconds())
    finally:
        os.sched_setaffinity(0, allowed)
    return at_reference_speed(
        (wall, (before + after) / 2) for wall, before, after in zip(walls, probes, probes[1:]))


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def import_cli():
    """Import sirvar.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "sirvar" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sirvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sirvar.cli

    if Path(sirvar.cli.__file__).resolve().parent != SRC / "sirvar":
        raise SystemExit(f"bench: sirvar imported from {sirvar.cli.__file__}, not {SRC}")
    return sirvar.cli


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    cli = import_cli()
    out = ROOT / ".perfbench_out" / str(os.getpid())
    try:
        runner = Runner(cli, name, seed, out, smoke)
        walls, layer_values, sha = measure(runner, seconds, trace)
        if trace:
            metrics = {k: {"value": layer_values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        else:
            values = {"wall_s": at_reference_speed(walls), "peak_rss_mb": peak_rss_mb()}
            # After reading the peak RSS, so these interpreters are not counted.
            values["setup_s"] = setup_seconds(1 if smoke else SETUP_REPEATS)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_out").rmdir()
    tally = runner.tally
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(walls),
        "wall_s_samples": [wall for wall, _ in walls],
        "kernel_s_samples": [probe for _, probe in walls],
        "failed_frac": tally.failed / tally.attempted,
        "output_sha256": sha,
        "machine": machine(),
    }
    print(json.dumps(info))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="CLI --seed of every command")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny population and ensembles, for the benchmark's tests")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
