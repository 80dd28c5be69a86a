import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import sirvar
import sirvar.core
from sirvar.core import (
    EnsembleResult,
    SirParams,
    attack_fraction,
    basic_reproduction_number,
    calibrate_contact_rate,
    derived_rates,
    final_size_reproduction_number,
    run_replicates,
)

from paper_params import default_params


def make_params(**overrides):
    base = dict(population=1000, contact_rate=5.0, infection_prob=0.1,
                illness_duration=4.0, initial_infected=1)
    base.update(overrides)
    return SirParams(**base)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(population=0),
        dict(population=-5),
        dict(contact_rate=-0.1),
        dict(infection_prob=-0.01),
        dict(infection_prob=1.01),
        dict(illness_duration=0.0),
        dict(illness_duration=-1.0),
        dict(initial_infected=-1),
        dict(initial_infected=1001),
        dict(contact_rate=math.inf),
        dict(population=300.5),
        dict(initial_infected=1.5),
    ])
    def test_out_of_range_params_rejected(self, bad):
        with pytest.raises(ValueError):
            make_params(**bad)

    @pytest.mark.parametrize("field, value, what", [
        ("population", True, "an integer"),
        ("initial_infected", True, "an integer"),
        ("initial_infected", np.True_, "an integer"),
        ("population", "300", "an integer"),
        ("contact_rate", True, "a number"),
        ("contact_rate", "5", "a number"),
        ("infection_prob", False, "a number"),
        ("illness_duration", "4.2", "a number"),
        ("illness_duration", None, "a number"),
    ])
    def test_a_bool_or_string_is_named(self, field, value, what):
        # a bool would otherwise pass as the count or real 1 or 0, and a string
        # would fail its range check with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {what}, got {value!r}")):
            make_params(**{field: value})

    @pytest.mark.parametrize("make, message", [
        (lambda: make_params(population="300"), "population must be an integer, got '300'"),
        (lambda: make_params(contact_rate="5"), "contact_rate must be a number, got '5'"),
        (lambda: make_params(population=0), "population must be >= 1, got 0"),
        (lambda: make_params(contact_rate=-0.1), "contact_rate must be >= 0, got -0.1"),
        (lambda: make_params(contact_rate=math.inf), "contact_rate must be finite, got inf"),
        (lambda: make_params(infection_prob=1.01), "infection_prob must be in [0, 1], got 1.01"),
        (lambda: make_params(illness_duration=0.0), "illness_duration must be > 0, got 0.0"),
        (lambda: make_params(initial_infected=1001),
         "initial_infected must be in [0, population], got 1001"),
        (lambda: EnsembleResult([1.0, 2.0]),
         "matrix must have shape (replicates >= 1, weeks >= 1), got (2,)"),
        (lambda: EnsembleResult([[1.0, -2.0]]), "weekly infected counts must be non-negative"),
        (lambda: final_size_reproduction_number(1.0), "attack_rate must be in (0, 1), got 1.0"),
        (lambda: calibrate_contact_rate(infection_prob=0.0),
         "calibrating a contact rate needs infection_prob > 0, illness_duration > 0 and a "
         "finite contact rate, got infection_prob=0.0, illness_duration=4.2"),
    ], ids=["integer", "number", "population", "contact-rate", "finite-contact-rate",
            "infection-prob", "illness-duration", "initial-infected", "matrix-shape",
            "non-negative-counts", "attack-rate", "calibration"])
    def test_each_rule_raises_its_message_in_full(self, make, message):
        with pytest.raises(ValueError) as failure:
            make()
        assert str(failure.value) == message

    def test_any_integer_or_real_accepted(self):
        params = make_params(population=np.int64(1000), initial_infected=np.int32(2),
                             contact_rate=5, infection_prob=np.float64(0.1),
                             illness_duration=np.float32(4.0))
        assert derived_rates(params) == (5 * 0.1 / 1000, 0.25)

    def test_boundary_values_accepted(self):
        make_params(infection_prob=0.0)
        make_params(infection_prob=1.0)
        make_params(contact_rate=0.0)
        assert make_params(illness_duration=math.inf).recovery_rate == 0.0  # no recovery
        make_params(initial_infected=0)
        make_params(initial_infected=1000)

    def test_ensemble_requires_equal_horizons(self):
        with pytest.raises(ValueError):
            EnsembleResult([[1.0, 2.0], [1.0, 2.0, 3.0]])
        for bad in ([1.0, 2.0], np.zeros((0, 2)), np.zeros((2, 0)), [[1.0, -2.0]]):
            with pytest.raises(ValueError):
                EnsembleResult(bad)


class TestDerivedRates:
    def test_unit_case(self):
        a, b = derived_rates(make_params(population=1, contact_rate=1.0,
                                         infection_prob=1.0, illness_duration=1.0,
                                         initial_infected=0))
        assert a == 1.0 and b == 1.0

    def test_study_parameters(self):
        params = make_params(population=52910, contact_rate=5.65,
                             infection_prob=0.065, illness_duration=4.2)
        a, b = derived_rates(params)
        assert a == 5.65 * 0.065 / 52910
        assert a == pytest.approx(6.941e-6, rel=1e-3)
        assert b == pytest.approx(0.2381, rel=1e-3)

    def test_zero_contact_means_zero_transmission(self):
        a, b = derived_rates(make_params(contact_rate=0.0, illness_duration=2.5))
        assert a == 0.0 and b == 1.0 / 2.5

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(10, 10**6))
            c = float(rng.uniform(0.1, 30.0))
            p = float(rng.uniform(0.001, 1.0))
            d = float(rng.uniform(0.5, 30.0))
            a1, _ = derived_rates(make_params(population=n, contact_rate=c,
                                              infection_prob=p, illness_duration=d,
                                              initial_infected=0))
            a2, _ = derived_rates(make_params(population=2 * n, contact_rate=c,
                                              infection_prob=p, illness_duration=d,
                                              initial_infected=0))
            a3, _ = derived_rates(make_params(population=n, contact_rate=2 * c,
                                              infection_prob=p, illness_duration=d,
                                              initial_infected=0))
            assert a2 == pytest.approx(a1 / 2.0, rel=1e-12)
            assert a3 == pytest.approx(2.0 * a1, rel=1e-12)


class TestCalibration:
    def test_final_size_r0_matches_bisection_oracle(self):
        # independent route: bisect g(r0) = 1 - exp(-r0 * 0.61) - 0.61 on [1, 5]
        target = 0.61

        def g(r0):
            return 1.0 - math.exp(-r0 * target) - target

        lo, hi = 1.0, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        r0_oracle = 0.5 * (lo + hi)
        assert final_size_reproduction_number(target) == pytest.approx(r0_oracle, abs=1e-12)
        assert final_size_reproduction_number(target) == pytest.approx(1.5436, abs=5e-4)

    def test_attack_fraction_inverts_final_size(self):
        for attack in (0.2, 0.5, 0.61, 0.9):
            r0 = final_size_reproduction_number(attack)
            assert attack_fraction(r0) == pytest.approx(attack, abs=1e-10)

    def test_attack_fraction_below_threshold_is_zero(self):
        assert attack_fraction(0.8) == 0.0
        assert attack_fraction(1.0) == 0.0

    def test_calibrated_contact_rate(self):
        c = calibrate_contact_rate()
        assert c == pytest.approx(5.654, abs=2e-3)
        params = default_params()
        assert params.contact_rate == c
        assert basic_reproduction_number(params) == pytest.approx(1.5436, abs=5e-4)

    @pytest.mark.parametrize("bad", [dict(infection_prob=0.0), dict(illness_duration=0.0),
                                     dict(illness_duration=-1.0), dict(infection_prob=1e-320),
                                     dict(infection_prob=1e-200, illness_duration=1e-200),
                                     dict(illness_duration=math.inf)])
    def test_calibration_rejects_non_positive_inputs(self, bad):
        with pytest.raises(ValueError, match="calibrating"):
            calibrate_contact_rate(**bad)


class TestContainers:
    def test_ensemble_matrix(self):
        rows = [[r, r + 1] for r in range(3)]
        ens = EnsembleResult(rows)
        assert (ens.replicates, ens.weeks, ens.clamped_draws) == (3, 2, 0)
        assert np.array_equal(ens.matrix, rows)
        rows[0][0] = 9  # the ensemble holds its own frozen copy
        assert ens.matrix[0, 0] == 0
        with pytest.raises(ValueError):
            ens.matrix[0, 0] = 5.0


def _fail_at_three(scale, r):
    if r == 3:
        raise ValueError(f"bad draw for {scale}")
    return r * scale


class TestRunReplicates:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_results_in_replicate_order(self, threads):
        assert run_replicates(partial(_fail_at_three, 10), 3, threads=threads) == [0, 10, 20]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_is_tagged_with_its_replicate(self, threads):
        with pytest.raises(RuntimeError, match="replicate 3 failed: bad draw for 10"):
            run_replicates(partial(_fail_at_three, 10), 6, threads=threads)

    def test_needs_a_replicate(self):
        with pytest.raises(ValueError):
            run_replicates(partial(_fail_at_three, 10), 0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_closure_runs_in_forked_workers(self, threads):
        # no pickler takes a lambda, so a worker can only run one it inherited
        scale = 7
        assert run_replicates(lambda r: r * scale, 7, threads=threads) == [
            r * scale for r in range(7)]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_needs_a_thread(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_replicates(partial(_fail_at_three, 10), 3, threads=threads)


def _pid(r):
    return os.getpid()


def _fail_in_workers(failing, r):
    if r in failing:
        raise ValueError(f"bad draw {r}")
    return r


def _exit_in_worker(r):
    if r == 1:
        os._exit(3)
    if r == 2:
        time.sleep(0.3)  # still running when the first worker is found dead
    return r


class TestPoolSize:
    def test_no_more_workers_than_replicates(self):
        for replicates, threads in [(2, 8), (5, 3)]:
            pids = run_replicates(_pid, replicates, threads=threads)
            assert len(set(pids)) == min(threads, replicates)
            assert os.getpid() in pids

    def test_one_replicate_runs_without_a_pool(self):
        assert run_replicates(_pid, 1, threads=8) == [os.getpid()]

    # with 3 processes, replicate 3 fails in this one and 1 and 2 in workers
    @pytest.mark.parametrize("failing, lowest", [({1, 2}, 1), ({2, 3}, 2)])
    def test_lowest_failed_replicate_is_raised(self, failing, lowest):
        with pytest.raises(RuntimeError, match=f"replicate {lowest} failed: bad draw {lowest}"):
            run_replicates(partial(_fail_in_workers, failing), 6, threads=3)

    def test_dead_worker_is_raised_and_every_worker_joined(self):
        with pytest.raises(RuntimeError, match="replicate 1 was lost: .* exited with code 3"):
            run_replicates(_exit_in_worker, 3, threads=3)
        assert multiprocessing.active_children() == []


# Run in a fresh interpreter, whose heap holds nothing freed yet.
_PINNED_HEAP = """
import numpy as np
from sirvar.core import run_replicates

def rss_anon_mb(r=0):
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) / 1024 for line in fh if line.startswith("RssAnon:"))

baseline = rss_anon_mb()
big = np.ones(529_100)
del big  # freeing a large mapped block raises glibc's mmap threshold
temps = [np.ones(529_100) for _ in range(5)]  # about 21 MB, now on the heap
keep = np.ones(200_000)  # a live block above them
del temps
print(baseline, rss_anon_mb(), *run_replicates(rss_anon_mb, replicates=2, threads=2))
"""


@pytest.mark.skipif(sirvar.core._malloc_trim is None or not os.path.exists("/proc/self/status"),
                    reason="needs glibc and /proc")
def test_pool_workers_do_not_inherit_freed_heap():
    """Temporaries freed under a live block stay resident in glibc's heap;
    a forked worker would start with them unless the pool trims first."""
    package_root = str(Path(sirvar.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {package_root!r})\n" + _PINNED_HEAP
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    baseline, pinned, *workers = map(float, done.stdout.split())
    if pinned < baseline + 15:
        pytest.skip("the heap returned the temporaries by itself")
    assert max(workers) < pinned - 10
