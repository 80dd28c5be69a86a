import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sirvar.sd
from sirvar.core import SirParams, attack_fraction, basic_reproduction_number, \
    derived_rates
from sirvar.sd import CONSERVATION_RTOL, MAX_STEPS, integrate, week_indices

from paper_params import default_params


def rk4_reference(params, steps, dt):
    """Textbook RK4 on the vector (S, I, R) with the SIR right-hand side."""
    a, b = derived_rates(params)

    def rhs(y):
        infection, recovery = a * y[0] * y[1], b * y[1]
        return np.array([-infection, infection - recovery, recovery])

    y = np.array([params.population - params.initial_infected, params.initial_infected, 0.0])
    out = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def reference_integrate(params, horizon_days, dt, clipped=None):
    """The package's earlier step loop, kept as the reference ``integrate`` must
    equal bit for bit, in states and in errors.

    It evaluates each stage's S derivative as ``-a * s * i`` apart from the
    I derivative's ``a * s * i``, and checks the state with ``abs``.  Steps
    whose state it clips are appended to ``clipped`` when that is a list.
    """
    a, b = derived_rates(params)
    n = float(params.population)
    steps = int(np.floor(horizon_days / dt + 1e-12))
    out = np.empty((steps + 1, 3), dtype=float)
    s = n - float(params.initial_infected)
    i = float(params.initial_infected)
    r = 0.0
    out[0] = (s, i, r)
    neg_tol = 1e-9 * n
    cons_tol = CONSERVATION_RTOL * n
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(steps):
        s1, i1 = -a * s * i, a * s * i - b * i
        sa, ia = s + half * s1, i + half * i1
        s2, i2 = -a * sa * ia, a * sa * ia - b * ia
        sb, ib = s + half * s2, i + half * i2
        s3, i3 = -a * sb * ib, a * sb * ib - b * ib
        sc, ic = s + dt * s3, i + dt * i3
        s4, i4 = -a * sc * ic, a * sc * ic - b * ic
        ds = sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        di = sixth * (i1 + 2.0 * i2 + 2.0 * i3 + i4)
        s += ds
        i += di
        r -= ds + di
        if s < -neg_tol or i < -neg_tol or r < -neg_tol:
            raise RuntimeError(
                f"state left the valid region at step {k + 1} (t={(k + 1) * dt:.3f} d) "
                f"with dt={dt}: S={s:.6g}, I={i:.6g}, R={r:.6g}; reduce dt"
            )
        if abs(s + i + r - n) > cons_tol:
            raise RuntimeError(
                f"conservation drift exceeds {cons_tol:.3g} at step {k + 1} with dt={dt}"
            )
        if (s < 0.0 or i < 0.0) and clipped is not None:
            clipped.append(k + 1)
        if s < 0.0:
            s = 0.0
        if i < 0.0:
            i = 0.0
        out[k + 1] = (s, i, r)
    if not (out >= 0.0).all():
        raise ValueError("trajectory contains negative compartment counts")
    return out


def steps_in(days, dt):
    """Whole steps of ``dt`` in ``days``, as ``reference_integrate`` counts them."""
    return math.floor(days / dt + 1e-12)


def outcome(integrator, params, horizon_days, dt, **kwargs):
    """The bytes of a trajectory's states, or the type and message of its error.

    ``integrate`` is given the steps that ``reference_integrate`` takes in
    ``horizon_days``."""
    span = horizon_days if integrator is reference_integrate else steps_in(horizon_days, dt)
    try:
        return integrator(params, span, dt, **kwargs).tobytes()
    except RuntimeError as exc:
        return type(exc), str(exc)


class TestDerivatives:
    """The SIR right-hand side, as ``integrate`` applies it."""

    def test_no_infection_pressure(self):
        # a = 0: nobody is infected, S stays exactly where it started
        params = SirParams(population=1000, contact_rate=0.0, infection_prob=0.3,
                           illness_duration=5.0, initial_infected=10)
        traj = integrate(params, 300, 0.1)
        assert np.array_equal(traj[:, 0], np.full(len(traj), 990.0))

    def test_pure_decay(self):
        # a = 0: I(t) = I0 exp(-t / D), to RK4 accuracy (error O(dt^4))
        params = SirParams(population=1000, contact_rate=0.0, infection_prob=0.3,
                           illness_duration=5.0, initial_infected=100)
        traj = integrate(params, 300, 0.1)
        t = np.arange(len(traj)) * 0.1
        assert traj[:, 1] == pytest.approx(100.0 * np.exp(-t / 5.0), rel=1e-8)
        assert traj[:, 2] == pytest.approx(100.0 - traj[:, 1], abs=1e-9)

    def test_direct_evaluation(self):
        params = SirParams(population=5000, contact_rate=6.0, infection_prob=0.2,
                           illness_duration=3.0, initial_infected=20)
        traj = integrate(params, 80, 0.25)
        assert traj == pytest.approx(rk4_reference(params, 80, 0.25), rel=1e-9, abs=1e-9)


def random_params(rng):
    n = int(rng.integers(10, 200_000))
    return SirParams(
        population=n,
        contact_rate=float(rng.uniform(0.0, 20.0)),
        infection_prob=float(rng.uniform(0.0, 1.0)),
        illness_duration=float(rng.uniform(0.5, 30.0)),
        initial_infected=int(rng.integers(0, n + 1)),
    )


@pytest.fixture
def no_step(monkeypatch):
    """Fail the test if ``integrate`` gets as far as its rates, before the first step."""
    def derived_rates(params):
        raise AssertionError("integrate went on to step")

    monkeypatch.setattr(sirvar.sd, "derived_rates", derived_rates)


class TestIntegrate:
    def test_disease_free_equilibrium(self):
        params = SirParams(population=500, contact_rate=8.0, infection_prob=0.3,
                           illness_duration=3.0, initial_infected=0)
        traj = integrate(params, 40, 0.5)
        assert len(traj) == 41
        assert np.array_equal(traj, np.tile([500.0, 0.0, 0.0], (41, 1)))

    def test_no_recovery_limit(self):
        # infinite illness duration means b = 0: S drains, R never grows
        params = SirParams(population=1000, contact_rate=10.0, infection_prob=0.5,
                           illness_duration=math.inf, initial_infected=5)
        traj = integrate(params, 4000, 0.1)
        s = traj[:, 0]
        assert np.all(np.diff(s) <= 0.0)
        assert np.array_equal(traj[:, 2], np.zeros(len(traj)))
        assert s[-1] < 1e-3
        assert traj[-1, 1] == pytest.approx(1000.0, abs=1e-3)

    def test_initial_condition_and_length(self):
        params = default_params()
        traj = integrate(params, 100, 0.1)
        assert len(traj) == 101
        assert np.array_equal(traj[0], [52909.0, 1.0, 0.0])
        assert traj.dtype == np.float64 and not traj.flags.writeable

    def test_peak_matches_analytic_oracle(self):
        # closed-form SIR peak: i_max = i0 + s0 - (1 + ln(r0 s0)) / r0 (fractions)
        params = default_params()
        r0 = basic_reproduction_number(params)
        n = params.population
        s0 = (n - 1) / n
        i0 = 1 / n
        peak_frac = i0 + s0 - (1.0 + math.log(r0 * s0)) / r0
        traj = integrate(params, 3640)
        assert traj[:, 1].max() == pytest.approx(peak_frac * n, rel=1e-3)

    def test_final_size_matches_oracle(self):
        params = default_params()
        r0 = basic_reproduction_number(params)
        traj = integrate(params, 3640)
        ever_infected = traj[-1, 2] + traj[-1, 1]
        assert ever_infected / params.population == pytest.approx(attack_fraction(r0), abs=1e-3)

    def test_conservation_and_monotonicity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            params = random_params(rng)
            traj = integrate(params, 560, 0.1)
            n = params.population
            total = traj.sum(axis=1)
            assert np.abs(total - n).max() <= 1e-6 * n
            assert np.all(np.diff(traj[:, 0]) <= 0.0)
            assert np.all(np.diff(traj[:, 2]) >= 0.0)
            assert np.all(traj[:, 1] >= 0.0)

    def test_subcritical_peak_is_initial(self):
        # R0 < 1: infections only decay
        params = SirParams(population=10_000, contact_rate=1.0, infection_prob=0.05,
                           illness_duration=4.0, initial_infected=50)
        assert basic_reproduction_number(params) < 1.0
        traj = integrate(params, 1000)
        assert traj[:, 1].max() == traj[0, 1]

    def test_supercritical_peak_exceeds_initial(self):
        params = default_params()
        assert basic_reproduction_number(params) > 1.0
        traj = integrate(params, 3640)
        assert traj[:, 1].max() > traj[0, 1]

    def test_halving_dt_converges(self):
        params = default_params()
        r_coarse = integrate(params, 1050, 0.1)[-1, 2]
        r_fine = integrate(params, 2100, 0.05)[-1, 2]
        assert abs(r_fine - r_coarse) / r_fine < 1e-4

    def test_determinism(self):
        params = default_params()
        a = integrate(params, 1050)
        b = integrate(params, 1050)
        assert np.array_equal(a, b)

    def test_step_too_large_raises(self):
        params = SirParams(population=100, contact_rate=50.0, infection_prob=1.0,
                           illness_duration=0.2, initial_infected=10)
        with pytest.raises(RuntimeError):
            integrate(params, 10, 2.0)

    def test_dt_larger_than_horizon_rejected(self, no_step):
        # a dt longer than the week leaves no whole step: the week grid
        # rejects it, and integrate rejects 0 steps before any step
        with pytest.raises(ValueError, match="does not place day 7.0"):
            week_indices(14.0, 1)
        with pytest.raises(ValueError, match=f"steps must be in 1 .. MAX_STEPS = {MAX_STEPS}, "
                                             "got 0"):
            integrate(default_params(), 0, 14.0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_dt_not_above_zero_rejected(self, no_step, dt):
        # MAX_STEPS steps would take about 10 s: the check comes before any step
        with pytest.raises(ValueError, match=f"dt must be > 0, got {dt}"):
            integrate(default_params(), MAX_STEPS, dt)

    def test_a_roundoff_negative_r_is_clipped(self):
        # at dt / D = 2.7853 one RK4 step of pure decay moves R by a stage sum
        # that crosses zero, leaving R near -1e-12, inside the tolerance; the
        # step clips R as it clips S and I, where the earlier loop's
        # trajectory is rejected
        params = SirParams(population=1000, contact_rate=0.0, infection_prob=0.065,
                           illness_duration=0.35902858253024017, initial_infected=10)
        traj = integrate(params, 7, 1.0)
        assert traj[1, 2] == 0.0
        with pytest.raises(ValueError, match="negative compartment counts"):
            reference_integrate(params, 7.0, 1.0)


# Step sizes found by bisecting between a dt that integrates and one that
# fails: in each run some steps overshoot below zero by less than the
# tolerance and are clipped.
CLIPPED = [
    (SirParams(population=7889, contact_rate=26.554489473951953,
               infection_prob=0.5311461683267507, illness_duration=5.212297981793817,
               initial_infected=743), 56.0, 0.37820939239766843),
    (SirParams(population=49592, contact_rate=44.76364412409049,
               infection_prob=0.7499483273279057, illness_duration=6.952105024779734,
               initial_infected=14787), 56.0, 0.12639036876436877),
    # no recovery: S decays into subnormals, where roundoff takes it below zero
    (SirParams(population=164856, contact_rate=53.88346735474491,
               infection_prob=0.1271033015349553, illness_duration=math.inf,
               initial_infected=43035), 364.0, 0.25),
]

STEPS = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]


class TestMatchesReferenceLoop:
    """``integrate`` reorders no rounding of the earlier loop: same bytes, same errors."""

    def test_randomized(self):
        rng = np.random.default_rng(2013)
        kinds = {bytes: 0, tuple: 0}
        for _ in range(320):
            n = int(rng.integers(1, 200_001))
            params = SirParams(
                population=n,
                contact_rate=float(rng.uniform(0.0, 60.0)),
                infection_prob=float(rng.uniform(0.0, 1.0)),
                illness_duration=float(rng.uniform(0.1, 30.0)),
                initial_infected=int(rng.integers(0, n + 1)),
            )
            dt = float(rng.choice(STEPS))
            expected = outcome(reference_integrate, params, 56.0, dt)
            assert outcome(integrate, params, 56.0, dt) == expected, (params, dt)
            kinds[type(expected)] += 1
        assert min(kinds.values()) >= 50, kinds  # both trajectories and step-size errors

    @pytest.mark.parametrize("params, horizon_days, dt", CLIPPED)
    def test_clipped_steps(self, params, horizon_days, dt):
        clipped = []
        expected = outcome(reference_integrate, params, horizon_days, dt, clipped=clipped)
        assert clipped and isinstance(expected, bytes)
        assert outcome(integrate, params, horizon_days, dt) == expected

    @settings(max_examples=60, deadline=None)
    @given(population=st.integers(1, 200_000), infected_share=st.floats(0.0, 1.0),
           contact_rate=st.floats(0.0, 60.0), infection_prob=st.floats(0.0, 1.0),
           illness_duration=st.floats(0.1, 30.0) | st.just(math.inf),
           dt=st.sampled_from(STEPS))
    def test_property(self, population, infected_share, contact_rate, infection_prob,
                      illness_duration, dt):
        params = SirParams(population=population, contact_rate=contact_rate,
                           infection_prob=infection_prob, illness_duration=illness_duration,
                           initial_infected=round(infected_share * population))
        expected = outcome(reference_integrate, params, 56.0, dt)
        assert outcome(integrate, params, 56.0, dt) == expected


class TestNonFinite:
    @pytest.mark.parametrize("contact_rate", [1e100, 1e308])
    def test_first_non_finite_step_raises(self, contact_rate):
        # a * S * I overflows in the first step; the earlier loop let the NaN
        # state through to its final check ("negative compartment counts")
        params = SirParams(population=52910, contact_rate=contact_rate, infection_prob=0.065,
                           illness_duration=4.2)
        with pytest.raises(RuntimeError, match=r"at step 1 \(t=0.100 d\)"):
            integrate(params, 70, 0.1)

    @pytest.mark.parametrize("contact_rate", [1e100, 1e308])
    def test_overflow_does_not_advise_a_smaller_step(self, contact_rate):
        params = SirParams(population=52910, contact_rate=contact_rate, infection_prob=0.065,
                           illness_duration=4.2)
        with pytest.raises(RuntimeError, match="the state is not finite$") as overflow:
            integrate(params, 70, 0.1)
        assert "reduce dt" not in str(overflow.value)
        too_large = SirParams(population=100, contact_rate=50.0, infection_prob=1.0,
                              illness_duration=0.2, initial_infected=10)
        with pytest.raises(RuntimeError, match="; reduce dt$"):
            integrate(too_large, 10, 2.0)


# Its negative state at step 10 comes after roundoff drift of more than
# 1e-16 * N at step 6.
DRIFTS_THEN_FAILS = (SirParams(population=38071, contact_rate=27.285589114954877,
                               infection_prob=0.6669930438538807,
                               illness_duration=25.77677158354964, initial_infected=1830),
                     56.0, 0.25)


class TestCheckAfterTheLoop:
    """The loop checks only the steps that go negative or NaN; drift on the
    others is found over the finished trajectory, at the same step and with
    the same error as the reference loop."""

    @pytest.fixture
    def conservation_rtol(self, monkeypatch):
        def set_rtol(rtol):
            monkeypatch.setattr(sirvar.sd, "CONSERVATION_RTOL", rtol)
            monkeypatch.setattr(sys.modules[__name__], "CONSERVATION_RTOL", rtol)
        return set_rtol

    @pytest.fixture
    def checked_lengths(self, monkeypatch):
        """Number of states the loop hands to the post-loop check, per call."""
        lengths = []
        check = sirvar.sd._check_states

        def spy(states, *args):
            lengths.append(len(states))
            return check(states, *args)

        monkeypatch.setattr(sirvar.sd, "_check_states", spy)
        return lengths

    @pytest.mark.parametrize("rtol, step", [(0.0, 1), (2e-16, 15), (5e-16, 61), (7e-16, 475)])
    def test_drift_alone_fails_at_the_reference_step(self, conservation_rtol, checked_lengths,
                                                     rtol, step):
        conservation_rtol(rtol)
        expected = outcome(reference_integrate, default_params(), 56.0, 0.1)
        assert expected[0] is RuntimeError
        assert expected[1].startswith("conservation drift") and f"at step {step} " in expected[1]
        assert outcome(integrate, default_params(), 56.0, 0.1) == expected
        # S, I and R stay >= 0, so only the check over all 560 steps finds it
        assert checked_lengths == [561]

    def test_earlier_drift_is_raised_before_a_later_negative_state(self, conservation_rtol,
                                                                   checked_lengths):
        negative = outcome(reference_integrate, *DRIFTS_THEN_FAILS)
        assert negative[1].startswith("state left the valid region at step 10 ")
        assert outcome(integrate, *DRIFTS_THEN_FAILS) == negative
        conservation_rtol(1e-16)
        drift = outcome(reference_integrate, *DRIFTS_THEN_FAILS)
        assert drift[1].startswith("conservation drift") and "at step 6 " in drift[1]
        assert outcome(integrate, *DRIFTS_THEN_FAILS) == drift
        # both runs stop at the negative state of step 10
        assert checked_lengths == [11, 11]

    def test_a_clipped_step_is_not_checked_again(self, conservation_rtol):
        # Step 4 of CLIPPED[0] clips I = -2.6e-6 to zero: its drift is 0 before the
        # clip, within the tolerance, and 2.6e-6 after it, beyond it, from step 5 on.
        conservation_rtol(1e-12)
        expected = outcome(reference_integrate, *CLIPPED[0])
        assert expected[1].startswith("conservation drift") and "at step 5 " in expected[1]
        assert outcome(integrate, *CLIPPED[0]) == expected

    @pytest.mark.parametrize("params, horizon_days, dt, step", [
        (SirParams(population=52910, contact_rate=1e300, infection_prob=0.065,
                   illness_duration=4.2), 7000.0, 0.1, 1),
        (*DRIFTS_THEN_FAILS, 10),
        # only R goes negative: S=38888.1, I=190205, R=-36799.6
        (SirParams(population=192293, contact_rate=35.21960706554047,
                   infection_prob=0.02790910627373866, illness_duration=0.4581744904249627,
                   initial_infected=17176), 56.0, 2.0, 7),
    ])
    def test_loop_stops_at_the_first_negative_or_nan_state(self, checked_lengths, params,
                                                          horizon_days, dt, step):
        with pytest.raises(RuntimeError, match=f"at step {step} "):
            integrate(params, steps_in(horizon_days, dt), dt)
        assert checked_lengths == [step + 1]


class TestWeeklySample:
    """End-of-week sampling: a run integrates the last row of
    ``week_indices`` in steps and keeps its rows."""

    # 0.1000000000001 places day 14 nearest step 140, but 14 days hold 139 whole
    # steps; 1e-300 gives more than MAX_STEPS steps
    @pytest.mark.parametrize("dt", [0.3, 0.0, -0.1, 8.0, 14.0, math.inf, 0.1000000000001, 1e-300])
    def test_week_indices_reject_steps_off_the_week_grid(self, dt):
        with pytest.raises(ValueError, match="dt"):
            week_indices(dt, 2)

    def test_week_indices(self):
        assert week_indices(0.1, 3).tolist() == [70, 140, 210]
        assert week_indices(7.0, 2).tolist() == [1, 2]
        with pytest.raises(ValueError):
            week_indices(0.1, 0)

    @settings(max_examples=500, deadline=None)
    @given(k=st.integers(1, 399), exponent=st.floats(-17.0, -8.0),
           sign=st.sampled_from([-1.0, 1.0]), weeks=st.integers(1, 19))
    def test_accepted_steps_integrate_to_the_last_week(self, k, exponent, sign, weeks):
        # steps near the week grid: some are rejected; for the rest the last
        # row, the steps a run integrates, is the whole steps in 7 * weeks days
        dt = 7.0 / k * (1.0 + sign * 10.0**exponent)
        try:
            indices = week_indices(dt, weeks)
        except ValueError:
            return
        assert indices[-1] == math.floor(7.0 * weeks / dt + 1e-12)

    def test_a_step_a_hair_above_the_horizon_is_one_step(self):
        # 7 days hold floor(7 / dt + 1e-12) = 1 whole step, and the week grid places day 7 there
        assert week_indices(7.000000000000132, 1).tolist() == [1]

    def test_step_limit_accepts_max_steps_and_rejects_one_more(self, no_step):
        # 78,125 weeks hold exactly MAX_STEPS steps of 7 / 128 days; the week
        # grid rejects a week more, and integrate one step more, before any step
        dt = 7.0 / 128
        assert week_indices(dt, 78125)[-1] == MAX_STEPS
        with pytest.raises(ValueError, match=f"into more than MAX_STEPS = {MAX_STEPS} steps"):
            week_indices(dt, 78126)
        with pytest.raises(ValueError, match=f"steps must be in 1 .. MAX_STEPS = {MAX_STEPS}, "
                                             f"got {MAX_STEPS + 1}"):
            integrate(default_params(), MAX_STEPS + 1, dt)

    def test_peak_week_matches_trajectory_argmax(self):
        params = default_params()
        rows = week_indices(0.1, 15)
        traj = integrate(params, rows[-1])
        peak_week_day = 7.0 * (int(np.argmax(traj[rows, 1])) + 1)
        peak_day = float(np.argmax(traj[:, 1])) * 0.1
        assert abs(peak_week_day - peak_day) <= 7.0
