"""Exact final-size law of a small ABM epidemic on a complete graph, and a χ² gate.

On a complete graph of N agents, each infectious agent makes Poisson(c * p)
transmitting contacts a day, each to one of its N - 1 neighbours picked
uniformly, for the L days it transmits.  So it reaches a given susceptible
at least once with probability 1 - exp(-λL), λ = c * p / (N - 1),
independently across susceptibles given L.  The final size depends only on
who would infect whom (Ludwig, *Adv. Appl. Prob.* 7, 1975), so it has the
law of a generation chain: a generation whose members transmit on T days in
all infects Binomial(s, 1 - exp(-λT)) of the s susceptibles left, and the
chain stops at the first empty generation.

:func:`final_size_law` runs that chain in float64.  Its terms are all
positive, so it is stable; Ball's triangular system (*Adv. Appl. Prob.* 18,
1986) gives the same law but is ill-conditioned in float64.
"""

import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import chi2

#: Mass below which the pmf of T, a generation's transmitting days, is trimmed.
TRIM = 1e-18

#: Significance level of :func:`chi_square`'s gate, fixed before looking at data.
ALPHA = 0.001


def fixed_days(days: int) -> np.ndarray:
    """Pmf of L for an agent that transmits on exactly ``days`` days."""
    pmf = np.zeros(days + 1)
    pmf[days] = 1.0
    return pmf


def geometric_days(duration: float) -> np.ndarray:
    """Pmf of L ~ Geometric(1 / duration) on 1, 2, ..., trimmed below :data:`TRIM`."""
    g = 1.0 / duration
    last = 1 + math.ceil(math.log(TRIM / g) / math.log1p(-g))
    days = np.arange(last + 1)
    pmf = g * (1.0 - g) ** (days - 1.0)
    pmf[0] = 0.0
    return pmf


def mean_days(duration: float) -> np.ndarray:
    """Pmf of L = floor(duration) days, plus one more with probability
    frac(duration), so that E[L] = duration."""
    whole = math.floor(duration)
    pmf = np.zeros(whole + 2)
    pmf[whole], pmf[whole + 1] = 1.0 - (duration - whole), duration - whole
    return pmf


def final_size_law(population: int, rate: float, days_pmf, initial_infected: int = 1):
    """Pmf of the final size, every agent ever infected, on 0 .. ``population``.

    ``rate`` is c * p, each infectious agent's transmitting contacts a day,
    and ``days_pmf[l]`` the probability that it transmits on ``l`` days.
    """
    n = population
    log_q = -rate / (n - 1)  # log of one day's escape from one infective
    s = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    below = j <= s
    log_choose = np.where(
        below, gammaln(s + 1) - gammaln(j + 1) - gammaln(np.maximum(s - j, 0) + 1), -np.inf)
    # step[i, s, j]: P(a generation of i infects j of s susceptibles)
    step = np.zeros((n, n, n))
    t_pmf = np.ones(1)
    for i in range(1, n):
        t_pmf = np.convolve(t_pmf, days_pmf)
        t_pmf[t_pmf < TRIM] = 0.0
        t_pmf = np.trim_zeros(t_pmf, "b")
        kept = np.flatnonzero(t_pmf)
        t = kept[:, None, None].astype(float)
        log_escape = t * log_q
        with np.errstate(divide="ignore"):  # T = 0 infects no one: log(0) for j >= 1
            log_hit = np.log(-np.expm1(log_escape))
        rows = n - i + 1  # a generation of i leaves at most n - i susceptible
        terms = np.where(below[:rows], log_choose[:rows] + j * log_hit
                         + (s[:rows] - j) * log_escape, -np.inf)
        step[i, :rows] = np.tensordot(t_pmf[kept], np.exp(terms), axes=1)
    mass = np.zeros((n, n))  # mass[s, i]: s susceptible, generation of i
    mass[n - initial_infected, initial_infected] = 1.0
    law = np.zeros(n + 1)
    for left in range(n - 1, -1, -1):
        nxt = mass[left] @ step[:, left, : left + 1]
        law[n - left] += nxt[0]
        sizes = np.arange(1, left + 1)
        mass[left - sizes, sizes] += nxt[1:]
    return law


def chi_square(sizes, law, least: float = 5.0) -> tuple[float, int, float]:
    """χ² statistic, degrees of freedom and p-value of observed ``sizes`` against ``law``.

    Adjacent sizes are pooled from the smallest up until each cell expects
    at least ``least`` runs, and a short last cell joins the one before it.
    """
    observed = np.bincount(sizes, minlength=law.size)
    expected = law * observed.sum()
    cells, o, e = [], 0, 0.0
    for count, mean in zip(observed, expected):
        o, e = o + count, e + mean
        if e >= least:
            cells.append((o, e))
            o, e = 0, 0.0
    if o or e:
        last_o, last_e = cells.pop()
        cells.append((last_o + o, last_e + e))
    o, e = np.array(cells).T
    stat = float(((o - e) ** 2 / e).sum())
    df = len(cells) - 1
    return stat, df, float(chi2.sf(stat, df))
