"""Two-sample Kolmogorov-Smirnov gate for a change to a random stream.

A change that alters a stream family's draws, without meaning to alter the
model, must leave the law of the epidemic unchanged.  The earlier code stays
in ``tests/`` as the reference, and :func:`assert_same_law` compares the
per-replicate outcomes of the new code and of that reference, drawn from
independent seeds, at a fixed significance level.
"""

import numpy as np
from scipy.stats import ks_2samp

#: Significance level of every comparison, fixed before looking at data.
ALPHA = 0.001

#: Fewest replicates a side for a comparison to count.
MIN_REPLICATES = 300

#: What :func:`outcomes` returns for one run, in order.
OUTCOMES = ("final size", "peak", "peak week")


def outcomes(daily) -> tuple[int, int, int]:
    """Final size, peak and peak week of one run's daily (S, I, R) count rows.

    The final size counts every agent ever infected, index cases included;
    the peak is the largest daily prevalence, and the peak week is the first
    week (counting from 1) with the largest end-of-week prevalence.
    """
    daily = np.asarray(daily)
    return (int(daily[0].sum() - daily[-1, 0]), int(daily[:, 1].max()),
            int(daily[7::7, 1].argmax()) + 1)


def assert_same_law(new, reference) -> dict:
    """Fail unless no outcome's KS test rejects equal laws at :data:`ALPHA`.

    ``new`` and ``reference`` hold one :func:`outcomes` tuple per replicate.
    Returns the p-value of each outcome.
    """
    assert min(len(new), len(reference)) >= MIN_REPLICATES
    pvalues = {name: ks_2samp(a, b).pvalue
               for name, a, b in zip(OUTCOMES, np.transpose(new), np.transpose(reference))}
    assert min(pvalues.values()) > ALPHA, pvalues
    return pvalues
