"""SIR epidemic simulation under two paradigms with ensemble variance analysis.

The package pairs a deterministic system-dynamics SIR integrator (with a
Monte-Carlo parameter-variation harness) against a stochastic agent-based
SIR simulator on Watts-Strogatz small-world contact networks, and provides
the statistics used to compare them: weekly quartile summaries, total
variation, and the Wilcoxon signed-rank test.

Each name is imported from the module that owns it: ``core``, ``sd``,
``montecarlo``, ``network``, ``abm``, ``stats``, ``io`` and ``cli``.
"""

__version__ = "0.1.0"
