"""Reproduction of *Jarvis: Large-scale Server Monitoring with Adaptive
Near-data Processing* (ICDE 2022).

Jarvis partitions monitoring queries between data-source nodes (servers with
a small, fluctuating CPU budget) and a stream processor at the *data level*:
each operator processes a tunable fraction of its input locally and drains
the rest to a replicated copy on the stream processor.  A decentralized
runtime adapts those fractions within seconds of resource changes using the
hybrid StepWise-Adapt algorithm (an LP-based initialisation refined by a
model-agnostic binary search).

Quickstart::

    from repro import make_setup, run_single_source

    setup = make_setup("s2s_probe")
    metrics = run_single_source(setup, "Jarvis", budget=0.6, num_epochs=40)
    print(metrics.summary())

The package itself exports only the quickstart's names (plus
:class:`JarvisConfig` and the :class:`Stream` query builder); everything
else is imported from its subpackage:

* :mod:`repro.query`       — declarative queries, operators, plans.
* :mod:`repro.core`        — control-proxy rules, StepWise-Adapt, the runtime.
* :mod:`repro.simulation`  — the epoch-driven execution substrate.
* :mod:`repro.baselines`   — Jarvis, its ablations, and the paper's baselines.
* :mod:`repro.workloads`   — synthetic Pingmesh / LogAnalytics generators.
* :mod:`repro.synopsis`    — the sampling comparison of Figure 9.
* :mod:`repro.analysis`    — canned experiments for the single-source figures.
* :mod:`repro.scenarios`   — config-driven cluster experiments (Figs. 10-11).
"""

from .analysis import make_setup, run_single_source
from .config import JarvisConfig
from .query import Stream

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "JarvisConfig",
    "Stream",
    "make_setup",
    "run_single_source",
]
