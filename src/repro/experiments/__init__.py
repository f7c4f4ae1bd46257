"""Experiment drivers: one module per paper experiment.

Every driver builds on :func:`repro.experiments.scenario.build_world`,
runs the measurement campaign the paper describes, and returns a
result object with a ``render()`` method that prints the same rows or
series the paper's figure/table reports.  The benchmark harness under
``benchmarks/`` times these drivers and asserts the qualitative shape.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "scenario": ("World", "build_world"),
    },
)
