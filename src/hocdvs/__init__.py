"""Distributed-vibration-sensing toolkit built on third-order cumulants.

Detects and localizes non-Gaussian vibration events in (simulated or
recorded) fiber backscattering trace matrices: symmetric noise averages
out of the per-point mean-cube statistic while a skewed drive does not.

Each export is declared once, in the `__all__` of the module that defines
it (`detect`, `io_formats`, `stats`, `synth`); this package re-exports
those lists. A name is exported only if the CLI or an experiment preset
reaches it, or an acceptance check calls it; tests/test_exports.py
enforces both rules.
"""

from . import detect, io_formats, stats, synth
from .detect import *
from .io_formats import *
from .stats import *
from .synth import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += detect.__all__
__all__ += io_formats.__all__
__all__ += stats.__all__
__all__ += synth.__all__
