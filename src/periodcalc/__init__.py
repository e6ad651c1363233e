"""periodcalc: exact symbolic calculus for archimedean representation
parameters, critical points of Rankin-Selberg L-functions, fundamental
period invariants, and formal period-relation replay."""

__version__ = "1.0.0"

from . import arch_l, formal, infinity_types, period_algebra, weil_real, yoshida

__all__ = ["weil_real", "infinity_types", "arch_l", "formal", "yoshida",
           "period_algebra", "__version__"]
