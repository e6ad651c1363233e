"""periodcalc: exact symbolic calculus for archimedean representation
parameters, critical points of Rankin-Selberg L-functions, fundamental
period invariants, and formal period-relation replay.

Each submodule is loaded on first use, so a request imports only the code
it runs."""

import importlib

__version__ = "1.0.0"

__all__ = ["weil_real", "infinity_types", "arch_l", "formal", "yoshida",
           "period_algebra", "__version__"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
