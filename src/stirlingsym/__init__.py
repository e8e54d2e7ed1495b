"""Exact-arithmetic toolkit for symmetric functions built from nested
multiset permutations, with truncated series inversion, tree models, poset
Mobius invariants and volume cross-checks.

The public names below are resolved on first access (PEP 562), so importing
the package, or one submodule such as ``stirlingsym.cli``, loads no other
layer.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("compositions_of", "conjugate", "partitions_of",
                     "weak_compositions", "z_of"), "partitions"),
    **dict.fromkeys(("DEFAULT_DEGREE_CAP", "DegreeCapError", "SymFunc", "TPoly",
                     "basis_element", "character", "convert", "evaluate_h",
                     "multiply", "omega", "specialize_E"), "symfunc"),
    **dict.fromkeys(("QQ", "QT", "SymFuncRing", "TruncatedSeries"), "series"),
    **dict.fromkeys(("StirlingPerm", "enumerate_stirling", "eulerian_polynomial",
                     "stirling_symfunc"), "stirling"),
    **dict.fromkeys(("ColoredTree", "comb_type", "enumerate_colored",
                     "enumerate_normalized", "lyndon_type"), "trees"),
}

_SUBMODULES = ("cli", "identities", "limits", "moduli", "partitions", "posets",
               "report", "series", "stirling", "symfunc", "trees")

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
