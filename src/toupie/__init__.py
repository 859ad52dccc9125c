"""Exact homological computations for toupie quiver algebras.

`import toupie` loads no submodule.  Each public name is imported from the
module that `_EXPORTS` files it under on first use (PEP 562) and then kept, so
a program pays only for the stages it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "presentation": (
        "Arrow", "FormalSum", "Path", "Presentation", "Quiver", "branches_of", "compose", "qdiv",
        "validate_toupie",
    ),
    "rewriting": (
        "GroebnerData", "TipIdeal", "build_groebner", "classify_branches", "rref", "special_basis",
    ),
    "chains": ("ChainGraph", "underlying_path"),
    "zigzag": ("BasedComplex", "verify_sdr"),
    "morse": ("BarSDR", "bar_differential", "bar_words", "classify_word"),
    "anick": ("AnickResolution", "betti_numbers"),
    "ainf": (
        "ExtAlgebra", "TorCoalgebra", "algebra_table", "coalgebra_table",
        "stasheff_algebra_defects", "stasheff_coalgebra_defects",
    ),
    "duality": (
        "HypothesesError", "HypothesesReport", "double_dual", "gr_algebra", "hypotheses_check",
        "ideal_equal", "opposite_quiver", "quadratic_blocks", "yoneda_presentation",
    ),
    "random_presentations": ("GeneratorConfig", "random_presentation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
