"""Exact homological computations for toupie quiver algebras."""

__version__ = "0.1.0"

from .presentation import (
    Arrow,
    FormalSum,
    Path,
    Presentation,
    Quiver,
    branches_of,
    compose,
    validate_toupie,
)
from .rewriting import GroebnerData, build_groebner, classify_branches, rref, special_basis
from .chains import ChainGraph, underlying_path
from .zigzag import BasedComplex, verify_sdr
from .morse import BarSDR, bar_differential, bar_words, classify_word
from .anick import AnickResolution, betti_numbers
from .ainf import (
    ExtAlgebra,
    TorCoalgebra,
    algebra_table,
    coalgebra_table,
    stasheff_algebra_defects,
    stasheff_coalgebra_defects,
)
from .duality import (
    GammaGraph,
    HypothesesError,
    HypothesesReport,
    double_dual,
    gamma_graph,
    gr_algebra,
    hypotheses_check,
    ideal_equal,
    opposite_quiver,
    quadratic_blocks,
    yoneda_presentation,
)
from .random_presentations import (
    GeneratorConfig,
    fixed_violators,
    random_groebner,
    random_presentation,
)

__all__ = [
    "Arrow",
    "FormalSum",
    "Path",
    "Presentation",
    "Quiver",
    "branches_of",
    "compose",
    "validate_toupie",
    "GroebnerData",
    "build_groebner",
    "classify_branches",
    "rref",
    "special_basis",
    "ChainGraph",
    "underlying_path",
    "BasedComplex",
    "verify_sdr",
    "BarSDR",
    "bar_differential",
    "bar_words",
    "classify_word",
    "AnickResolution",
    "betti_numbers",
    "ExtAlgebra",
    "TorCoalgebra",
    "algebra_table",
    "coalgebra_table",
    "stasheff_algebra_defects",
    "stasheff_coalgebra_defects",
    "GammaGraph",
    "HypothesesError",
    "HypothesesReport",
    "double_dual",
    "gamma_graph",
    "gr_algebra",
    "hypotheses_check",
    "ideal_equal",
    "opposite_quiver",
    "quadratic_blocks",
    "yoneda_presentation",
    "GeneratorConfig",
    "fixed_violators",
    "random_groebner",
    "random_presentation",
    "__version__",
]
