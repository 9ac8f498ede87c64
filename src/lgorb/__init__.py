"""Exact computation of Landau-Ginzburg orbifold state-space dimensions
for quasihomogeneous singularities with finite matrix symmetry groups,
with the Klein quartic catalog built in.

All arithmetic is exact (cyclotomic fields over arbitrary-precision
rationals); the package uses no floating point at all.
"""

from lgorb.catalog import (
    catalog_entries,
    catalog_group,
    expected,
    generator_matrix,
    klein_quartic,
    word_matrix,
)
from lgorb.exactnum import CycNum, cyclotomic_polynomial, zeta
from lgorb.jacobian import (
    GroebnerBasis,
    JacobianAlgebra,
    buchberger,
    jacobian_algebra,
    normal_form,
    quotient_basis,
)
from lgorb.matgroup import (
    ConjugacyData,
    FiniteMatrixGroup,
    GMatrix,
    fixed_space,
    from_elements,
    generate_closure,
    hat_extend,
)
from lgorb.orbifold import (
    HHReport,
    Sector,
    SectorReport,
    build_sector,
    compute_hh,
    identity_sector_products,
    invariant_subspace,
    sector_action,
)
from lgorb.polyring import (
    Monomial,
    Poly,
    WeightSystem,
    is_quasihomogeneous,
    partial_derivative,
    restrict_to_subspace,
    substitute_linear,
)
from lgorb.words import GeneratorWord, parse_word

__version__ = "1.0.0"

# Read by perfbench/worker.py; goes when the benchmark stops reading it.
kernel_backend = "pure"

__all__ = [
    "ConjugacyData",
    "CycNum",
    "FiniteMatrixGroup",
    "GMatrix",
    "GeneratorWord",
    "GroebnerBasis",
    "HHReport",
    "JacobianAlgebra",
    "Monomial",
    "Poly",
    "Sector",
    "SectorReport",
    "WeightSystem",
    "buchberger",
    "build_sector",
    "catalog_entries",
    "catalog_group",
    "compute_hh",
    "cyclotomic_polynomial",
    "expected",
    "fixed_space",
    "from_elements",
    "generate_closure",
    "generator_matrix",
    "hat_extend",
    "identity_sector_products",
    "invariant_subspace",
    "is_quasihomogeneous",
    "jacobian_algebra",
    "kernel_backend",
    "klein_quartic",
    "normal_form",
    "parse_word",
    "partial_derivative",
    "quotient_basis",
    "restrict_to_subspace",
    "sector_action",
    "substitute_linear",
    "word_matrix",
    "zeta",
]
