"""Exact-arithmetic toolkit for Laplacian polytopes of simplicial complexes.

Simplicial complexes with ordered vertices, their Laplacian matrices and
polytopes, exact lattice-polytope geometry (facets, interior polytopes,
reflexivity), regular unimodular triangulations built from edgewise
subdivisions, and Ehrhart/h* machinery with independent cross-checking
oracles.  No floating point anywhere.
"""

from .budgets import BudgetError
from .complexes import (
    SimplicialComplex,
    boundary_of_simplex,
    from_facets,
)
from .ehrhart import (
    hstar_dilate,
    hstar_from_counts,
    hstar_simplex_fundamental,
    hstar_structural,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
)
from .laplacian import (
    laplacian_boundary_simplex,
    laplacian_matrix,
    laplacian_polytope,
    reduce_full_dim,
)
from .polytope import (
    Halfspace,
    LatticePolytope,
    combinatorially_equivalent,
    cyclic_polytope,
)
from .triangulate import (
    Triangulation,
    h_vector_of,
    interior_facets,
    is_regular,
    laplacian_triangulation,
    verify_shelling,
    verify_triangulation,
)

__all__ = [
    "BudgetError",
    "SimplicialComplex",
    "boundary_of_simplex",
    "from_facets",
    "hstar_dilate",
    "hstar_from_counts",
    "hstar_simplex_fundamental",
    "hstar_structural",
    "is_palindromic",
    "is_real_rooted",
    "is_unimodal",
    "laplacian_boundary_simplex",
    "laplacian_matrix",
    "laplacian_polytope",
    "reduce_full_dim",
    "Halfspace",
    "LatticePolytope",
    "combinatorially_equivalent",
    "cyclic_polytope",
    "Triangulation",
    "h_vector_of",
    "interior_facets",
    "is_regular",
    "laplacian_triangulation",
    "verify_shelling",
    "verify_triangulation",
    "__version__",
]

__version__ = "0.1.0"
