"""Exact arithmetic for tileable two-parameter integer sequences and the
generalized binomial (T-nomial) coefficients they induce.

A tileable sequence T(p, q) is determined by two integer parameters; its
terms obey a splitting recurrence that makes the factorial-style ratio

    C(n, k) = n_T! / (k_T! * (n-k)_T!)

an integer.  This package evaluates those coefficients along several
independent routes (recurrence, factorial ratio, telescoping product,
weight sums, partial fractions, and symbolically over Z[p, q]), checks
the identities relating them, and cross-checks the combinatorial
interpretations against literal brute-force enumeration.

>>> from tnomial import SeqParams, coeff_recurrence
>>> coeff_recurrence(SeqParams(2, 3), 4, 2)
247
"""

from __future__ import annotations

from .coefficients import (
    ROUTE_NAMES,
    box_weights,
    coeff_factorial,
    coeff_inverse,
    coeff_lambda_multiset,
    coeff_lambda_subset,
    coeff_partial_fractions,
    coeff_product,
    coeff_recurrence,
    coeff_route,
    coeff_symbolic,
    inverse_rows,
    multinomial,
    triangle_rows,
)
from .errors import (
    BudgetExceededError,
    DegenerateParametersError,
    DivisibilityError,
    ParameterMismatchError,
    SingularMatrixError,
)
from .identities import (
    alpha_fibonacci,
    expand_multiset_gf,
    expand_split_gf,
    expand_subset_gf,
    gaussian_basis,
    gaussian_explicit,
    gaussian_inverse_entry,
)
from .oracles import (
    BoxWeights,
    TriMatrix,
    count_acyclic_multidigraphs,
    count_acyclic_multidigraphs_recurrence,
    count_bipartite_multigraphs,
    count_selections,
    enumeration_budget,
    invert_triangular,
    volume_ratio,
)
from .report import IdentityReport
from .rings import (
    BiPoly,
    QuadElem,
    XSeries,
    exact_div,
    series_product,
)
from .sequences import (
    SeqParams,
    compositions_of,
    term_closed,
    term_factorial,
)
from .suites import fibonomial_suite, pq_grid, run_oracle, run_verify, verify_inverse_relation

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BoxWeights",
    "BudgetExceededError",
    "DegenerateParametersError",
    "DivisibilityError",
    "IdentityReport",
    "ParameterMismatchError",
    "QuadElem",
    "ROUTE_NAMES",
    "SeqParams",
    "SingularMatrixError",
    "TriMatrix",
    "XSeries",
    "alpha_fibonacci",
    "box_weights",
    "coeff_factorial",
    "coeff_inverse",
    "coeff_lambda_multiset",
    "coeff_lambda_subset",
    "coeff_partial_fractions",
    "coeff_product",
    "coeff_recurrence",
    "coeff_route",
    "coeff_symbolic",
    "compositions_of",
    "count_acyclic_multidigraphs",
    "count_acyclic_multidigraphs_recurrence",
    "count_bipartite_multigraphs",
    "count_selections",
    "enumeration_budget",
    "exact_div",
    "expand_multiset_gf",
    "expand_split_gf",
    "expand_subset_gf",
    "fibonomial_suite",
    "gaussian_basis",
    "gaussian_explicit",
    "gaussian_inverse_entry",
    "inverse_rows",
    "invert_triangular",
    "multinomial",
    "pq_grid",
    "run_oracle",
    "run_verify",
    "series_product",
    "term_closed",
    "term_factorial",
    "triangle_rows",
    "verify_inverse_relation",
    "volume_ratio",
]
