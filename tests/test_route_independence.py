"""The coefficient routes share no code beyond a declared allow-list.

Agreement between two routes is evidence only if they do not compute
through the same code.  This test parses ``coefficients.py``,
``sequences.py`` and ``rings.py``, collects for each route every
module-level function and class reached from its point and row forms (a
class brings in its bases and the bodies of its methods), and asserts that
any name two routes both reach is listed in ``SHARED`` for both of them,
with the reason it may be shared.  ``SHARED`` is the one place where
sharing between routes is declared.
"""

from __future__ import annotations

import ast
from itertools import combinations
from pathlib import Path

from tnomial import coefficients

PACKAGE = Path(coefficients.__file__).parent
PARSED = ("coefficients", "sequences", "rings")

ROUTES = {  # route: its point form and its row form in coefficients.py
    "recurrence": ("coeff_recurrence", "triangle_rows"),
    "symbolic": ("coeff_symbolic", "symbolic_row"),
    "factorial": ("coeff_factorial", "factorial_row"),
    "product": ("coeff_product", "product_row"),
    "subset": ("coeff_lambda_subset", "lambda_subset_row"),
    "multiset": ("coeff_lambda_multiset", "lambda_multiset_row"),
    "partial-fractions": ("coeff_partial_fractions", "partial_fraction_column"),
    "inverse": ("coeff_inverse", "inverse_rows"),
}
EVERY = frozenset(ROUTES)
RECURRENCE = frozenset({"recurrence", "symbolic"})
TRIANGLE = frozenset({"recurrence", "inverse"})

SHARED = {  # qualified name: (the routes that may share it, why)
    "coefficients._check_indices": (EVERY, "index validation; no arithmetic"),
    "rings.exact_div": (EVERY, "exact integer division, plumbing"),
    "rings._divide_2adic": (EVERY, "inside exact_div"),
    "rings._inverse_2adic": (EVERY, "inside exact_div"),
    "rings.balanced_product": (EVERY, "the product of a list of integers, plumbing"),
    "errors.DivisibilityError": (EVERY, "an error class"),
    "errors.DegenerateParametersError": (EVERY, "an error class"),
    "coefficients.box_weights": (
        frozenset({"subset", "multiset"}),
        "the box weights q**(i-1) * p**(n-i) are what both weight sums are defined over",
    ),
    "coefficients._join_scaled_halves": (
        frozenset({"subset", "multiset"}),
        "joins two halves' weight sums by divide and conquer; each route passes in its own"
        " sums, and for odd n extends its first half's sums to the second half in its own code",
    ),
    "coefficients._share_mirrored": (
        RECURRENCE | TRIANGLE,
        "stores equal mirrored entries once; it compares entries and computes none",
    ),
    "coefficients._next_row": (
        RECURRENCE | TRIANGLE,
        "the one row builder of the integer and the symbolic recurrence, each with its own"
        " step; the inverse route reaches it through triangle_rows",
    ),
    "coefficients._rows_from": (
        RECURRENCE | TRIANGLE,
        "the one rows-past-the-memo loop of the integer and the symbolic recurrence, each"
        " with its own step; the inverse route reaches it through triangle_rows",
    ),
    "coefficients._walk_window": (
        RECURRENCE | TRIANGLE,
        "the one window walker of the integer and the symbolic recurrence, each with its own"
        " step; the inverse route reaches it through coeff_recurrence",
    ),
    "coefficients.triangle_rows": (TRIANGLE, "the inverse route is defined from the triangle's rows"),
    "coefficients.coeff_recurrence": (
        TRIANGLE,
        "the inverse entry is C(n, k) * a(n - k) by definition; it is never compared with the"
        " recurrence, only through inverse_rows with oracles.invert_triangular",
    ),
    "coefficients._row": (TRIANGLE, "the memoized rows that triangle_rows yields"),
    "coefficients._int_step": (TRIANGLE, "the integer step that triangle_rows builds its rows with"),
}


def _module_names():
    """For each parsed module: its top-level definitions by name, and what
    each name it imports from inside the package resolves to."""
    defs, imports = {}, {}
    for module in PARSED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        defs[module] = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        imports[module] = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    return defs, imports


def _referenced(node):
    """Names a definition reads: its body, and for a class its bases; the
    annotations of a function's arguments and result are not code it runs."""
    parts = node.bases + node.body if isinstance(node, ast.ClassDef) else node.body
    return {
        sub.id
        for part in parts
        for sub in ast.walk(part)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def reach(defs, imports, roots):
    """Every qualified name reached from the coefficients functions ``roots``."""
    seen, todo = set(), [f"coefficients.{root}" for root in roots]
    while todo:
        qualified = todo.pop()
        if qualified in seen:
            continue
        seen.add(qualified)
        module, name = qualified.split(".")
        if module not in defs:
            continue  # outside the parsed modules, such as errors: a leaf
        for ref in _referenced(defs[module][name]):
            if ref in defs[module]:
                todo.append(f"{module}.{ref}")
            elif ref in imports[module]:
                todo.append(imports[module][ref])
    return seen


def route_reach():
    defs, imports = _module_names()
    return {route: reach(defs, imports, roots) for route, roots in ROUTES.items()}


def test_routes_listed_are_the_package_routes():
    assert set(ROUTES) == set(coefficients.ROUTE_NAMES) | {"symbolic"}
    for point, row in ROUTES.values():
        assert callable(getattr(coefficients, point)) and callable(getattr(coefficients, row))


def test_routes_share_only_declared_names():
    reached = route_reach()
    undeclared = {
        (first, second, name)
        for first, second in combinations(sorted(reached), 2)
        for name in reached[first] & reached[second]
        if not {first, second} <= SHARED.get(name, (frozenset(), ""))[0]
    }
    assert not undeclared, sorted(undeclared)


def test_every_declared_name_is_shared():
    # a stale entry would let a later route share the name unnoticed
    reached = route_reach()
    for name, (routes, reason) in SHARED.items():
        assert reason
        sharing = {route for route in routes if name in reached[route]}
        assert len(sharing) >= 2, (name, sharing)


def test_the_walk_sees_a_route_calling_another():
    # the check itself: a product route that calls the factorial route shares its code
    defs, imports = _module_names()
    factorial = reach(defs, imports, ROUTES["factorial"])
    product = reach(defs, imports, ROUTES["product"] + ("coeff_factorial",))
    assert "coefficients.coeff_factorial" in factorial & product
    assert "sequences._term_product" in factorial & product


def test_no_module_imports_perfbench():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "perfbench" for name in names), (path.name, names)
