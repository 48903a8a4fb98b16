"""Seeded request lists for the three workloads.

The seed picks parameter pairs, suites' sampling seeds, output formats, k
offsets and the order of requests.  It never changes sizes: every seed
gives the same multiset of ``Request.slot`` values, and each slot fixes
what is asked and how big it is.

Requests avoid inputs whose meaning the ROADMAP plans to change, so that
fixing them later does not change the workload:

* no ``--max 0``, ``--order 0`` or negative bounds (today they fall back to
  the defaults or report vacuous passes);
* no single pair that is degenerate for a whole suite, such as ``equal1``
  at ``--p 0 --q 0``: single-pair runs use pairs with p, q nonzero and
  |p| != |q|, and ``--sample 8`` always draws at least one pair off the
  seven-pair diagonal;
* no CLI output of an integer over 4,300 digits (today it cannot be
  printed): the largest printed value, in ``table --max 134`` at
  max(|p|, |q|) = 3, has about 2,150 digits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("plain", "json", "csv")

GRID = [(p, q) for p in range(-2, 5) for q in range(-2, 5)]
"""The package's default parameter grid."""

GENERIC = [(p, q) for p, q in GRID if p and q and abs(p) != abs(q)]
"""Pairs on which every route is defined and no suite is degenerate."""

def _one_per_size(rng: random.Random, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """One pair each with max(|p|, |q|) = 2, 3 and 4.

    Coefficient sizes grow with max(|p|, |q|), so a request list built from
    these triples has the same result sizes and nearly the same cost for
    every seed.
    """
    return [rng.choice([pq for pq in pairs if max(map(abs, pq)) == size]) for size in (2, 3, 4)]


BIG_PAIRS = [(s * a, t * b) for a, b in ((2, 3), (3, 2)) for s in (1, -1) for t in (1, -1)]
"""Pairs whose coefficients all have the same size: max(|p|, |q|) = 3."""

WORKLOADS = ("verify-cli", "bigcoeff", "session")


@dataclass(frozen=True)
class Request:
    """One timed unit of work.

    ``kind`` is ``cli`` (``main(argv)``), ``route`` (``coeff_route``),
    ``symbolic`` (``coeff_symbolic``, checked at the pairs in ``queries``)
    or ``batch`` (a session batch: ``queries`` against the pair).
    """

    slot: str
    kind: str
    argv: tuple[str, ...] = ()
    fmt: str = "plain"
    p: int = 0
    q: int = 0
    n: int = 0
    k: int = 0
    route: str = ""
    queries: tuple = ()


def _offset_k(rng: random.Random, n: int) -> int:
    return n // 2 + rng.randint(-2, 2)


IDENTITY_FULL = ("gf", "binomial", "vandermonde", "equal1", "fibonomial", "specializations")
IDENTITY_PAIR = ("routes", "gf", "orthogonality", "vandermonde", "equal1", "inversion")
ORACLES = ("selections", "bipartite", "dag", "volume", "inverse-relation")
COEFF_SIZES = (
    ("recurrence", 12), ("recurrence", 20), ("recurrence", 30),
    ("factorial", 12), ("factorial", 30),
    ("product", 12), ("product", 30),
    ("subset", 12), ("subset", 30),
    ("multiset", 12), ("multiset", 30),
    ("partial-fractions", 12), ("partial-fractions", 20),
    ("inverse", 8),
)
TABLE_SIZES = (8, 10, 12, 16, 20)


def verify_cli(seed: int) -> list[Request]:
    """The CLI user's traffic: one fresh process state per request."""
    rng = random.Random(seed)
    specs: list[tuple[str, list[str], dict]] = [("verify all", ["verify"], {})]
    specs += [("oracle all", ["oracle"], {})] * 2
    specs += [(f"verify {s}", ["verify", "--identity", s], {}) for s in IDENTITY_FULL]
    specs += [(f"oracle {w}", ["oracle", "--which", w], {}) for w in ORACLES]
    for _ in range(2):
        alpha = str(rng.randint(1, 3))
        specs.append(("verify fibonomial --alpha", ["verify", "--identity", "fibonomial", "--alpha", alpha], {}))
    for suite in IDENTITY_PAIR:
        for p, q in _one_per_size(rng, GENERIC):
            specs.append((f"verify {suite} pair", ["verify", "--identity", suite, "--p", str(p), "--q", str(q)], {}))
        for _ in range(2):
            sample = ["--sample", "8", "--seed", str(rng.randrange(10_000))]
            specs.append((f"verify {suite} --sample 8", ["verify", "--identity", suite, *sample], {}))
    for route, n in COEFF_SIZES:
        for p, q in _one_per_size(rng, GENERIC):
            if route == "inverse":  # its cost depends on n - k only
                shift = rng.randint(0, 2)
                size, k, slot = n + shift, shift, f"coeff inverse n-k={n}"
            else:
                size, k, slot = n, _offset_k(rng, n), f"coeff {route} n={n}"
            argv = ["coeff", "--p", str(p), "--q", str(q), "--n", str(size), "--k", str(k), "--route", route]
            specs.append((slot, argv, dict(p=p, q=q, n=size, k=k, route=route)))
    for n_max in TABLE_SIZES:
        for p, q in _one_per_size(rng, GRID):
            argv = ["table", "--p", str(p), "--q", str(q), "--max", str(n_max)]
            specs.append((f"table --max {n_max}", argv, dict(p=p, q=q, n=n_max)))
    formats = [FORMATS[i % len(FORMATS)] for i in range(len(specs))]
    rng.shuffle(formats)
    requests = [
        Request(slot, "cli", tuple(argv) + ("--format", fmt), fmt, **fields)
        for (slot, argv, fields), fmt in zip(specs, formats)
    ]
    rng.shuffle(requests)
    return requests


BIG_ROUTES = (
    ("recurrence", 300),
    ("factorial", 1000),
    ("product", 600),
    ("subset", 300),
    ("multiset", 300),
    ("partial-fractions", 200),
)
INVERSE_SPAN = 14
SYMBOLIC_N = 45
TABLE_MAX = 134
"""Just past the 128-row cache limit of ``coeff_recurrence``."""


def bigcoeff(seed: int) -> list[Request]:
    """One large exact coefficient per request, each in fresh process state."""
    rng = random.Random(seed)
    requests = []
    for route, n in BIG_ROUTES:
        p, q = rng.choice(BIG_PAIRS)
        requests.append(Request(f"route {route} n={n}", "route", p=p, q=q, n=n, k=_offset_k(rng, n), route=route))
    shift = rng.randint(0, 2)
    p, q = rng.choice(BIG_PAIRS)
    requests.append(
        Request(f"route inverse n-k={INVERSE_SPAN}", "route", p=p, q=q, n=INVERSE_SPAN + shift, k=shift, route="inverse")
    )
    requests.append(
        Request(f"symbolic n={SYMBOLIC_N}", "symbolic", n=SYMBOLIC_N, k=_offset_k(rng, SYMBOLIC_N), queries=tuple(rng.sample(GENERIC, 2)))
    )
    p, q = rng.choice(BIG_PAIRS)
    argv = ("table", "--p", str(p), "--q", str(q), "--max", str(TABLE_MAX), "--format", "plain")
    requests.append(Request(f"table --max {TABLE_MAX}", "cli", argv, "plain", p=p, q=q, n=TABLE_MAX))
    rng.shuffle(requests)
    return requests


SESSION_ROUTES = ("factorial", "product", "subset", "multiset", "partial-fractions")


def _balanced_offsets(rng: random.Random, count: int) -> list[int]:
    """Offsets -2..2 in equal shares, shuffled, so that the seed moves costs
    between pairs without changing how many requests are costly."""
    offsets = [i % 5 - 2 for i in range(count)]
    rng.shuffle(offsets)
    return offsets


def session(seed: int) -> list[Request]:
    """Batches of warm point and row queries, each pair once per route."""
    rng = random.Random(seed)
    requests = []
    for route in SESSION_ROUTES:
        offsets = [_balanced_offsets(rng, len(GENERIC)) for _ in range(6)]
        for i, (p, q) in enumerate(GENERIC):
            first, second = 30 + 2 * offsets[4][i], 30 - 2 * offsets[5][i]
            queries = (
                ("point", 100, 50 + offsets[0][i]),
                ("point", 75, 37 + offsets[1][i]),
                ("row", 60),
                ("route", route, 40, 20 + offsets[2][i]),
                ("multinomial", 100, (first, second, 90 - first - second)),
                ("symbolic", 30, 15 + offsets[3][i]),
            )
            requests.append(Request(f"batch {route}", "batch", p=p, q=q, queries=queries))
    rng.shuffle(requests)
    return requests


GENERATORS = {"verify-cli": verify_cli, "bigcoeff": bigcoeff, "session": session}
