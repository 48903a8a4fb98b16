"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from reference import Reference, check_coeff, check_reports, check_table  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import GENERATORS, GRID, Request  # noqa: E402

tnomial = run.load_package()


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seed_fixes_requests_and_never_sizes(workload):
    generate = GENERATORS[workload]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    slots = Counter(request.slot for request in generate(7))
    for seed in (0, 8, 12345):
        assert Counter(request.slot for request in generate(seed)) == slots


@pytest.mark.parametrize("workload", ["verify-cli", "session"])
def test_a_pass_has_at_least_100_requests(workload):
    assert len(GENERATORS[workload](3)) >= 100


def test_requests_avoid_inputs_the_roadmap_will_change():
    for seed in range(20):
        for request in GENERATORS["verify-cli"](seed):
            argv = list(request.argv)
            for flag in ("--max", "--order"):
                if flag in argv:
                    assert int(argv[argv.index(flag) + 1]) > 0
            if "--p" in argv and argv[0] == "verify":
                p, q = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--q") + 1])
                assert p and q and abs(p) != abs(q)


def test_reference_matches_the_package_on_the_default_grid():
    for p, q in GRID:
        ref, params = Reference(p, q), tnomial.SeqParams(p, q)
        for n in range(11):
            assert ref.row(n) == [tnomial.coeff_recurrence(params, n, k) for k in range(n + 1)]
            assert [ref.coefficient(n, k) for k in range(n + 1)] == ref.row(n)
        assert ref.inverse_entry(7, 2) == tnomial.coeff_inverse(params, 7, 2)
        assert ref.multinomial(10, (3, 4)) == tnomial.multinomial(params, 10, (3, 4))


def _bindings(function_names):
    """Every (owner, attribute) across tnomial.* bound to one of the named objects."""
    prefix = "tnomial"
    owners = [m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")]
    owners += [v for m in owners for v in vars(m).values() if inspect.isclass(v) and v.__module__.startswith(prefix)]
    found = {}
    for owner in owners:
        for attr, value in vars(owner).items():
            if any(value is target for target in function_names):
                found[(id(owner), attr)] = value
    return found


def test_tracer_wraps_every_binding_and_uninstall_restores():
    coefficients, rings = tnomial.coefficients, tnomial.rings
    originals = [coefficients.coeff_recurrence, rings.BiPoly.__mul__, rings.exact_div]
    before = _bindings(originals)
    assert len(before) > len(originals)
    tracer = Tracer()
    tracer.install(tnomial)
    try:
        assert not _bindings(originals), "an original is still bound somewhere"
        assert tnomial.coeff_recurrence is tnomial.suites.coeff_recurrence is coefficients.coeff_recurrence
        assert tnomial.coeff_recurrence is not originals[0]
        assert rings.BiPoly.__rmul__ is rings.BiPoly.__mul__
        tracer.start_request(5)
        assert tnomial.coeff_recurrence(tnomial.SeqParams(2, 3), 4, 2) == 247
        totals = tracer.totals()
        assert totals["coefficients.coeff_recurrence.calls"] == 1
        assert all(span[4] == 5 for span in tracer.spans)
    finally:
        tracer.uninstall()
    assert _bindings(originals) == before


def test_tracer_counts_generator_items_and_reports():
    tracer = Tracer()
    tracer.install(tnomial)
    try:
        tracer.start_request(0)
        assert len(list(tnomial.sequences.compositions_of(5, 2))) == 4
        tnomial.suites.run_verify("binomial", None, 3)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert totals["sequences.compositions_of.items"] == 4
    assert totals["suites.reports"] == 1 and totals["suites.reports_failed"] == 0


def test_self_time_subtracts_what_children_cover():
    spans = [
        (0, 0, 100, -1, 1),  # root
        (1, 10, 30, 0, 1),  # child of root
        (2, 20, 25, 1, 1),  # grandchild
        (1, 40, 90, 0, 1),  # second child of root
        (2, 80, 95, 3, 1),  # overruns its parent: only 80..90 is covered
    ]
    assert self_times(spans) == [100 - 20 - 50, 20 - 5, 5, 50 - 10, 15]


def test_checkers_flag_an_injected_wrong_value():
    ref = Reference(2, 3)
    right = ref.coefficient(10, 4)
    assert check_coeff(f"{right}\n", "plain", right) is None
    assert check_coeff(f"{right + 1}\n", "plain", right) is not None

    rows = [ref.row(n) for n in range(6)]
    plain = "\n".join(f"n={n} " + " ".join(map(str, row)) for n, row in enumerate(rows))
    assert check_table(plain, "plain", 2, 3, 5)[0] is None
    rows[4][2] += 1
    broken = "\n".join(f"n={n} " + " ".join(map(str, row)) for n, row in enumerate(rows))
    assert check_table(broken, "plain", 2, 3, 5)[0] is not None

    assert check_reports("[x] HOLDS  (a)\n[y] FAILS  (b)\n", "plain") is not None
    assert check_reports("", "plain") is not None

    route = Request("route", "route", p=2, q=3, n=10, k=4, route="factorial")
    assert run._check(route, right, "")[0] is None
    assert run._check(route, right - 1, "")[0] is not None

    class Poly:
        terms = {(1, 0): 1}  # "p", not C(2, 1) = p + q

    symbolic = Request("symbolic", "symbolic", n=2, k=1, queries=((2, 3), (1, 4)))
    assert run._check(symbolic, Poly(), "")[0] is not None


def test_a_request_over_its_cap_is_stopped():
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        run._in_child(lambda: time.sleep(30), 0.3)
    assert time.monotonic() - start < 5
    assert run._in_child(lambda: {"ok": 1}, 5) == {"ok": 1}
