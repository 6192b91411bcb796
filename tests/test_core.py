import functools
import itertools
import json
import random

import pytest

from semirings.core import (CheckReport, FiniteSemiring, OpTable,
                            InternalConsistencyError, PartialOrder,
                            StructureError, _antisymmetry_witness,
                            _comm_monoid_tables, _distributive_partners,
                            absorption_witness, all_partial_orders,
                            check_ordered_semiring, check_semiring_axioms,
                            enumerate_semirings, is_orderable, is_partial_order,
                            is_zero_sum_free, natural_quasiorder,
                            random_semiring, search_compatible_order,
                            semiring_from_json, semiring_law_violations,
                            semiring_to_json)
from semirings.gallery import (boolean, gallery_semiring, nat_desk,
                               xor_semiring)


# -- independent oracle: flat re-implementation of every law ----------------

def laws_hold(s):
    n = s.n
    for a in range(n):
        if s.add[s.zero][a] != a or s.add[a][s.zero] != a:
            return False
        if s.mul[s.one][a] != a or s.mul[a][s.one] != a:
            return False
        if s.mul[s.zero][a] != s.zero or s.mul[a][s.zero] != s.zero:
            return False
        for b in range(n):
            if s.add[a][b] != s.add[b][a]:
                return False
            for c in range(n):
                if s.add[s.add[a][b]][c] != s.add[a][s.add[b][c]]:
                    return False
                if s.mul[s.mul[a][b]][c] != s.mul[a][s.mul[b][c]]:
                    return False
                if s.mul[a][s.add[b][c]] != s.add[s.mul[a][b]][s.mul[a][c]]:
                    return False
                if s.mul[s.add[b][c]][a] != s.add[s.mul[b][a]][s.mul[c][a]]:
                    return False
    return True


# -- brute-force oracles: every table over itertools.product, then a filter --

def _assoc(table, n):
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def brute_comm_monoid_tables(n):
    """All commutative monoid tables on {0..n-1} with identity 0."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    out = []
    for vals in itertools.product(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[0][i] = t[i][0] = i
        for (i, j), v in zip(cells, vals):
            t[i][j] = t[j][i] = v
        if _assoc(t, n):
            out.append(tuple(tuple(row) for row in t))
    return tuple(out)


@functools.cache
def brute_monoid_tables(n):
    """All monoid tables on {0..n-1} with identity 1 (n >= 2)."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != 1 and j != 1]
    out = []
    for vals in itertools.product(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[1][i] = t[i][1] = i
        for (i, j), v in zip(cells, vals):
            t[i][j] = v
        if _assoc(t, n):
            out.append(tuple(tuple(row) for row in t))
    return tuple(out)


def _distributive(add, mul, n):
    return all(mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
               and mul[add[y][z]][x] == add[mul[y][x]][mul[z][x]]
               for x in range(n) for y in range(n) for z in range(n))


def brute_distributive_partners(n, add):
    """Generate, then filter: the monoid tables with absorbing 0 that
    distribute over `add`."""
    return tuple(m for m in brute_monoid_tables(n)
                 if all(m[0][a] == 0 == m[a][0] for a in range(n))
                 and _distributive(add, m, n))


def brute_partial_orders(n):
    """Every reflexive, antisymmetric, transitive relation, scanning the
    off-diagonal cells as bits in itertools.product order."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in itertools.product((False, True), repeat=len(cells)):
        mat = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(cells, bits):
            mat[i][j] = b
        rel = tuple(tuple(row) for row in mat)
        if is_partial_order(rel):
            out.append(PartialOrder(rel))
    return tuple(out)


def brute_order_search(s, budget=None):
    """The plain scan: check_ordered_semiring on every partial order."""
    examined = 0
    for o in all_partial_orders(s.n):
        if budget is not None and examined >= budget:
            return ("inconclusive", None, examined)
        examined += 1
        if check_ordered_semiring(s, o).passed:
            return ("found", o, examined)
    return ("none", None, examined)


def all_semirings_up_to_3():
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_semirings(n))
    return out


def test_boolean_passes():
    assert check_semiring_axioms(boolean()).passed


def test_commutativity_violation_witnessed():
    s = FiniteSemiring(("0", "1"), 0, 1, ((0, 1), (0, 1)), ((0, 0), (0, 1)))
    report = check_semiring_axioms(s)
    assert not report.passed
    assert ("add-commutativity", (0, 1)) in report.violations


def test_malformed_table_is_structural_not_axiomatic():
    s = FiniteSemiring(("0", "1"), 0, 1, ((0, 7), (1, 1)), ((0, 0), (0, 1)))
    with pytest.raises(StructureError):
        check_semiring_axioms(s)


# -- the law engine: least witness per law, on tables and on the view ------

LAW_ORDER = ("add-associativity", "add-commutativity", "add-identity",
             "mul-associativity", "mul-identity", "zero-absorption",
             "left-distributivity", "right-distributivity")


def least_witnesses_oracle(elements, plus, times, zero, one):
    """Flat oracle: the first failing tuple of each law in product order."""
    broken = {
        "add-associativity": (3, lambda a, b, c: plus(plus(a, b), c) != plus(a, plus(b, c))),
        "add-commutativity": (2, lambda a, b: plus(a, b) != plus(b, a)),
        "add-identity": (1, lambda a: plus(zero, a) != a or plus(a, zero) != a),
        "mul-associativity": (3, lambda a, b, c: times(times(a, b), c) != times(a, times(b, c))),
        "mul-identity": (1, lambda a: times(one, a) != a or times(a, one) != a),
        "zero-absorption": (1, lambda a: times(zero, a) != zero or times(a, zero) != zero),
        "left-distributivity": (3, lambda x, y, z: times(x, plus(y, z))
                                != plus(times(x, y), times(x, z))),
        "right-distributivity": (3, lambda x, y, z: times(plus(y, z), x)
                                 != plus(times(y, x), times(z, x))),
    }
    out = []
    for law in LAW_ORDER:
        arity, fails = broken[law]
        w = next((w for w in itertools.product(elements, repeat=arity) if fails(*w)), None)
        if w is not None:
            out.append((law, w))
    return out


def _planted(cells):
    """The saturating chain {0, 1, 2} with the given (table, i, j, value)
    cells overwritten."""
    tables = {"add": [list(row) for row in nat_desk(2).add],
              "mul": [list(row) for row in nat_desk(2).mul]}
    for name, i, j, v in cells:
        tables[name][i][j] = v
    return FiniteSemiring.from_tables(("0", "1", "2"), 0, 1, tables["add"], tables["mul"])


# planted law -> (overwritten cells, every violation in law order)
PLANTED = {
    "add-associativity": ([("add", 1, 2, 1)],
                          [("add-associativity", (1, 1, 1)), ("add-commutativity", (1, 2))]),
    "add-commutativity": ([("add", 1, 1, 1), ("add", 1, 2, 1)],
                          [("add-commutativity", (1, 2))]),
    "add-identity": ([("add", 0, 1, 2), ("add", 1, 0, 2)], [("add-identity", (1,))]),
    "mul-associativity": ([("mul", 0, 0, 1)],
                          [("mul-associativity", (0, 0, 2)), ("zero-absorption", (0,)),
                           ("left-distributivity", (0, 0, 0)),
                           ("right-distributivity", (0, 0, 0))]),
    "mul-identity": ([("mul", 1, 1, 2)], [("mul-identity", (1,))]),
    "zero-absorption": ([("mul", 0, 2, 2)],
                        [("zero-absorption", (2,)), ("left-distributivity", (0, 1, 1))]),
    "left-distributivity": ([("add", 1, 1, 0)],
                            [("left-distributivity", (2, 1, 1)),
                             ("right-distributivity", (2, 1, 1))]),
    "right-distributivity": ([("add", 1, 1, 0)],
                             [("left-distributivity", (2, 1, 1)),
                              ("right-distributivity", (2, 1, 1))]),
}


@pytest.mark.parametrize("law", LAW_ORDER)
def test_law_engine_least_witness_on_both_routes(law):
    cells, expected = PLANTED[law]
    s = _planted(cells)
    assert law in dict(expected)
    native = semiring_law_violations(range(s.n), s.add, s.mul, s.zero, s.one)
    view = semiring_law_violations(list(range(s.n)), OpTable(s.plus),
                                   OpTable(s.times), s.zero, s.one)
    assert native == view == expected
    assert expected == least_witnesses_oracle(range(s.n), s.plus, s.times, s.zero, s.one)
    assert check_semiring_axioms(s).violations == tuple(expected)


def test_absorption_witness_on_both_routes():
    # 1+2 = 0 plants 0+1+2 = 0 with 0+1 != 0; xor plants 0+1+1 = 0
    for s, expected in ((_planted([("add", 1, 2, 0), ("add", 2, 1, 0)]), (0, 1, 2)),
                        (xor_semiring(), (0, 1, 1)), (nat_desk(2), None)):
        assert absorption_witness(range(s.n), s.add) == expected
        assert absorption_witness(list(range(s.n)), OpTable(s.plus)) == expected
        least = next(((a, x, y) for a, x, y in itertools.product(range(s.n), repeat=3)
                      if s.plus(s.plus(a, x), y) == a and s.plus(a, x) != a), None)
        assert least == expected


def test_enumeration_matches_independent_law_oracle():
    for s in all_semirings_up_to_3():
        assert check_semiring_axioms(s).passed
        assert laws_hold(s)


def test_enumeration_counts_frozen():
    # counts recomputed by the flat oracle over raw table products
    assert len(list(enumerate_semirings(1))) == 1
    assert len(list(enumerate_semirings(2))) == 2
    assert len(list(enumerate_semirings(3))) == 6
    assert len(list(enumerate_semirings(4))) == 77


def test_nonabsorbing_tables_are_rejected():
    # ordered chain with a*x = a for every x: without the absorption law this
    # would slip through, and then no complete semiring could contain it
    s = FiniteSemiring(("0", "1", "a"), 0, 1,
                       ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
                       ((0, 0, 0), (0, 1, 2), (2, 2, 2)))
    report = check_semiring_axioms(s)
    assert not report.passed
    assert ("zero-absorption", (2,)) in report.violations


def test_enumeration_is_complete_for_n2():
    # raw double loop over every conceivable pair of 2x2 tables
    hits = []
    for addv in itertools.product(range(2), repeat=4):
        add = (addv[0:2], addv[2:4])
        for mulv in itertools.product(range(2), repeat=4):
            mul = (mulv[0:2], mulv[2:4])
            s = FiniteSemiring(("0", "1"), 0, 1, add, mul)
            if laws_hold(s):
                hits.append((add, mul))
    enumerated = {(s.add, s.mul) for s in enumerate_semirings(2)}
    assert enumerated == set(hits)
    assert (boolean().add, boolean().mul) in enumerated
    assert (xor_semiring().add, xor_semiring().mul) in enumerated


def test_enumeration_refuses_large_n():
    with pytest.raises(ValueError):
        list(enumerate_semirings(5))
    with pytest.raises(ValueError):
        all_partial_orders(6)


def test_random_semiring_deterministic():
    a = random_semiring(3, seed=42)
    b = random_semiring(3, seed=42)
    assert a == b
    assert laws_hold(a)
    assert laws_hold(random_semiring(4, seed=7))


def test_natural_quasiorder_on_desk_chain():
    s = nat_desk(2)
    q = natural_quasiorder(s)
    for a in range(3):
        for b in range(3):
            assert q.leq(a, b) == (a <= b)


def test_natural_quasiorder_on_xor_is_total():
    q = natural_quasiorder(xor_semiring())
    assert q.rel == ((True, True), (True, True))


def test_boolean_quasiorder():
    q = natural_quasiorder(boolean())
    assert q.leq(0, 1) and not q.leq(1, 0)


def test_quasiorder_reflexive_transitive_everywhere():
    for s in all_semirings_up_to_3():
        q = natural_quasiorder(s)
        for a in range(s.n):
            assert q.leq(a, a)
            for b in range(s.n):
                for c in range(s.n):
                    if q.leq(a, b) and q.leq(b, c):
                        assert q.leq(a, c)


def test_xor_not_orderable_with_witness():
    ok, witness = is_orderable(xor_semiring())
    assert not ok
    a, x, y = witness
    s = xor_semiring()
    assert s.add[s.add[a][x]][y] == a and s.add[a][x] != a
    assert witness == (0, 1, 1)


def test_desk_model_orderable_with_chain():
    ok, order = is_orderable(nat_desk(2))
    assert ok
    for a in range(3):
        for b in range(3):
            assert order.leq(a, b) == (a <= b)


def test_orderability_agrees_with_search_up_to_3():
    for s in all_semirings_up_to_3():
        ok, _ = is_orderable(s)
        hit = search_compatible_order(s)
        assert hit.status in ("found", "none")
        assert ok == (hit.status == "found")


def test_search_budget_is_explicit():
    hit = search_compatible_order(xor_semiring(), budget=1)
    assert hit.status == "inconclusive"


def test_xor_search_exhausts_all_two_point_posets():
    assert len(all_partial_orders(2)) == 3
    assert search_compatible_order(xor_semiring()).status == "none"


def test_natural_order_is_itself_compatible():
    for s in all_semirings_up_to_3():
        ok, order = is_orderable(s)
        if ok:
            assert check_ordered_semiring(s, order).passed


def test_found_order_contains_natural_quasiorder():
    for s in all_semirings_up_to_3():
        hit = search_compatible_order(s)
        if hit.status != "found":
            continue
        q = natural_quasiorder(s)
        for a in range(s.n):
            for b in range(s.n):
                if q.leq(a, b):
                    assert hit.order.leq(a, b)


def test_orderable_implies_zero_sum_free():
    for s in all_semirings_up_to_3():
        if is_orderable(s)[0]:
            assert is_zero_sum_free(s)[0]


def test_zero_sum_free_examples():
    assert is_zero_sum_free(nat_desk(2)) == (True, None)
    ok, witness = is_zero_sum_free(xor_semiring())
    assert not ok and witness == (1, 1)


def test_check_ordered_rejects_inverted_boolean_order():
    o = PartialOrder.from_pairs(2, [(1, 0)])
    report = check_ordered_semiring(boolean(), o)
    assert not report.passed
    assert "zero-least" in report.law_names()


def test_check_report_invariant():
    with pytest.raises(Exception):
        CheckReport(passed=True, violations=(("x", (1,)),))


def test_json_roundtrip():
    s = boolean()
    ok, order = is_orderable(s)
    text = semiring_to_json(s, order)
    s2, o2 = semiring_from_json(text)
    assert s2 == s
    assert o2.rel == order.rel


def test_json_malformed_inputs():
    for bad in ("{not json", '{"elements": ["0"]}', '[]',
                '{"elements": ["0","1"], "zero": 0, "one": 1, '
                '"add": [[0,9],[1,1]], "mul": [[0,0],[0,1]]}'):
        with pytest.raises(StructureError):
            semiring_from_json(bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_backtracking_enumerators_match_brute_force(n):
    # same tables in the same order: random_semiring draws partners by
    # position, and the order search counts positions in all_partial_orders
    assert _comm_monoid_tables(n) == brute_comm_monoid_tables(n)
    for add in _comm_monoid_tables(n):
        assert _distributive_partners(n, add) == brute_distributive_partners(n, add)
    assert all_partial_orders(n) == brute_partial_orders(n)


def test_partial_order_counts():
    # the labelled posets on 1..5 points (OEIS A001035)
    assert [len(all_partial_orders(n)) for n in range(1, 6)] == [1, 3, 19, 219, 4231]


def _relabel(t, perm):
    """The table of the operation t carried along the bijection perm."""
    out = [[0] * len(t) for _ in t]
    for i, row in enumerate(t):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return tuple(tuple(row) for row in out)


def test_orderability_criteria_agree_on_every_size5_semiring():
    # antisymmetry of the natural quasiorder, the absorption criterion and
    # the compatible-order search, on one addition table per orbit of the
    # relabellings that fix 0 and 1; isomorphic semirings agree on all three
    perms = [(0, 1, *p) for p in itertools.permutations(range(2, 5))]
    labels = ("0", "1", "a", "b", "c")
    reps = semirings = orderable = 0
    for add in _comm_monoid_tables(5):
        orbit = {_relabel(add, p) for p in perms}
        if add != min(orbit):
            continue
        reps += 1
        for mul in _distributive_partners(5, add):
            s = FiniteSemiring(labels, 0, 1, add, mul)
            assert laws_hold(s)
            anti = _antisymmetry_witness(natural_quasiorder(s).rel) is None
            absorb = absorption_witness(range(5), s.add) is None
            found = search_compatible_order(s).status
            assert found != "inconclusive"
            assert anti == absorb == (found == "found") == is_orderable(s)[0]
            semirings += len(orbit)
            orderable += len(orbit) * anti
    assert (reps, semirings, orderable) == (277, 1719, 1446)


def _search_cases():
    return list(all_semirings_up_to_3()) + list(enumerate_semirings(4))


def test_order_search_matches_plain_scan():
    cases = _search_cases()
    assert len(cases) == 9 + 77
    for s in cases:
        status, order, examined = brute_order_search(s)
        hit = search_compatible_order(s)
        assert (hit.status, hit.order, hit.examined) == (status, order, examined)
        # budgets below, at and past the position of the first compatible order
        budgets = {0, 1, examined - 1, examined, examined + 1,
                   len(all_partial_orders(s.n)) + 5, -1}
        for budget in budgets:
            hit = search_compatible_order(s, budget)
            assert ((hit.status, hit.order, hit.examined)
                    == brute_order_search(s, budget)), (s, budget)


def test_check_ordered_reports_least_witness_per_law():
    # the chain 0 < 1 < a on a table where a*a = 1 breaks multiplication
    s = FiniteSemiring(("0", "1", "a"), 0, 1,
                       ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
                       ((0, 0, 0), (0, 1, 2), (0, 2, 1)))
    chain = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
    report = check_ordered_semiring(s, chain)
    assert report.violations == (("mul-monotone-right", (1, 2, 2)),
                                 ("mul-monotone-left", (1, 2, 2)))
    reverse = PartialOrder.from_pairs(3, [(2, 1), (1, 0)])
    assert check_ordered_semiring(s, reverse).violations == (
        ("zero-least", (1,)), ("mul-monotone-right", (2, 1, 2)),
        ("mul-monotone-left", (2, 1, 2)))


def test_json_rejects_boolean_indices():
    doc = {"elements": ["0", "1"], "zero": 0, "one": 1,
           "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]]}
    for key in ("zero", "one"):
        with pytest.raises(StructureError, match=key):
            semiring_from_json(json.dumps({**doc, key: True}))
    with pytest.raises(StructureError):
        semiring_from_json(json.dumps({**doc, "add": [[0, True], [1, 1]]}))


# -- the row kernels against the generator engine they replaced --------------
# The three functions below are the earlier law engine, one instance per
# generator step.  The row kernels must return exactly their witnesses.

def generator_law_violations(elements, add, mul, zero, one):
    e = elements
    laws = (
        ("add-associativity",
         ((a, b, c) for a in e for b in e for c in e
          if add[add[a][b]][c] != add[a][add[b][c]])),
        ("add-commutativity",
         ((a, b) for a in e for b in e if add[a][b] != add[b][a])),
        ("add-identity",
         ((a,) for a in e if add[zero][a] != a or add[a][zero] != a)),
        ("mul-associativity",
         ((a, b, c) for a in e for b in e for c in e
          if mul[mul[a][b]][c] != mul[a][mul[b][c]])),
        ("mul-identity",
         ((a,) for a in e if mul[one][a] != a or mul[a][one] != a)),
        ("zero-absorption",
         ((a,) for a in e if mul[zero][a] != zero or mul[a][zero] != zero)),
        ("left-distributivity",
         ((x, y, z) for x in e for y in e for z in e
          if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]])),
        ("right-distributivity",
         ((x, y, z) for x in e for y in e for z in e
          if mul[add[y][z]][x] != add[mul[y][x]][mul[z][x]])),
    )
    found = ((law, next(witnesses, None)) for law, witnesses in laws)
    return [(law, witness) for law, witness in found if witness is not None]


def generator_absorption_witness(elements, add):
    for a in elements:
        for x in elements:
            ax = add[a][x]
            if ax == a:
                continue
            for y in elements:
                if add[ax][y] == a:
                    return (a, x, y)
    return None


def generator_natural_quasiorder(s):
    """The relation, or None where it is not reflexive and transitive."""
    n = s.n
    rel = tuple(tuple(any(s.add[a][x] == b for x in range(n)) for b in range(n))
                for a in range(n))
    reflexive = all(rel[i][i] for i in range(n))
    transitive = all(rel[a][c] or not (rel[a][b] and rel[b][c])
                     for a in range(n) for b in range(n) for c in range(n))
    return rel if reflexive and transitive else None


def assert_kernels_match_generators(s, order=None):
    """Both routes of the law engine, absorption and the natural quasiorder
    agree with the generator engine on s; the view route also runs over
    the elements in `order`."""
    rng = range(s.n)
    want = generator_law_violations(rng, s.add, s.mul, s.zero, s.one)
    assert semiring_law_violations(rng, s.add, s.mul, s.zero, s.one) == want
    e = list(order or rng)
    assert (semiring_law_violations(e, OpTable(s.plus), OpTable(s.times), s.zero, s.one)
            == generator_law_violations(e, s.add, s.mul, s.zero, s.one))
    assert absorption_witness(rng, s.add) == generator_absorption_witness(rng, s.add)
    assert (absorption_witness(e, OpTable(s.plus))
            == generator_absorption_witness(e, s.add))
    rel = generator_natural_quasiorder(s)
    if rel is None:
        with pytest.raises(InternalConsistencyError):
            natural_quasiorder(s)
    else:
        assert natural_quasiorder(s).rel == rel


def test_row_kernels_match_generators_on_every_table_up_to_4():
    tables = [s for n in (1, 2, 3, 4) for s in enumerate_semirings(n)]
    assert len(tables) == 86
    for s in tables:
        assert_kernels_match_generators(s)


def _chain_lattice(n):
    """{0..n-1} with max and min: a bounded distributive lattice."""
    add = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    mul = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return FiniteSemiring(tuple(map(str, range(n))), 0, n - 1, add, mul)


def perturbed_table(rnd, n):
    """A semiring on n elements, relabelled at random, with 0 to 3 random
    cells overwritten."""
    bases = [nat_desk(n - 1), _chain_lattice(n)] if n > 1 else []
    if n <= 4:
        bases += enumerate_semirings(n)
    base = rnd.choice(bases)
    perm = list(range(n))
    rnd.shuffle(perm)
    tables = {}
    for name in ("add", "mul"):
        t = [[0] * n for _ in range(n)]
        for i, row in enumerate(getattr(base, name)):
            for j, v in enumerate(row):
                t[perm[i]][perm[j]] = perm[v]
        tables[name] = t
    for _ in range(rnd.randrange(4)):
        tables[rnd.choice(("add", "mul"))][rnd.randrange(n)][rnd.randrange(n)] = \
            rnd.randrange(n)
    return FiniteSemiring.from_tables(base.elements, perm[base.zero], perm[base.one],
                                      tables["add"], tables["mul"])


def test_row_kernels_match_generators_on_perturbed_tables():
    rnd = random.Random(2002)
    broken = unorderable = 0
    for _ in range(3000):
        s = perturbed_table(rnd, rnd.randint(1, 6))
        order = list(range(s.n))
        rnd.shuffle(order)
        assert_kernels_match_generators(s, order)
        broken += not check_semiring_axioms(s).passed
        unorderable += absorption_witness(range(s.n), s.add) is not None
    assert 1000 < broken < 3000 and unorderable > 100


@pytest.mark.parametrize("name", ["nat", "nat-infinity", "omega-minus"])
@pytest.mark.parametrize("k", [3, 5, 8])
def test_row_kernels_match_generators_on_symbolic_samples(name, k):
    # the member's own operations, then each with one planted wrong value
    c = gallery_semiring(name)
    e = c.sample(k)
    rnd = random.Random(k)
    broken = 0
    for _ in range(10):
        a, b, v = rnd.choice(e), rnd.choice(e), rnd.choice(e)
        plant = lambda f: lambda x, y: v if (x, y) == (a, b) else f(x, y)  # noqa: E731
        for p, t in ((c.plus, c.times), (plant(c.plus), c.times), (c.plus, plant(c.times))):
            add, mul = OpTable(p), OpTable(t)
            want = generator_law_violations(e, add, mul, c.zero, c.one)
            assert semiring_law_violations(e, add, mul, c.zero, c.one) == want
            assert absorption_witness(e, add) == generator_absorption_witness(e, add)
            broken += bool(want)
    assert broken > 5


def test_row_kernels_match_generators_on_finite_gallery_members():
    names = ["boolean", "three-valued", "four-valued",
             *(f"powerset:{k}" for k in range(5)), *(f"lang:1:{L}" for L in range(6)),
             "lang:2:0", "lang:2:1", "lang:3:0", "lang:3:1"]
    for name in names:
        member = gallery_semiring(name)
        s = member if isinstance(member, FiniteSemiring) else member.base
        assert s.n <= 64
        assert_kernels_match_generators(s)


def test_transitivity_masks_match_the_triple_loop():
    rnd = random.Random(7)
    for _ in range(2000):
        n = rnd.randint(1, 6)
        rel = tuple(tuple(i == j or rnd.random() < 0.4 for j in range(n))
                    for i in range(n))
        want = all(rel[a][c] or not (rel[a][b] and rel[b][c])
                   for a in range(n) for b in range(n) for c in range(n))
        assert is_partial_order(rel) == (want and _antisymmetry_witness(rel) is None)

