"""Finite semirings as operation tables, with the decision procedures on them.

Carrier elements are indices 0..n-1; the label list exists only for I/O.
Everything here is a pure function of immutable inputs, so values are safe
to share across threads.  All witness scans run in ascending index order,
which makes every reported witness the lexicographically least one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import compress, repeat
from operator import itemgetter


class StructureError(ValueError):
    """Input is malformed (bad shape, index out of range): not a failed law."""


class InternalConsistencyError(AssertionError):
    """Two provably equivalent criteria disagreed; aborting is mandatory."""


@dataclass(frozen=True)
class FiniteSemiring:
    elements: tuple[str, ...]
    zero: int
    one: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    @classmethod
    def from_tables(cls, elements, zero, one, add, mul) -> "FiniteSemiring":
        return cls(
            tuple(elements),
            zero,
            one,
            tuple(tuple(row) for row in add),
            tuple(tuple(row) for row in mul),
        )

    @property
    def n(self) -> int:
        return len(self.elements)

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]

    def times(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def label(self, i: int) -> str:
        return self.elements[i]

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise StructureError(f"unknown element label {label!r}") from None


@dataclass(frozen=True)
class QuasiOrder:
    """Reflexive transitive relation as a boolean matrix."""

    rel: tuple[tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rel)

    def leq(self, a: int, b: int) -> bool:
        return self.rel[a][b]


@dataclass(frozen=True)
class PartialOrder(QuasiOrder):
    """Reflexive transitive antisymmetric relation as a boolean matrix."""

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "PartialOrder":
        """Build from a pair list, taking the reflexive-transitive closure."""
        mat = [[i == j for j in range(n)] for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError(f"order pair ({i},{j}) out of range")
            mat[i][j] = True
        for k in range(n):
            for i in range(n):
                if mat[i][k]:
                    for j in range(n):
                        if mat[k][j]:
                            mat[i][j] = True
        rel = tuple(tuple(row) for row in mat)
        if _antisymmetry_witness(rel) is not None:
            raise StructureError("order pairs close into a cyclic relation")
        return cls(rel)

    def pairs(self):
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if i != j and self.rel[i][j]]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a law battery: passed iff the violation list is empty."""

    passed: bool
    violations: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise InternalConsistencyError("CheckReport passed flag inconsistent")

    @classmethod
    def build(cls, violations) -> "CheckReport":
        v = tuple(violations)
        return cls(not v, v)

    @classmethod
    def first_per_law(cls, found) -> "CheckReport":
        """Build from (law, witness) pairs in the order they were found,
        keeping the first witness of each law; laws keep first-seen order."""
        first = {}
        for law, witness in found:
            first.setdefault(law, witness)
        return cls.build(first.items())

    def merge(self, other: "CheckReport") -> "CheckReport":
        return CheckReport.build(self.violations + other.violations)

    def law_names(self):
        return sorted({name for name, _ in self.violations})


def _is_reflexive(rel) -> bool:
    return all(rel[i][i] for i in range(len(rel)))


def _is_transitive(rel) -> bool:
    """Every row includes the rows of the elements it relates to; each row
    is a bitmask with one byte per element."""
    masks = [int.from_bytes(bytes(row), "little") for row in rel]
    return all(m & ~mask == 0 for row, mask in zip(rel, masks)
               for m in compress(masks, row))


def _antisymmetry_witness(rel):
    return next(((a, b) for a, row in enumerate(rel) for b in range(a + 1, len(rel))
                 if row[b] and rel[b][a]), None)


def is_partial_order(rel) -> bool:
    return _is_reflexive(rel) and _is_transitive(rel) and _antisymmetry_witness(rel) is None


def _validate_structure(s: FiniteSemiring) -> None:
    n = s.n
    if n == 0:
        raise StructureError("empty carrier")
    if len(set(s.elements)) != n:
        raise StructureError("duplicate element labels")
    if not (0 <= s.zero < n and 0 <= s.one < n):
        raise StructureError("zero/one index out of range")
    for name, table in (("add", s.add), ("mul", s.mul)):
        if len(table) != n:
            raise StructureError(f"{name} table has {len(table)} rows, expected {n}")
        for i, row in enumerate(table):
            if len(row) != n:
                raise StructureError(f"{name}[{i}] has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                    raise StructureError(f"{name}[{i}][{j}] = {x!r} out of range")


class OpTable:
    """Table view of a binary operation: view[a][b] == fn(a, b).

    Lets the law engine read a symbolic carrier's operations the way it
    reads a finite carrier's tuple tables.  Finite carriers pass their
    tables directly, because native tuple indexing is several times faster
    than a call per lookup."""

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return _OpRow(self.fn, a)


class _OpRow(partial):
    """The row view[a] of an OpTable: row[b] calls fn(a, b)."""

    __getitem__ = partial.__call__


def _gather(keys):
    """row -> (row[k] for k in keys) as a tuple, read in C; a tuple even
    for one key, where itemgetter alone returns the bare item."""
    get = itemgetter(*keys)
    return get if len(keys) > 1 else lambda row: (get(row),)


def _transpose(table):
    """The table of (a, b) -> table[b][a]."""
    if isinstance(table, OpTable):
        return OpTable(lambda a, b, fn=table.fn: fn(b, a))
    return tuple(zip(*table))


class _Rows(dict):
    """rows[v] == (table[v][k] for k in keys) as a tuple, read from the
    table once per value v."""

    def __init__(self, table, keys):
        self.table, self.gather = table, _gather(keys)

    def __missing__(self, v):
        row = self[v] = self.gather(self.table[v])
        return row


def _least_at(e, lead, left, right):
    """lead + the least c in e at which the rows left and right differ, or
    None where they agree."""
    return next(((*lead, c) for c, l, r in zip(e, left, right) if l != r), None)


def _associativity_witness(e, rows: _Rows):
    """Least (a, b, c) with (a*b)*c != a*(b*c), where rows[v] == v*c over c."""
    along = [_gather(rows[b]) for b in e]  # along[b](row a) == a*(b*c) over c
    for a in e:
        ta = rows.table[a]
        for b, ab, a_bc in zip(e, rows[a], along):
            if rows[ab] != (right := a_bc(ta)):
                return _least_at(e, (a, b), rows[ab], right)
    return None


def _distributivity_witness(e, add: _Rows, mul: _Rows):
    """Least (x, y, z) with x*(y+z) != x*y + x*z: left distributivity of
    mul over add, or right distributivity when mul is transposed."""
    along = [_gather(add[y]) for y in e]  # along[y](row x) == x*(y+z) over z
    for x in e:
        mx = mul.table[x]
        plus_xz = _Rows(add.table, mul[x])  # plus_xz[u] == u + x*z over z
        for y, xy, x_yz in zip(e, mul[x], along):
            if (left := x_yz(mx)) != plus_xz[xy]:
                return _least_at(e, (x, y), left, plus_xz[xy])
    return None


def semiring_law_violations(elements, add, mul, zero, one):
    """The least witness of each violated semiring law, as a list of
    (law, witness) pairs in law order.

    `add[a][b]` and `mul[a][b]` are indexable tables, and the quantifiers
    run over `elements` in the order given, so each witness is the least
    one in that order.  A finite carrier passes range(n) and its tables; a
    symbolic one passes an element sample and OpTable views, which makes
    every law instance over the sample exact.

    The last variable of each law runs a whole row at a time: the two
    sides are gathered in C as tuples over it and compared, and only the
    first pair of rows that differ is scanned for its least position.
    Each distinct row is gathered once: x*y + x*z over z, for instance,
    once per value of x*y."""
    e = elements
    add_rows, add_t_rows, mul_rows, mul_t_rows = (
        _Rows(t, e) for t in (add, _transpose(add), mul, _transpose(mul)))
    found = (
        ("add-associativity", _associativity_witness(e, add_rows)),
        ("add-commutativity", next((_least_at(e, (a,), add_rows[a], add_t_rows[a])
                                    for a in e if add_rows[a] != add_t_rows[a]), None)),
        # a one-variable law compares (row[a], column[a]) with what it must be
        ("add-identity", _least_at(e, (), zip(add_rows[zero], add_t_rows[zero]), zip(e, e))),
        ("mul-associativity", _associativity_witness(e, mul_rows)),
        ("mul-identity", _least_at(e, (), zip(mul_rows[one], mul_t_rows[one]), zip(e, e))),
        ("zero-absorption", _least_at(e, (), zip(mul_rows[zero], mul_t_rows[zero]),
                                      repeat((zero, zero)))),
        ("left-distributivity", _distributivity_witness(e, add_rows, mul_rows)),
        ("right-distributivity", _distributivity_witness(e, add_rows, mul_t_rows)),
    )
    return [(law, witness) for law, witness in found if witness is not None]


def absorption_witness(elements, add):
    """Least (a, x, y) over `elements` with a+x+y = a but a+x != a, or
    None; there is none exactly when the natural quasiorder is
    antisymmetric.  Reads the same table view as semiring_law_violations,
    and each row of add once, but not natural_quasiorder's relation, so
    the two criteria stay independent."""
    rows = _Rows(add, elements)
    row_set = cache(lambda v: set(rows[v]))
    for a in elements:
        for x, ax in zip(elements, rows[a]):
            if ax != a and a in row_set(ax):
                return (a, x, elements[rows[ax].index(a)])
    return None


def check_semiring_axioms(s: FiniteSemiring) -> CheckReport:
    """Check the monoid, commutativity, distributivity and zero-absorption
    laws.

    Absorption (0*x = x*0 = 0) is part of the definition here: without it
    the evaluation map from polynomials is not a homomorphism, and infinite
    distributivity over the empty family already forces it inside any
    semiring with total infinite sums, so nothing non-absorbing can embed
    into a completion anyway.

    Returns one lexicographically least witness per violated law.  Raises
    StructureError for malformed tables, which is a different failure mode
    than a violated law.
    """
    _validate_structure(s)
    return CheckReport.build(
        semiring_law_violations(range(s.n), s.add, s.mul, s.zero, s.one))


def natural_quasiorder(s: FiniteSemiring) -> QuasiOrder:
    """a <= b iff a + x = b for some x in the carrier: b is in a's row."""
    rel = tuple(tuple(map(set(row).__contains__, range(s.n))) for row in s.add)
    if not (_is_reflexive(rel) and _is_transitive(rel)):
        raise InternalConsistencyError(
            "natural quasiorder of a semiring must be reflexive and transitive")
    return QuasiOrder(rel)


def is_orderable(s: FiniteSemiring):
    """Decide orderability via antisymmetry of the natural quasiorder.

    The absorption criterion (a+x+y=a implies a+x=a) is evaluated
    independently over all triples; the two must agree, otherwise the run
    aborts.  Returns (True, natural PartialOrder) or (False, triple witness).
    """
    q = natural_quasiorder(s)
    anti = _antisymmetry_witness(q.rel)
    triple = absorption_witness(range(s.n), s.add)
    if (anti is None) != (triple is None):
        raise InternalConsistencyError(
            f"antisymmetry and absorption criteria disagree: {anti} vs {triple}")
    if triple is None:
        return True, PartialOrder(q.rel)
    return False, triple


@lru_cache(maxsize=None)
def all_partial_orders(n: int):
    """Every partial order on {0..n-1}, in lexicographic bitmask order."""
    if n > 5:
        raise ValueError(f"partial-order enumeration supported for n <= 5, got {n}")
    rel = [[True if i == j else -1 for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    return tuple(PartialOrder(r) for r in
                 _fill_tables(rel, cells, (False, True), False, _poset_consistent))


@dataclass(frozen=True)
class OrderSearch:
    """Tri-state outcome: found / none / inconclusive (budget ran out)."""

    status: str
    order: PartialOrder | None = None
    examined: int = 0


def _monotone_violations(s: FiniteSemiring, rel, pairs):
    """Yield (law, least witness) for each violated monotonicity law, in law
    order.  `pairs` lists the strict pairs a < b of the order in ascending
    order; the reflexive pairs can never witness a violation."""
    add, mul, rng = s.add, s.mul, range(s.n)
    for law, table, left in (("add-monotone", add, False),
                             ("mul-monotone-right", mul, False),
                             ("mul-monotone-left", mul, True)):
        for a, b in pairs:
            if left:
                x = next((x for x in rng if not rel[table[x][a]][table[x][b]]), None)
            else:
                ra, rb = table[a], table[b]
                x = next((x for x in rng if not rel[ra[x]][rb[x]]), None)
            if x is not None:
                yield law, (a, b, x)
                break


def check_ordered_semiring(s: FiniteSemiring, o: PartialOrder) -> CheckReport:
    """Verify weak monotonicity of + and * and minimality of 0 under o."""
    if o.n != s.n:
        raise StructureError("order size does not match carrier")
    if not is_partial_order(o.rel):
        raise StructureError("relation is not a partial order")
    violations = []
    above = next((a for a in range(s.n) if not o.leq(s.zero, a)), None)
    if above is not None:
        violations.append(("zero-least", (above,)))
    violations += _monotone_violations(s, o.rel, o.pairs())
    return CheckReport.build(violations)


@lru_cache(maxsize=None)
def _zero_least_orders(n: int, zero: int):
    """The partial orders on {0..n-1} in which `zero` is least, each as
    (position in all_partial_orders(n), order, strict pairs).  Every other
    order fails the zero-least law, so the search never needs them."""
    return tuple((pos, o, o.pairs()) for pos, o in enumerate(all_partial_orders(n))
                 if all(o.rel[zero]))


def search_compatible_order(s: FiniteSemiring, budget: int | None = None) -> OrderSearch:
    """Exhaustive search for a compatible order; independent oracle for
    is_orderable.  Never silently truncates: running out of budget yields an
    explicit "inconclusive" result.

    `examined` counts positions in all_partial_orders(n): the orders in
    which zero is not least are passed over without a scan, since they fail
    the zero-least law outright, but they still count against the budget."""
    total = len(all_partial_orders(s.n))
    limit = total if budget is None else max(0, min(budget, total))
    for pos, o, pairs in _zero_least_orders(s.n, s.zero):
        if pos >= limit:
            break
        if next(_monotone_violations(s, o.rel, pairs), None) is None:
            return OrderSearch("found", o, pos + 1)
    if limit < total:
        return OrderSearch("inconclusive", None, limit)
    return OrderSearch("none", None, total)


def is_zero_sum_free(s: FiniteSemiring):
    """True iff x+y = 0 has no solution with x, y nonzero."""
    pair = next(((x, y) for x, row in enumerate(s.add) for y, v in enumerate(row)
                 if v == s.zero and s.zero not in (x, y)), None)
    return pair is None, pair


_LABELS = ("0", "1", "a", "b", "c", "d")


def _fill_tables(t, cells, values, symmetric: bool, lawful):
    """Every lawful completion of the partial table `t` (-1 = unset), in the
    order of itertools.product over the free `cells` and `values`, which
    random_semiring and the order search's `examined` positions rely on.
    A branch is cut as soon as `lawful(t)` fails on the cells set so far,
    so it may fail only where no completion passes.  With `symmetric`, each
    cell (i, j) also sets (j, i)."""
    out = []

    def fill(k: int) -> None:
        if not lawful(t):
            return
        if k == len(cells):
            out.append(tuple(tuple(row) for row in t))
            return
        i, j = cells[k]
        p, q = (j, i) if symmetric else (i, j)
        for v in values:
            t[i][j] = t[p][q] = v
            fill(k + 1)
        t[i][j] = t[p][q] = -1

    fill(0)
    return tuple(out)


def _associative(t) -> bool:
    """False iff a triple whose four lookups are all set fails associativity."""
    rng = range(len(t))
    for ta in t:
        for b in rng:
            ab = ta[b]
            if ab < 0:
                continue
            tb, tab = t[b], t[ab]
            for c in rng:
                bc = tb[c]
                if bc < 0:
                    continue
                left, right = tab[c], ta[bc]
                if left >= 0 and right >= 0 and left != right:
                    return False
    return True


def _distributes_over(add, t) -> bool:
    """False iff some instance of either distributive law of `t` over the
    full table `add` has all its lookups in `t` set and fails."""
    rng = range(len(t))
    for x in rng:
        for y in rng:
            for z in rng:
                yz = add[y][z]
                for xyz, a, b in ((t[x][yz], t[x][y], t[x][z]),
                                  (t[yz][x], t[y][x], t[z][x])):
                    if xyz >= 0 and a >= 0 and b >= 0 and xyz != add[a][b]:
                        return False
    return True


def _poset_consistent(rel) -> bool:
    """False iff the pairs set so far (1 = related, 0 = not, -1 = unset) break
    antisymmetry or transitivity: a < b <= c with c = a or a <= c set to 0."""
    rng = range(len(rel))
    for a in rng:
        for b in rng:
            if a != b and rel[a][b] == 1:
                for c in rng:
                    if rel[b][c] == 1 and (c == a or rel[a][c] == 0):
                        return False
    return True


@lru_cache(maxsize=None)
def _comm_monoid_tables(n: int):
    """All commutative monoid tables on {0..n-1} with identity 0."""
    t = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    return _fill_tables(t, cells, range(n), True, _associative)


@lru_cache(maxsize=None)
def _distributive_partners(n: int, add):
    """Every multiplication on {0..n-1} (n >= 2) with identity 1 and
    absorbing 0 that is associative and distributes over `add`."""
    t = [[0] * n, list(range(n))] + [[0, i] + [-1] * (n - 2) for i in range(2, n)]
    cells = [(i, j) for i in range(2, n) for j in range(2, n)]
    return _fill_tables(t, cells, range(n), False,
                        lambda t: _associative(t) and _distributes_over(add, t))


def enumerate_semirings(n: int):
    """Yield every semiring table on n elements, with zero = 0 and one = 1
    fixed (no quotient by isomorphism).  Exhaustive mode refuses n > 4."""
    if n < 1:
        raise ValueError("carrier size must be positive")
    if n == 1:
        yield FiniteSemiring(("0",), 0, 0, ((0,),), ((0,),))
        return
    if n > 4:
        raise ValueError(f"exhaustive enumeration is limited to n <= 4, got {n}")
    labels = _LABELS[:n]
    for add in _comm_monoid_tables(n):
        for mul in _distributive_partners(n, add):
            yield FiniteSemiring(labels, 0, 1, add, mul)


def random_semiring(n: int, seed: int) -> FiniteSemiring:
    """Deterministic seeded sample from the semirings on n elements
    (zero = 0, one = 1): rejection over addition tables, then a uniform
    choice among that table's distributive partners."""
    if n < 2:
        raise ValueError("random sampling needs n >= 2")
    if n > 4:
        raise ValueError(f"random sampling is limited to n <= 4, got {n}")
    rng = random.Random(seed)
    adds = _comm_monoid_tables(n)
    labels = _LABELS[:n]
    while True:
        add = adds[rng.randrange(len(adds))]
        partners = _distributive_partners(n, add)
        if partners:
            return FiniteSemiring(labels, 0, 1, add, rng.choice(partners))


def semiring_to_json(s: FiniteSemiring, order: PartialOrder | None = None) -> str:
    doc = {
        "elements": list(s.elements),
        "zero": s.zero,
        "one": s.one,
        "add": [list(row) for row in s.add],
        "mul": [list(row) for row in s.mul],
    }
    if order is not None:
        doc["order"] = order.pairs()
    return json.dumps(doc, sort_keys=True)


def semiring_from_json(text: str):
    """Parse the FiniteSemiring JSON document; returns (semiring, order|None).

    Raises StructureError on any malformed content (the CLI maps that to
    exit code 2, distinct from axiom violations)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise StructureError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise StructureError("top-level JSON value must be an object")
    for key in ("elements", "zero", "one", "add", "mul"):
        if key not in doc:
            raise StructureError(f"missing field {key!r}")
    elements = doc["elements"]
    if (not isinstance(elements, list) or not elements
            or not all(isinstance(x, str) for x in elements)):
        raise StructureError("elements must be a non-empty list of strings")
    for key in ("zero", "one"):
        # bool is a subclass of int, but true is not an index
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise StructureError(f"{key} must be an integer index")
    for key in ("add", "mul"):
        t = doc[key]
        if not isinstance(t, list) or not all(isinstance(r, list) for r in t):
            raise StructureError(f"{key} must be a matrix (list of lists)")
    s = FiniteSemiring.from_tables(elements, doc["zero"], doc["one"],
                                   doc["add"], doc["mul"])
    _validate_structure(s)
    order = None
    if "order" in doc:
        pairs = doc["order"]
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in pairs):
            raise StructureError("order must be a list of [i, j] pairs")
        order = PartialOrder.from_pairs(s.n, [tuple(p) for p in pairs])
    return s, order
