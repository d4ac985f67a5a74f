"""Degree-one holonomy vectors, commuting families, and limit subspaces.

The working space has one basis vector t_alpha per positive root and one
tau_i per simple root; a vector is a flat list of exact scalars in that
order.  An h in the Cartan is encoded by its evaluations against the
simple roots, so the tau block of a vector literally spells out which h
it carries.

The Weyl group acts on this space by integer matrices rho(w) (see
HolonomySpace.rho): t_alpha goes to t_|w alpha|, and tau(h) goes to
tau(w.h) corrected by alpha(w.h) t_alpha over the inversion set of w.
rho(w) and the tables behind it (w^{-1}, the positive-root permutation,
the inversion set) are kept per element in the root system's tables, so
acting by one element never enumerates the group.  weyl_action_report
checks, from the Coxeter presentation and the generators alone, that
this is a representation, that it intertwines the canonical shift
delta, and that it carries Bethe vectors at y to Bethe vectors at w.y
for every y (the `check weyl` command).

Points of the degenerate family (XPoint) are stored untwisted plus a
Weyl twist; their limit subspaces are built from the tau-carrying Bethe
generators of the ambient stratum and the chart family of the point's
centralizer.  Of a point (w, I, y, S, t) only y and t are continuous;
everything else is finite data of the root system, which keeps it in
tables built once per process (RootSystem.memo): the height chain of
the stratum I, the base and the integer kernel of the centralized roots,
the chart of S (None when S is not nested), the holonomy space of the
field, rho(w), and per field and h the columns a Bethe row fills.
XPoint.at, through which a PointStream draw builds its point too, reads
those tables, so a point itself costs e^alpha (one product per root
along the height chain), its chart residuals and its Bethe weights; a
drawn point evaluates e^alpha a second time, in generic_point's
genericity test.
recover_data reads the stratum data back off an untwisted subspace.
The checks sample points from a PointStream, one seeded sequence drawn
on demand, so that one request builds and row-reduces each sampled point
once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Collection, Iterable, NamedTuple, Sequence

from .field import CyclotomicField, FieldElement, default_field_order
from .lattice import smith_normal_form
from .linalg import rank as mat_rank, rref
from .nested import Chart, adjacency, is_nested, maximal_nested_sets
from .poly import Poly
from .roots import Coords, IntMatrix, RootSystem, chain_values
from .spin import mat_mul


def bethe_weight(u):
    """-u/(u-1): the weight of t_alpha per unit of alpha(h) where e^alpha = u.

    u is a Fraction or a field element, whose u/(u-1) is one fused
    FieldElement.over_minus_one; u = 1 raises ZeroDivisionError.
    """
    if u == 1:
        raise ZeroDivisionError("Bethe weight at e^alpha = 1")
    if isinstance(u, FieldElement):
        return -u.over_minus_one()
    return -(u / (u - 1))


# integer matrices on the holonomy space, stored as columns {row: entry}
SparseColumns = list[dict[int, int]]


# the tau entries of tau(h), and (column, root, alpha(h)) for every
# positive root with alpha(h) != 0: what a Bethe row at h fills
BethePattern = tuple[list[FieldElement], tuple[tuple[int, Coords, int], ...]]


class HolonomySpace:
    """Exact vectors over the basis [t_alpha ..., tau_1 ... tau_n].

    HolonomySpace.of gives the one space of a root system and field, kept
    in the root system's tables like its rho(w) and its Bethe pattern per
    h, so each is computed once and read by every point.
    """

    def __init__(self, rs: RootSystem, field: CyclotomicField):
        self.rs = rs
        self.field = field
        self.pos = list(rs.positive_roots)
        self.npos = len(self.pos)
        self.dim = self.npos + rs.rank
        self._labels = [f"t({','.join(map(str, a))})" for a in self.pos] + \
            [f"tau({i + 1})" for i in range(rs.rank)]
        self._t_zeros = [field.zero()] * self.npos

    @classmethod
    def of(cls, rs: RootSystem, field: CyclotomicField) -> HolonomySpace:
        """The space of rs over field, built once and kept by rs."""
        return rs.memo("space", field, lambda: cls(rs, field))

    # ------------------------------------------------------------------
    # construction

    def zero(self) -> list[FieldElement]:
        return [self.field.zero()] * self.dim

    def t_index(self, alpha: Sequence[int]) -> int:
        return self.rs.positive_index[self.rs.abs_root(alpha)]

    def vector(self, t_terms: dict | None = None,
               h_coords: Sequence | None = None) -> list[FieldElement]:
        """sum c t_alpha over t_terms (each root once, read up to sign)
        plus tau(h) for h_coords."""
        v = self.zero()
        for alpha, c in (t_terms or {}).items():
            v[self.t_index(alpha)] = self.field.coerce(c)
        if h_coords is not None:
            for i, c in enumerate(h_coords):
                v[self.npos + i] = self.field.coerce(c)
        return v

    def labels(self) -> list[str]:
        return self._labels

    def alpha_of_h(self, alpha: Sequence[int], h_coords: Sequence) -> object:
        """alpha(h) for integer or Fraction coordinates h."""
        return sum(map(mul, alpha, h_coords))

    # ------------------------------------------------------------------
    # distinguished elements

    def bethe_family(self, values: dict[Coords, FieldElement],
                     hs: Iterable[Sequence]) -> list[list[FieldElement]]:
        """tau(h) plus alpha(h) * bethe_weight(e^alpha) t_alpha, per h.

        values maps each root that carries a t-term to e^alpha at the
        point; the weights are computed once for all h, and each h's
        pattern once per space (bethe_pattern), so a root with alpha(h) = 0
        gets no term and a weight times alpha(h) = 1 is the weight itself.
        A value 1 raises ZeroDivisionError.
        """
        weights = {a: bethe_weight(u) for a, u in values.items()}
        rows = []
        for h in hs:
            tau, terms = self.bethe_pattern(h)
            row = self._t_zeros + tau
            for k, a, ah in terms:
                g = weights.get(a)
                if g is not None:
                    row[k] = g if ah == 1 else g * ah
            rows.append(row)
        return rows

    def bethe_pattern(self, h: Sequence[int]) -> BethePattern:
        """The tau entries of tau(h) and the t-columns a Bethe row at the
        integer h fills, computed once per field and h."""
        h = tuple(h)
        return self.rs.memo("pattern", (self.field, h), lambda: (
            [self.field.coerce(c) for c in h],
            tuple((k, a, ah) for k, a in enumerate(self.pos)
                  if (ah := self.alpha_of_h(a, h)) != 0)))

    # ------------------------------------------------------------------
    # Weyl action

    def h_transport(self, w: IntMatrix, h_coords: Sequence) -> list:
        """Coordinates of w.h: transpose-inverse of the root-side matrix."""
        winv = self.rs.inverse_matrix(w)
        n = self.rs.rank
        return [sum(winv[j][i] * h_coords[j] for j in range(n))
                for i in range(n)]

    def rho(self, w: IntMatrix) -> SparseColumns:
        """The integer matrix of w on [t_alpha ..., tau_i ...], by columns,
        each column {row: entry} over its nonzero entries.

        t_alpha goes to t_|w alpha|; tau(h) goes to tau(w.h) minus
        alpha(w.h) t_alpha for every alpha in the inversion set of w.
        w.e_i, the h of column tau_i, is row i of w^{-1} (h_transport), so
        the tables of w are read once, from rs.element(w).
        """
        def build():
            index = self.rs.positive_index
            element = self.rs.element(w)
            cols = [{j: 1} for j in element.perm]
            for h in element.inverse:
                col = {self.npos + k: c for k, c in enumerate(h) if c}
                for a in element.inversions:
                    ah = self.alpha_of_h(a, h)
                    if ah:
                        col[index[a]] = -ah
                cols.append(col)
            return cols
        return self.rs.memo("rho", w, build)

    def act(self, w: IntMatrix, vec: Sequence[FieldElement]) -> list[FieldElement]:
        """rho(w) applied to vec."""
        return _apply(self.rho(w), vec, self.field.zero())

    def act_span(self, w: IntMatrix, vecs: Sequence[Sequence[FieldElement]]
                 ) -> list[list[FieldElement]]:
        return [self.act(w, v) for v in vecs]


def weyl_action_report(rs: RootSystem, field: CyclotomicField,
                       seed: int = 0, samples: int = 6) -> dict:
    """Checks that HolonomySpace.act is the equivariant action, from the
    Coxeter presentation of W (Humphreys, Reflection Groups and Coxeter
    Groups, 1.9).

    group_law: rho(s_i)^2 = 1 and (rho(s_i) rho(s_j))^{m_ij} = 1 on the
    integer generator matrices, so s_i -> rho(s_i) extends to a
    representation of all of W.  delta_transport: s_i.delta(h) =
    delta(s_i.h), and bethe_transport: s_i.B(y, h) = B(s_i.y, s_i.h) at a
    symbolic point y, both for every generator and every h in the
    coordinate basis; by induction on length they hold for every w.
    twist_formula: the inversion-set matrix rho(w) equals the product of
    the generator matrices along word_of(w), for the longest element and
    `samples` seeded random twists.  control: the generator checks of
    rho(s_1) alone, with its correction term sign-flipped, must fail.
    """
    import random
    rng = random.Random(f"weyl-twists-{rs.label}-{seed}")
    space = HolonomySpace.of(rs, field)
    n = rs.rank
    gens = [space.rho(rs.simple_reflection(i)) for i in range(n)]
    twists = [rs.longest_element()]
    for _ in range(samples):
        word = [rng.randrange(n) for _ in range(rng.randint(0, 2 * space.npos))]
        twists.append(rs.matrix_of_word(word))
    twist_ok = all(space.rho(w) == _word_product(gens, rs.word_of(w), space.dim)
                   for w in twists)
    flipped = list(gens[0])
    for c in range(space.npos, space.dim):
        flipped[c] = {r: -x if r < space.npos else x
                      for r, x in flipped[c].items()}
    control = _generator_checks(space, [flipped])
    return {
        "elements": rs.weyl_order,
        "products": rs.weyl_order * n,
        "relations": n * (n + 1) // 2,
        "twists": len(twists),
        "exhaustive": True,
        **_generator_checks(space, gens),
        "twist_formula": twist_ok,
        "control": not all(control.values()),
    }


def _apply(a: SparseColumns, vec: Sequence, zero) -> list:
    """a applied to vec, every entry starting from zero; an entry 0 of vec
    is skipped, and a matrix entry 1 or -1 adds or subtracts without a
    product."""
    out = [zero] * len(a)
    for col, c in zip(a, vec):
        if c == 0:
            continue
        for r, m in col.items():
            if m == 1:
                out[r] = out[r] + c
            elif m == -1:
                out[r] = out[r] - c
            else:
                out[r] = out[r] + m * c
    return out


def _word_product(gens: Sequence[SparseColumns], word: Sequence[int],
                  dim: int) -> SparseColumns:
    """The product of the generators along the word.  By columns, a b is
    the sparse row product mat_mul(b, a)."""
    out = [{k: 1} for k in range(dim)]
    for i in word:
        out = mat_mul(gens[i], out)
    return out


def _generator_checks(space: HolonomySpace, gens: Sequence[SparseColumns]
                      ) -> dict[str, bool]:
    """group_law, delta_transport and bethe_transport of candidate
    generator matrices gens[i] for s_i, i < len(gens) (see weyl_action_report).

    Delta is checked doubled, 2 delta(h) = 2 tau(h) - sum alpha(h) t_alpha,
    so every entry is an integer.  For Bethe transport the weight
    bethe_weight(e^delta) of each positive root delta is an indeterminate
    W_delta; a negative root -delta carries -1 - W_delta, which is the
    identity bethe_weight(u) + bethe_weight(1/u) = -1, proved by
    _weight_inversion_holds.  Both sides are then integer linear forms
    in 1 and the W_delta, equal exactly when their coefficients are.
    """
    rs, npos, n = space.rs, space.npos, len(gens)
    unit = [{k: 1} for k in range(space.dim)]
    group_law = all(
        _word_product(gens, (i, j) * rs.coxeter_order(i, j), space.dim) == unit
        for i in range(n) for j in range(i, n))

    def doubled_delta(h):
        return [-space.alpha_of_h(a, h) for a in space.pos] + [2 * c for c in h]

    weights = [Poly.variable(npos, k) for k in range(npos)]

    def weight(root):
        w = weights[space.t_index(root)]
        return w if min(root) >= 0 else -1 - w

    delta_ok, bethe_ok = True, _weight_inversion_holds()
    for i, g in enumerate(gens):
        s = rs.simple_reflection(i)
        sinv = rs.inverse_matrix(s)
        for h in rs.identity:
            sh = space.h_transport(s, h)
            delta_ok &= _apply(g, doubled_delta(h), 0) == doubled_delta(sh)
            symbolic = [space.alpha_of_h(a, h) * x
                        for a, x in zip(space.pos, weights)] + list(h)
            # B(s.y, s.h): e^gamma(s.y) = e^{s^-1 gamma}(y), so t_gamma
            # carries gamma(s.h) times the weight of s^-1 gamma
            moved = [space.alpha_of_h(c, sh) * weight(rs.act(sinv, c))
                     for c in space.pos] + list(sh)
            bethe_ok &= _apply(g, symbolic, 0) == moved
    return {"group_law": group_law, "delta_transport": delta_ok,
            "bethe_transport": bethe_ok}


def _weight_inversion_holds() -> bool:
    """bethe_weight(u) + bethe_weight(1/u) = -1 for u an indeterminate.

    Each weight is a ratio of polynomials of degree at most 1 in u, so
    over the common denominator of the two weights the difference of the
    sides has a numerator of degree at most 2.  It vanishes identically
    exactly when it vanishes at three distinct rationals away from the
    poles u = 0 and u = 1.
    """
    return all(bethe_weight(u) + bethe_weight(1 / u) == -1
               for u in (Fraction(2), Fraction(3), Fraction(5)))


# ----------------------------------------------------------------------
# points of the compactified family and their limit subspaces


class XPoint:
    """A point (w, I, y, S, t) of the degenerate family, stored untwisted
    plus a twist; built by XPoint.at, for a PointStream draw too.

    word: Weyl twist applied after everything else; subset: simple-root
    indices cut out by the ambient stratum; point: torus coordinates
    aligned with subset; chart: maximal nested family on the base of the
    centralizer; tvals: chart coordinates (zeros mark boundary divisors);
    root_values, centralized: as centralizer() returns them.  What is
    computed from the point lives on it, each evaluated on first use:
    its chart residuals and the rref rows of its subspace.
    """

    def __init__(self, rs: RootSystem, field: CyclotomicField,
                 word: tuple[int, ...], subset: tuple[int, ...],
                 point: tuple[FieldElement, ...], chart: Chart,
                 tvals: tuple[Fraction, ...],
                 root_values: dict[Coords, FieldElement],
                 centralized: list[Coords]):
        self.rs, self.field, self.word, self.subset = rs, field, word, subset
        self.point, self.chart, self.tvals = point, chart, tvals
        self.root_values, self.centralized = root_values, centralized
        self.w = rs.matrix_of_word(word)
        self.space = HolonomySpace.of(rs, field)

    @classmethod
    def at(cls, rs: RootSystem, field: CyclotomicField, word, subset, point,
           sets: Sequence[Collection[int]], tvals: Sequence[Fraction]
           ) -> XPoint:
        """The point (w, I, y, S, t), indices from 0, tvals[k] the chart
        coordinate of sets[k]; ValueError unless S is a maximal nested
        family on the vertices of the centralizer's base, with no vertex or
        member repeated, and t is generic."""
        values, centralized, base = centralizer(rs, subset, point)
        if any(v < 0 or v >= len(base) for s in sets for v in s):
            raise ValueError("chart member vertex out of range")
        members = [frozenset(s) for s in sets]
        if any(len(m) != len(s) for m, s in zip(members, sets)):
            raise ValueError("a vertex repeats within a chart member")
        if len(set(members)) != len(members):
            raise ValueError("a chart member repeats")
        if len(tvals) != len(members):
            raise ValueError("one chart coordinate required per member")
        if len(members) != len(base):
            k = len(base)
            raise ValueError(f"S must list {k} member{'s' * (k != 1)}, one per "
                             f"root of the centralizer's base, not {len(members)}")
        chart = chart_of(rs, centralized, members)
        if chart is None:
            raise ValueError("S is not a maximal nested set: members must be "
                             "connected, nested or disjoint, and disjoint "
                             "members not adjacent")
        # the chart lists its members in canonical order; t follows them
        by_member = dict(zip(members, tvals))
        tvals = tuple(by_member[s] for s in chart.sets)
        x = cls(rs, field, tuple(word), tuple(subset), tuple(point), chart,
                tvals, values, centralized)
        if any(r == 0 for r in x.residuals.values()):
            raise ValueError("chart coordinates hit a residual hypersurface")
        return x

    # ------------------------------------------------------------------

    @cached_property
    def residuals(self) -> dict[Coords, object]:
        """The chart residual of every centralized root at tvals."""
        return self.chart.residuals(self.tvals)

    @cached_property
    def reduced(self) -> list[list[FieldElement]]:
        """The rref rows of subspace()."""
        return rref(self.subspace())[0]

    def untwisted_generators(self) -> list[list[FieldElement]]:
        """tau-carrying generators for h killing the centralizer, plus the
        chart family of the centralizer; together always rank-many."""
        _, h_basis = centralizer_entry(self.rs, self.centralized)
        cen = set(self.centralized)
        gens = self.space.bethe_family(
            {a: u for a, u in self.root_values.items() if a not in cen}, h_basis)
        for v in range(len(self.chart.base)):
            coeffs = self.chart.hamiltonian_coeffs(v, self.tvals,
                                                   self.residuals)
            gens.append(self.space.vector(coeffs))
        return gens

    def subspace(self) -> list[list[FieldElement]]:
        gens = self.untwisted_generators()
        return self.space.act_span(self.w, gens) if self.word else gens

    def signature(self) -> tuple:
        return (self.word, self.subset,
                tuple(str(y) for y in self.point),
                tuple(tuple(sorted(s)) for s in self.chart.sets),
                tuple(str(t) for t in self.tvals))

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "type": self.rs.label,
            "field_order": self.field.order,
            "w": [i + 1 for i in self.word],
            "I": [i + 1 for i in self.subset],
            "y": [str(y) for y in self.point],
            "S": [[v + 1 for v in sorted(s)] for s in self.chart.sets],
            "t": [str(t) for t in self.tvals],
        }


def stratum_values(rs: RootSystem, subset: Sequence[int],
                   point: Sequence[FieldElement]
                   ) -> dict[Coords, FieldElement]:
    """e^alpha at a point of the stratum torus, per root supported on subset,
    where point[k] is e^{alpha_i} for i = subset[k]: one product per root
    of height two or more, along the height chain."""
    return chain_values(rs.chain(subset), dict(zip(subset, point)))


def centralizer(rs: RootSystem, subset: Sequence[int],
                point: Sequence[FieldElement]
                ) -> tuple[dict[Coords, FieldElement], list[Coords], list[Coords]]:
    """(e^alpha per root supported on subset, the centralized roots, their
    base) at a point of the stratum torus: the roots with e^alpha = 1, in
    positive-root order, and the simple system of the subsystem they form
    (read from rs's "centralizer" table).
    """
    values = stratum_values(rs, subset, point)
    centralized = [a for a, u in values.items() if u.is_one()]
    return values, centralized, list(centralizer_entry(rs, centralized)[0])


def centralizer_entry(rs: RootSystem, centralized: Sequence[Coords]
                      ) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
    """(the base of the centralized roots, a basis of the integer h they
    kill), kept in rs's "centralizer" table."""
    key = tuple(centralized)
    return rs.memo("centralizer", key, lambda: (
        tuple(rs.base_of(key)), tuple(integer_kernel(key, rs.rank))))


def chart_of(rs: RootSystem, centralized: Sequence[Coords],
             members: Iterable[Collection[int]]) -> Chart | None:
    """The Chart of members on the base of the centralized roots, or None
    when the members are not a nested family on the diagram of that base,
    which is decided first.  Kept in rs's "chart" table per (centralized
    roots, members), the base read from its "centralizer" table.  A nested
    family with one member per base root is maximal, so its Chart builds;
    a ValueError of Chart on any other family is raised again on every
    call, not kept."""
    members = frozenset(map(frozenset, members))
    key = tuple(centralized)

    def build():
        base = centralizer_entry(rs, key)[0]
        adj = adjacency(len(base), rs.nonorthogonal_edges(base))
        return Chart(base, key, members) if is_nested(tuple(members), adj) \
            else None
    return rs.memo("chart", (key, members), build)


def integer_kernel(rows: Sequence[Sequence[int]], n: int) -> list[Coords]:
    """A basis of the lattice {h in Z^n : row(h) = 0} of integer rows: the
    columns of the Smith form's V past its rank (U M V = D, so M kills
    them; V is unimodular, so they are primitive and span the lattice)."""
    sf = smith_normal_form(rows, ncols=n)
    return [tuple(row[j] for row in sf.V) for j in range(sf.rank, n)]


def _list_of(kind: type, value, what: str) -> list:
    # bool is an int subclass, so the entry types are compared exactly
    if not isinstance(value, list) or any(type(v) is not kind for v in value):
        raise ValueError(f"{what} must be a list of {kind.__name__} entries")
    return value


def _entries(data: dict, key: str, kind: type) -> list:
    return _list_of(kind, data.get(key, []), repr(key))


# a chart coordinate as str(Fraction) writes it: p or p/q, optional sign
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def xpoint_from_dict(data: dict) -> XPoint:
    """The point a JSON description names; ValueError on malformed input.

    type is a label string, field_order, w and I are integers, S is a
    list of integer lists, and every y and t entry is an exact string: y
    in the str() form of the field, t as str(Fraction) writes it, p or
    p/q in decimal digits with an optional sign.  y entries are nonzero,
    since a torus point has nonzero coordinates.  I entries are distinct
    and y[k] is the coordinate of I[k], in the order given; likewise t[k]
    is the coordinate of S[k].
    """
    from .roots import root_system
    if not isinstance(data, dict):
        raise ValueError("a point description is a JSON object")
    if not isinstance(data.get("type"), str):
        raise ValueError("'type' must be a root system label string")
    rs = root_system(data["type"])
    order = data.get("field_order", default_field_order(rs.family))
    if type(order) is not int:
        raise ValueError("'field_order' must be an integer")
    field = CyclotomicField(order)
    word = tuple(i - 1 for i in _entries(data, "w", int))
    indices = [i - 1 for i in _entries(data, "I", int)]
    if any(i < 0 or i >= rs.rank for i in indices):
        raise ValueError("stratum indices out of range")
    if len(set(indices)) != len(indices):
        raise ValueError("stratum indices repeat")
    if any(i < 0 or i >= rs.rank for i in word):
        raise ValueError("word letters out of range")
    coords = [field.parse(s) for s in _entries(data, "y", str)]
    if len(coords) != len(indices):
        raise ValueError("need one coordinate per stratum index")
    # y[k] belongs to I[k]: sort the pairs, not the indices alone
    pairs = sorted(zip(indices, coords), key=lambda p: p[0])
    subset = tuple(i for i, _ in pairs)
    y = tuple(v for _, v in pairs)
    if any(v.is_zero() for v in y):
        raise ValueError("a torus coordinate y is zero")
    sets = [[v - 1 for v in _list_of(int, s, "each 'S' member")]
            for s in _entries(data, "S", list)]
    texts = _entries(data, "t", str)
    if not all(_RATIONAL.fullmatch(t) for t in texts):
        raise ValueError("each chart coordinate t reads p or p/q, with an "
                         "optional sign and decimal digits only")
    try:
        tvals = tuple(Fraction(t) for t in texts)
    except ZeroDivisionError:
        raise ValueError("a chart coordinate t has a zero denominator") from None
    return XPoint.at(rs, field, word, subset, y, sets, tvals)


# ----------------------------------------------------------------------
# reading the data back off a limit subspace (untwisted points)


class RecoveredData(NamedTuple):
    centralized_pos: tuple[Coords, ...]
    unit_values: dict[Coords, FieldElement]      # recovered e^alpha where g != 0
    vanishing: tuple[Coords, ...]                # roots with g_alpha = 0


def recover_data(space: HolonomySpace, vectors: Sequence[Sequence[FieldElement]]
                 ) -> RecoveredData:
    """Invert subspace construction for an untwisted point.

    Row reduce with tau columns leading: tau-free rows reveal the
    centralizer (their t-support), tau-carrying rows reveal the weight
    u/(u-1) on every root not spanned by the centralizer; weight 0 marks
    roots killed at the boundary of the ambient stratum.  Every vector
    built from an integer h has a rational tau block, so each reduced
    tau row's block is read once as h/d with h integral and alpha(h) is
    an integer dot product (an irrational tau block raises ValueError).
    A row's entry at t_alpha, scaled by the integers -d/alpha(h), is the
    candidate g = u/(u-1), and u is read back as g/(g-1) through the
    field's fused quotient (the map is its own inverse).
    """
    n = space.rs.rank
    perm = list(range(space.npos, space.npos + n)) + list(range(space.npos))
    rows = [[v[j] for j in perm] for v in vectors]
    red, pivots = rref(rows)
    t_rows = [r for r, p in zip(red, pivots) if p >= n]
    tau_rows = [r for r, p in zip(red, pivots) if p < n]
    # the t-support of the tau-free rows, in positive-root order
    cen = tuple(a for k, a in enumerate(space.pos)
                if any(not r[n + k] == 0 for r in t_rows))
    scaled_h = []
    for r in tau_rows:
        block = [c.as_rational() for c in r[:n]]
        d = lcm(*(c.denominator for c in block))
        scaled_h.append((tuple(c.numerator * (d // c.denominator)
                               for c in block), d))
    units: dict[Coords, FieldElement] = {}
    vanishing = []
    for k, a in enumerate(space.pos):
        # alpha(h) = 0 on every tau row exactly when a lies in the span of
        # the centralizer; such a root gets no weight
        g = None
        for r, (h, d) in zip(tau_rows, scaled_h):
            ah = space.alpha_of_h(a, h)   # d * alpha(block)
            if not ah:
                continue
            cand = r[n + k].scale(-d, ah)
            if g is None:
                g = cand
            elif not g == cand:
                raise ValueError(f"inconsistent weight profile at root {a}")
        if g is None:
            continue
        if g.is_zero():
            vanishing.append(a)
        else:
            units[a] = g.over_minus_one()
    return RecoveredData(cen, units, tuple(vanishing))


# ----------------------------------------------------------------------
# sampling helpers used by checks and the CLI


class PointStream:
    """The seeded stream of sampled points of one type, field and seed.

    Every draw reads one rng, random.Random(f"xpoints-{label}-{seed}"), in
    the same way, and a draw that gives a new valid point appends it, so
    the stream is one fixed sequence of pairwise-distinct points.  It is
    drawn on demand: point(k, max_attempts) draws only until the k-th
    point exists or max_attempts draws are spent, and a caller that asks
    for fewer points sees a prefix of what a caller asking for more sees.
    The draws cover the stratum inventory: the open stratum, smaller
    ambient strata, torsion layers, boundary chart coordinates, and Weyl
    twists.  Chart coordinates are normalized so every maximal member
    carries 1.

    A draw builds its point by XPoint.at; built counts those points (a
    repeat of an earlier point included) and reductions the points whose
    subspace was row-reduced (XPoint.reduced).  What a draw reads of the
    type is in rs.tables.
    """

    def __init__(self, rs: RootSystem, field: CyclotomicField, seed: int):
        import random
        self.rs, self.field, self.seed = rs, field, seed
        self.points: list[XPoint] = []
        self.attempts = 0
        self.built = 0
        self._rng = random.Random(f"xpoints-{rs.label}-{seed}")
        self._drawn_at: list[int] = []     # attempts spent when points[k] came
        self._seen: set[tuple] = set()
        self.spin_samples: list[tuple] | None = None    # cli._spin_samples

    @property
    def reductions(self) -> int:
        # a cached_property keeps its value in the instance dict
        return sum("reduced" in vars(x) for x in self.points)

    def point(self, k: int, max_attempts: int) -> XPoint | None:
        """The k-th point (from 0), or None when the stream does not reach
        it within max_attempts draws."""
        while len(self.points) <= k and self.attempts < max_attempts:
            self._draw()
        if k < len(self.points) and self._drawn_at[k] <= max_attempts:
            return self.points[k]
        return None

    def _draw(self) -> None:
        from .layers import enumerate_layers, generic_point, subset_layers

        rs, field, rng, n = self.rs, self.field, self._rng, self.rs.rank
        self.attempts += 1

        def build():
            layers = enumerate_layers(rs, field)
            return (sorted((tuple(i for i in range(n) if m >> i & 1)
                            for m in range(1 << n)), key=lambda s: -len(s)),
                    list(rs.weyl_elements().values()),
                    layers, subset_layers(layers))
        subsets, words, layers, by_subset = rs.memo("draw", field, build)
        subset = subsets[rng.randrange(len(subsets))] if rng.random() < 0.5 \
            else tuple(range(n))
        on_subset = by_subset[subset]
        layer = layers[on_subset[rng.randrange(len(on_subset))]]
        try:
            y = generic_point(rs, subset, layer, seed=rng.randrange(10 ** 6))
        except RuntimeError:
            return
        # at a generic point of a layer the centralized roots are its own
        base = centralizer_entry(rs, layer.roots_pos)[0]
        families = rs.memo("families", base, lambda: (
            maximal_nested_sets(len(base), rs.nonorthogonal_edges(base))))
        # a family lists its members in canonical order, as its chart does
        sets = families[rng.randrange(len(families))]
        tvals = tuple(Fraction(1) if not any(s < q for q in sets)
                      else Fraction(0) if rng.random() < 0.35
                      else Fraction(rng.randint(1, 40), rng.randint(1, 40))
                      for s in sets)
        # generic: at t >= 0 the term of A(r)'s missing vertex is c_v >= 1
        word = words[rng.randrange(len(words))] if rng.random() < 0.4 else ()
        x = XPoint.at(rs, field, word, subset, y, sets, tvals)
        self.built += 1
        sig = x.signature()
        if sig in self._seen:
            return
        self._seen.add(sig)
        self.points.append(x)
        self._drawn_at.append(self.attempts)


def sample_xpoints(stream: PointStream, count: int) -> list[XPoint]:
    """The first count points of a PointStream: a deterministic pool of
    pairwise-distinct normalized points, and a prefix of
    sample_xpoints(stream, m) for every m > count.

    RuntimeError when the first count points take more than count * 40
    draws.
    """
    out: list[XPoint] = []
    for k in range(count):
        x = stream.point(k, count * 40)
        if x is None:
            raise RuntimeError(f"could only sample {k} points")
        out.append(x)
    return out


def chart_only(x: XPoint) -> bool:
    """True when the centralizer has full rank: the tau-carrying part of
    the subspace is empty, so the subspace cannot see the torus point."""
    return mat_rank(x.centralized) == x.rs.rank


def injectivity_pool(stream: PointStream, count: int) -> list[XPoint]:
    """Pool for distinctness checks, read from the first 3 * count points
    of a PointStream and drawn only as far as it needs.  The stream's
    points are pairwise distinct already; those whose subspace provably
    ignores the torus coordinate are deduped by their visible data
    (twist, centralizer, chart) instead of by the coordinate itself.

    RuntimeError when fewer than count points are distinct, or when the
    stream runs out of its 3 * count * 40 draws before the pool is full.
    """
    budget = count * 3
    out: list[XPoint] = []
    seen: set[tuple] = set()
    for k in range(budget):
        x = stream.point(k, budget * 40)
        if x is None:
            raise RuntimeError(f"could only sample {k} points")
        if chart_only(x):
            key = (x.word, tuple(x.centralized),
                   tuple(tuple(sorted(s)) for s in x.chart.sets),
                   tuple(str(t) for t in x.tvals))
            if key in seen:
                continue
            seen.add(key)
        out.append(x)
        if len(out) == count:
            break
    if len(out) < count:
        raise RuntimeError(f"could only assemble {len(out)} distinct points")
    return out
