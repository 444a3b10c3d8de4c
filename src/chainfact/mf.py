"""Graded matrix factorizations: construction, functors, cones, reduction.

Objects are pairs of graded free modules with two polynomial matrices whose
compositions are multiplication by the chain polynomial.  Validation happens
at the input boundaries: the class constructors, ``stabilize``,
``direct_sum``, ``cone`` and ``reduce`` check both the factorization identity
and entrywise homogeneity (each monomial of each entry must have exactly the
degree prescribed by the source and target twists), so malformed data cannot
enter.

``shift``, built from them, is a trusted constructor.  A grading shift
moves every twist by the same degree and keeps the entries, so it keeps
d1 o d0 = d0 o d1 = f and homogeneity by construction and skips the
polynomial products and the monomial scan.

All values are immutable and hashable; functors return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .chain import (  # GradingError is re-exported
    ChainPolynomial,
    Degree,
    GradingError,
    GradingGroup,
    build_grading_group,
)
from .exactmath import MPoly


def chain_mpoly(f: ChainPolynomial) -> MPoly:
    """The chain polynomial itself as a sparse multivariate polynomial."""
    return MPoly(f.n, {e: 1 for e in f.monomial_exponents()})


class GradedFreeModule:
    """Finite direct sum of twisted rank-one free modules.

    ``twists[j]`` is the degree l_j of the j-th basis vector, so the summand
    is S(-l_j) and its degree-d part is spanned by the basis vector times the
    monomials of degree d - l_j.  Entry degrees only use differences of
    twists (see ``GradedMatrix``).
    """

    __slots__ = ("group", "twists", "_hash")

    def __init__(self, group: GradingGroup, twists):
        twists = tuple(twists)
        for t in twists:
            if not isinstance(t, Degree) or t.group is not group:
                raise GradingError("twists must be degrees in the given group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "_hash", hash((id(group), twists)))

    def __setattr__(self, *a):
        raise AttributeError("GradedFreeModule is immutable")

    @property
    def rank(self):
        return len(self.twists)

    def shifted(self, l: Degree) -> "GradedFreeModule":
        """Apply the grading-shift functor (l)."""
        return GradedFreeModule(self.group, tuple(t - l for t in self.twists))

    def concat(self, other: "GradedFreeModule") -> "GradedFreeModule":
        return GradedFreeModule(self.group, self.twists + other.twists)

    def __eq__(self, other):
        if not isinstance(other, GradedFreeModule):
            return NotImplemented
        return self.group is other.group and self.twists == other.twists

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GradedFreeModule(rank={self.rank})"


def poly_mat_mul(a, b, nvars):
    """Product of rectangular MPoly matrices (lists of rows)."""
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    zero = MPoly.zero(nvars)
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


class GradedMatrix:
    """Homogeneous polynomial matrix between graded free modules.

    Entry (r, c) must be homogeneous of degree
    ``source.twists[c] - target.twists[r] + shift``; this is checked monomial
    by monomial at construction time.
    """

    __slots__ = ("source", "target", "shift", "entries", "_hash")

    def __init__(self, source, target, shift, entries):
        group = source.group
        if target.group is not group or shift.group is not group:
            raise GradingError("mixed grading groups")
        nvars = group.chain.n
        entries = tuple(tuple(e) for e in entries)
        if len(entries) != target.rank or any(len(r) != source.rank for r in entries):
            raise GradingError(
                f"shape {len(entries)}x? does not match target rank {target.rank} "
                f"x source rank {source.rank}")
        for r, row in enumerate(entries):
            for c, p in enumerate(row):
                if not isinstance(p, MPoly) or p.nvars != nvars:
                    raise GradingError("entries must be MPoly in the chain variables")
                if p.is_zero():
                    continue
                want = source.twists[c] - target.twists[r] + shift
                for exps in p.terms:
                    if group.monomial_degree(exps) != want:
                        raise GradingError(
                            f"entry ({r},{c}) monomial {exps} is not homogeneous "
                            f"of the required degree")
        self._set(source, target, shift, entries)

    def _set(self, source, target, shift, entries):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((source, target, shift, entries)))

    @classmethod
    def _trusted(cls, source, target, shift, entries) -> "GradedMatrix":
        """Unchecked constructor for entries (tuple of tuples) that are
        homogeneous by construction."""
        self = object.__new__(cls)
        self._set(source, target, shift, entries)
        return self

    def __setattr__(self, *a):
        raise AttributeError("GradedMatrix is immutable")

    @property
    def group(self):
        return self.source.group

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.shift == other.shift and self.entries == other.entries)

    def __hash__(self):
        return self._hash

    def __neg__(self):
        return GradedMatrix(self.source, self.target, self.shift,
                            [[-p for p in row] for row in self.entries])

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if (self.source != other.source or self.target != other.target
                or self.shift != other.shift):
            raise GradingError("can only add parallel graded matrices")
        return GradedMatrix(self.source, self.target, self.shift,
                            [[p + q for p, q in zip(r, s)]
                             for r, s in zip(self.entries, other.entries)])

    def __repr__(self):
        return f"GradedMatrix({self.target.rank}x{self.source.rank})"


def _is_f_times_identity(product, fpoly, size):
    for i in range(size):
        for j in range(size):
            want = fpoly if i == j else None
            got = product[i][j]
            if want is None:
                if not got.is_zero():
                    return False
            elif got != want:
                return False
    return True


class MatrixFactorization:
    """A pair of graded maps squaring to multiplication by the polynomial.

    ``d0`` maps F0 -> F1 with shift zero and ``d1`` maps F1 -> F0 with shift
    the total degree; both compositions are verified to equal f times the
    identity at construction.

    ``splitting`` is the record that ``stabilize`` leaves: its (generators,
    cofactors) when the object is a shift of a stabilization, else None.  It
    takes no part in equality or hashing.
    """

    __slots__ = ("group", "f", "F0", "F1", "d0", "d1", "splitting", "_hash")

    def __init__(self, group, fpoly, F0, F1, d0, d1):
        if F0.rank != F1.rank:
            raise GradingError("factorization modules must have equal rank")
        if d0.source != F0 or d0.target != F1 or not d0.shift.is_zero():
            raise GradingError("d0 must be F0 -> F1 with zero shift")
        if d1.source != F1 or d1.target != F0 or d1.shift != group.total_degree:
            raise GradingError("d1 must be F1 -> F0 with the total-degree shift")
        n = group.chain.n
        if not _is_f_times_identity(poly_mat_mul(d1.entries, d0.entries, n),
                                    fpoly, F0.rank):
            raise GradingError("d1 o d0 is not f times the identity")
        if not _is_f_times_identity(poly_mat_mul(d0.entries, d1.entries, n),
                                    fpoly, F1.rank):
            raise GradingError("d0 o d1 is not f times the identity")
        self._set(group, fpoly, F0, F1, d0, d1)

    def _set(self, group, fpoly, F0, F1, d0, d1, splitting=None):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "f", fpoly)
        object.__setattr__(self, "F0", F0)
        object.__setattr__(self, "F1", F1)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "splitting", splitting)
        object.__setattr__(self, "_hash", hash((id(group), F0, F1, d0, d1)))

    @classmethod
    def _trusted(cls, like: "MatrixFactorization", F0, F1, e0, e1,
                 splitting=None):
        """Unchecked factorization over ``like``'s polynomial on modules F0, F1
        with entry grids e0, e1 (tuples of tuples).  Only for functors whose
        output satisfies the identity and homogeneity by construction."""
        group = like.group
        d0 = GradedMatrix._trusted(F0, F1, group.zero, e0)
        d1 = GradedMatrix._trusted(F1, F0, group.total_degree, e1)
        self = object.__new__(cls)
        self._set(group, like.f, F0, F1, d0, d1, splitting)
        return self

    def __setattr__(self, *a):
        raise AttributeError("MatrixFactorization is immutable")

    @property
    def size(self):
        return self.F0.rank

    def __eq__(self, other):
        if not isinstance(other, MatrixFactorization):
            return NotImplemented
        return (self.group is other.group and self.F0 == other.F0
                and self.F1 == other.F1 and self.d0 == other.d0
                and self.d1 == other.d1)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MatrixFactorization(size={self.size})"


class MFMorphism:
    """A commuting pair of graded maps between factorizations.

    A common shift l is carried by both components; cones only accept shift
    zero (shift a source beforehand).
    """

    __slots__ = ("source", "target", "shift", "phi0", "phi1", "_hash")

    def __init__(self, source, target, shift, phi0, phi1):
        group = source.group
        if target.group is not group:
            raise GradingError("mixed grading groups")
        if phi0.source != source.F0 or phi0.target != target.F0 or phi0.shift != shift:
            raise GradingError("phi0 must be F0 -> F0' with the declared shift")
        if phi1.source != source.F1 or phi1.target != target.F1 or phi1.shift != shift:
            raise GradingError("phi1 must be F1 -> F1' with the declared shift")
        n = group.chain.n
        left = poly_mat_mul(phi1.entries, source.d0.entries, n)
        right = poly_mat_mul(target.d0.entries, phi0.entries, n)
        if left != right:
            raise GradingError("morphism does not commute with d0")
        left = poly_mat_mul(phi0.entries, source.d1.entries, n)
        right = poly_mat_mul(target.d1.entries, phi1.entries, n)
        if left != right:
            raise GradingError("morphism does not commute with d1")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "phi1", phi1)
        object.__setattr__(self, "_hash", hash((source, target, shift, phi0, phi1)))

    def __setattr__(self, *a):
        raise AttributeError("MFMorphism is immutable")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _homogeneous_degree(group, p: MPoly) -> Degree:
    degs = {group.monomial_degree(e) for e in p.terms}
    if len(degs) != 1:
        raise GradingError(f"polynomial {p!r} is not homogeneous")
    return degs.pop()


def stabilize(f: ChainPolynomial, gens, cofs):
    """Folded Koszul factorization of the quotient by a generator sequence.

    ``gens`` and ``cofs`` are homogeneous polynomials with
    sum(gens[i]*cofs[i]) equal to the chain polynomial and complementary
    degrees.  The generators must be monomials in pairwise disjoint sets of
    variables, which makes them a regular sequence; anything else raises
    GradingError.  The result has size 2^(s-1), with even exterior powers
    on the source side, and its first even twist is zero; a twisted
    stabilization is its ``shift``.

    The result records its splitting, (gens, cofs) as tuples, as
    ``splitting``.  ``homcalc.HomEngine`` reads the record on both sides of
    a Hom: out of an unshifted result whose generators are single
    variables, into any shift of a result, by graded Künneth on the Koszul
    pieces.  It refuses a key without the records, or with a shifted
    source.  ``shift`` keeps the record; every other functor drops it.
    """
    group = build_grading_group(f)
    n = f.n
    fpoly = chain_mpoly(f)
    s = len(gens)
    if s != len(cofs) or s == 0:
        raise ValueError("need equally many generators and cofactors")
    if any(len(g.terms) != 1 for g in gens):
        raise GradingError("every generator must be a monomial")
    supports = [{v for v, e in enumerate(next(iter(g.terms))) if e} for g in gens]
    for a, b in combinations(supports, 2):
        if a & b:
            raise GradingError("two generators share a variable")
    total = MPoly.zero(n)
    for g, h in zip(gens, cofs):
        total = total + g * h
    if total != fpoly:
        raise GradingError("generator/cofactor pairing does not rebuild f")
    gen_degrees = [_homogeneous_degree(group, g) for g in gens]
    fvec = group.total_degree
    for h, gdeg in zip(cofs, gen_degrees):
        if _homogeneous_degree(group, h) != fvec - gdeg:
            raise GradingError("cofactor degree is not complementary")

    subsets = [frozenset(c) for k in range(s + 1) for c in combinations(range(s), k)]
    even = sorted((x for x in subsets if len(x) % 2 == 0), key=lambda x: (len(x), sorted(x)))
    odd = sorted((x for x in subsets if len(x) % 2 == 1), key=lambda x: (len(x), sorted(x)))
    even_index = {a: i for i, a in enumerate(even)}
    odd_index = {a: i for i, a in enumerate(odd)}

    def subset_twist(a):
        tw = group.zero
        for i in a:
            tw = tw + gen_degrees[i]
        return tw - ((len(a) + 1) // 2) * fvec

    F0 = GradedFreeModule(group, [subset_twist(a) for a in even])
    F1 = GradedFreeModule(group, [subset_twist(a) for a in odd])
    zero = MPoly.zero(n)

    def differential(sources, src_index, tgt_index):
        rows = [[zero] * len(src_index) for _ in range(len(tgt_index))]
        for a, col in src_index.items():
            elems = sorted(a)
            for pos, i in enumerate(elems):          # contraction with gens
                b = a - {i}
                coeff = gens[i] if pos % 2 == 0 else -gens[i]
                rows[tgt_index[b]][col] = rows[tgt_index[b]][col] + coeff
            for i in range(s):                       # wedge with cofactors
                if i in a:
                    continue
                b = a | {i}
                below = sum(1 for x in a if x < i)
                coeff = cofs[i] if below % 2 == 0 else -cofs[i]
                rows[tgt_index[b]][col] = rows[tgt_index[b]][col] + coeff
        return rows

    d0 = GradedMatrix(F0, F1, group.zero, differential(even, even_index, odd_index))
    d1 = GradedMatrix(F1, F0, fvec, differential(odd, odd_index, even_index))
    mf = MatrixFactorization(group, fpoly, F0, F1, d0, d1)
    object.__setattr__(mf, "splitting", (tuple(gens), tuple(cofs)))
    return mf


def zero_object(f: ChainPolynomial) -> MatrixFactorization:
    group = build_grading_group(f)
    empty = GradedFreeModule(group, ())
    d0 = GradedMatrix(empty, empty, group.zero, ())
    d1 = GradedMatrix(empty, empty, group.total_degree, ())
    return MatrixFactorization(group, chain_mpoly(f), empty, empty, d0, d1)


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def shift(mf: MatrixFactorization, l: Degree) -> MatrixFactorization:
    """Grading-shift functor (l): twists move, entries stay (trusted).  The
    ``splitting`` record is kept, since a shift leaves the splitting as it is."""
    if l.is_zero():
        return mf
    return MatrixFactorization._trusted(mf, mf.F0.shifted(l), mf.F1.shifted(l),
                                        mf.d0.entries, mf.d1.entries, mf.splitting)


def direct_sum(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    if a.group is not b.group:
        raise GradingError("mixed grading groups")
    n = a.group.chain.n
    zero = MPoly.zero(n)

    def block(m1, m2, rank_r1, rank_c1, rank_r2, rank_c2):
        rows = []
        for i in range(rank_r1):
            rows.append(list(m1[i]) + [zero] * rank_c2)
        for i in range(rank_r2):
            rows.append([zero] * rank_c1 + list(m2[i]))
        return rows

    F0 = a.F0.concat(b.F0)
    F1 = a.F1.concat(b.F1)
    d0 = GradedMatrix(F0, F1, a.group.zero,
                      block(a.d0.entries, b.d0.entries,
                            a.F1.rank, a.F0.rank, b.F1.rank, b.F0.rank))
    d1 = GradedMatrix(F1, F0, a.group.total_degree,
                      block(a.d1.entries, b.d1.entries,
                            a.F0.rank, a.F1.rank, b.F0.rank, b.F1.rank))
    return MatrixFactorization(a.group, a.f, F0, F1, d0, d1)


def cone(phi: MFMorphism) -> MatrixFactorization:
    """Mapping cone of a shift-zero morphism (block upper-triangular)."""
    if not phi.shift.is_zero():
        raise GradingError("cone needs a shift-zero morphism; pre-shift the source")
    a, b = phi.source, phi.target
    group = a.group
    n = group.chain.n
    fvec = group.total_degree
    zero = MPoly.zero(n)
    C0 = b.F0.concat(a.F1)
    C1 = b.F1.concat(a.F0.shifted(fvec))

    c0_rows = []
    for i in range(b.F1.rank):
        c0_rows.append(list(b.d0.entries[i]) + list(phi.phi1.entries[i]))
    for i in range(a.F0.rank):
        c0_rows.append([zero] * b.F0.rank + [-p for p in a.d1.entries[i]])
    c1_rows = []
    for i in range(b.F0.rank):
        c1_rows.append(list(b.d1.entries[i]) + list(phi.phi0.entries[i]))
    for i in range(a.F1.rank):
        c1_rows.append([zero] * b.F1.rank + [-p for p in a.d0.entries[i]])

    c0 = GradedMatrix(C0, C1, group.zero, c0_rows)
    c1 = GradedMatrix(C1, C0, fvec, c1_rows)
    return MatrixFactorization(group, a.f, C0, C1, c0, c1)


# ---------------------------------------------------------------------------
# homotopy reduction
# ---------------------------------------------------------------------------

def _unit_position(entries):
    for r, row in enumerate(entries):
        for c, p in enumerate(row):
            if not p.is_zero() and p.is_constant():
                return r, c
    return None


def _eliminate(a, b, r, c):
    """Split off the trivial block around the unit a[r][c].

    ``a`` and ``b`` are mutable entry grids of the two structure maps; after
    clearing row r / column c of ``a`` with the matching inverse operations
    on ``b``, row r and column c of ``a`` (resp. column r and row c of ``b``)
    are deleted.
    """
    u = a[r][c].constant_value()
    inv = Fraction(1, 1) / u
    nrows, ncols = len(a), len(a[0])
    for i in range(nrows):                    # clear column c of a
        if i == r or a[i][c].is_zero():
            continue
        factor = a[i][c] * inv
        a[i] = [p - factor * q for p, q in zip(a[i], a[r])]
        for k in range(len(b)):               # b gets the inverse column op
            b[k][r] = b[k][r] + factor * b[k][i]
    for j in range(ncols):                    # clear row r of a
        if j == c or a[r][j].is_zero():
            continue
        factor = a[r][j] * inv
        for i in range(nrows):
            a[i][j] = a[i][j] - factor * a[i][c]
        b[c] = [p + factor * q for p, q in zip(b[c], b[j])]
    del a[r]
    for row in a:
        del row[c]
    del b[c]
    for row in b:
        del row[r]


def reduce(mf: MatrixFactorization) -> MatrixFactorization:
    """Strip contractible summands by eliminating constant unit entries.

    Produces a homotopy-equivalent factorization with no unit entries in
    either structure map; idempotent and never size-increasing.
    """
    group = mf.group
    d0 = [list(row) for row in mf.d0.entries]
    d1 = [list(row) for row in mf.d1.entries]
    twists0 = list(mf.F0.twists)
    twists1 = list(mf.F1.twists)
    while True:
        pos = _unit_position(d0)
        if pos is not None:
            r, c = pos                      # d0 rows ~ F1, cols ~ F0
            _eliminate(d0, d1, r, c)
            del twists1[r]
            del twists0[c]
            continue
        pos = _unit_position(d1)
        if pos is not None:
            r, c = pos                      # d1 rows ~ F0, cols ~ F1
            _eliminate(d1, d0, r, c)
            del twists0[r]
            del twists1[c]
            continue
        break
    F0 = GradedFreeModule(group, twists0)
    F1 = GradedFreeModule(group, twists1)
    g0 = GradedMatrix(F0, F1, group.zero, d0)
    g1 = GradedMatrix(F1, F0, group.total_degree, d1)
    return MatrixFactorization(group, mf.f, F0, F1, g0, g1)
