"""Stable morphism-space dimensions by exact linear algebra on graded pieces.

For factorizations F, G and a degree l, the degree-l maps F -> T^p G form a
2-periodic complex whose cohomology at parity p is the stable Hom space.
Each graded piece is finite because the weight character is positive.

Every Hom that ``verify``, ``euler`` and ``triangles`` read is out of a
Koszul stabilization E = stab(R/I), I generated by s variables, and
Hom(E, G) is the cohomology of the 2-periodic complex G|V(I) over the
polynomial ring in the other variables (Dyckerhoff, arXiv:0904.4713;
Polishchuk-Vaintrob, arXiv:1002.2116).  With E the unshifted stabilization
(first even twist zero, as ``stabilize`` without a twist leaves it),
D = sum of deg(x_v) over the generators - s f and k, r = divmod(p + s, 2),

    Hom(E, T^p G(l)) = H^r(G|V(I)) in degree D + k f + l,

where H^0 in degree d is ker(d0: F0_d -> F1_d) mod im(d1: F1_{d-f} -> F0_d)
and H^1 is ker(d1: F1_d -> F0_{d+f}) mod im(d0: F0_d -> F1_d).  Restriction
drops every term and every monomial that contains a variable of I, so the
complex has rank(G) slots in about half the variables instead of
2 rank(E) rank(G) slots in all of them.  (D carries s f, not ceil(s/2) f:
the latter disagrees with the full Hom complex whenever s is even.)  This
restriction route is the package's one route to a Hom dimension.  It reads
the twists of G itself, so any target will do, but the source must be an
unshifted stabilization with the ``koszul_vars`` record that ``stabilize``
leaves; any other source is refused with ``ValueError``.

The full Hom complex -- monomial bases slot by slot (``_cell_basis``) and
the differentials as sparse integer rows (``_differential_rows``), built by
adding the cell monomial's exponents to the terms of the structure maps --
serves ``morphism_space_basis``, which needs explicit representatives (for
the cone search of ``triangle_structural``, which reads no dimension);
``exactmath.Echelon`` gives its kernels and image reductions.  The tests'
general Hom dimension, the restriction route's oracle, uses the same rows.

Keys are built on bases.  Since T^2 is the shift by the total degree f,

    Hom(A(a), T^p X(b)(l)) = Hom(A, T^r X(l + b - a + floor(p/2) f)),

r = p mod 2, and the cell bases and differential matrices of the two sides
are literally equal, so one answer serves every pair of a twist orbit.  A
caller that holds an orbit as (base, twist) asks the key (A, X, l) on the
unshifted source base A and the target X as it holds them, with every
twist in the degree l, and builds no object of the orbit.

``HomEngine`` answers these keys for one run.  It scans each key once for
its certified window, memoizes the Euler number on the key, and answers
each folded query (A, X, (l + floor(p/2) f).coords, p mod 2) once by the
restriction route, which reads the engine's memo of monomial enumerations.
The tables and the Euler checks are its readers: every entry of the primal
table, of the Serre-dual table and of the Euler checks is such a value.  A
table is built from the collection's base and step: the collection is the
orbit E_i = base(i step), so the pair (i, j) has the key (A, A, (j - i) step)
at every offset, and the table stores one column per diagonal d = j - i,
|d| < mu, which the checks read instead of the mu^2 pairs.  A run makes one
engine and drops its memos with the run, and ``hom_dim`` is a one-off query
on a fresh engine, so no Hom memo outlives the engine that filled it.
The cell bases and rows of T^p X are read off X itself (T swaps the modules
and moves one by f), so a query builds no translated object.  The functors
used here (``shift``, ``t_power``) are trusted constructors in ``mf``;
factorizations are validated where they enter.

Scan windows are certified on both sides: below by direct weight negativity
of the cell spaces, above by applying the same bound to the Serre-dual query.
They need only the weights of the twists.

The engine's name is ``chainfact.ENGINE_ID``, which every report carries as
provenance; a change here that can change a table must change it.
"""

from __future__ import annotations

from operator import add

from .chain import Degree
from .exactmath import Echelon, MPoly, sparse_rank
from .mf import GradedMatrix, MatrixFactorization, MFMorphism, shift, t_power


def _cell_basis(F: MatrixFactorization, G: MatrixFactorization, l: Degree, p: int):
    """Monomial basis of the degree-l component-map space F -> T^p G.

    Returns (items, index) with items = [(component, row, col, exponents)].
    The twists of T^p G are read off G: T G has modules (G.F1, G.F0 shifted
    by the total degree f), and T^2 is the shift by f, which moves every
    cell degree by +f.
    """
    group = F.group
    fdeg = group.total_degree
    k, odd = divmod(p, 2)
    lk = l + k * fdeg
    if odd:
        slots = ((F.F0, G.F1, lk), (F.F1, G.F0, lk + fdeg))
    else:
        slots = ((F.F0, G.F0, lk), (F.F1, G.F1, lk))
    items = []
    for comp, (src, tgt, deg) in enumerate(slots):
        shifted = [t + deg for t in src.twists]        # once per column, not per cell
        for r in range(tgt.rank):
            for c in range(src.rank):
                want = shifted[c] - tgt.twists[r]
                for exps in group.monomial_basis(want):
                    items.append((comp, r, c, exps))
    return tuple(items), {it: i for i, it in enumerate(items)}


def _differential_rows(F, G, p, basis, tindex):
    """Rows of d_p: C^p -> C^{p+1}, one per cell of ``basis`` (the cell basis
    of C^p), as {position in ``tindex``: coefficient}, where ``tindex``
    indexes the cell basis of C^{p+1}; the caller enumerates both bases.

    The translation functor already negates structure maps, so the rolled
    presentation uses a constant minus sign on the phi-after-d side; the
    resulting differential is (-1)^p times the classical Hom-complex one,
    hence has the same kernels and images and squares to zero.

    A cell is a monomial x^m in one component slot, so each term c x^e of a
    structure-map entry contributes c (or -c) at the cell x^(m+e): the rows
    are assembled by adding exponent vectors, with no polynomial products.
    The structure maps of T^p G are read off G (swapped and negated for odd
    p), since T^2 only shifts twists.
    """
    if p % 2:
        h0, h1, hsign = G.d1.entries, G.d0.entries, -1
    else:
        h0, h1, hsign = G.d0.entries, G.d1.entries, 1
    rows = []
    for comp, r, c, m in basis:
        row: dict[int, int] = {}
        # comp 0: phi0 -> (d0 of T^p G) phi0 in slot 0, -phi0 F.d1 in slot 1;
        # comp 1: phi1 -> -phi1 F.d0 in slot 0, (d1 of T^p G) phi1 in slot 1.
        left, right = (h0, F.d1.entries) if comp == 0 else (h1, F.d0.entries)
        for tr, hrow in enumerate(left):
            for e, coeff in hrow[r].terms.items():
                idx = tindex[(comp, tr, c, tuple(map(add, e, m)))]
                row[idx] = row.get(idx, 0) + hsign * coeff
        for tc, poly in enumerate(right[c]):
            for e, coeff in poly.terms.items():
                idx = tindex[(1 - comp, r, tc, tuple(map(add, e, m)))]
                row[idx] = row.get(idx, 0) - coeff
        rows.append(row)
    return rows


def hom_dim(source: MatrixFactorization, target: MatrixFactorization,
            degree: Degree | None = None, power: int = 0) -> int:
    """dim of stable Hom(source, T^power target(degree)), as a one-off query
    on a fresh :class:`HomEngine`, on the key (source(s), target, degree + s)
    for s the first even twist of ``source``: a shift of a stabilization with
    ``stabilize``'s ``koszul_vars`` record (``ValueError`` otherwise).  A run
    asks its own engine instead, on keys it builds on its bases."""
    if source.group is not target.group:
        raise ValueError("factorizations live over different gradings")
    s = source.F0.twists[0] if source.size else source.group.zero
    l = degree if degree is not None else source.group.zero
    return HomEngine().dim((shift(source, s), target, l + s), power)


def _twist_weights(mf, parity):
    """Weights of the (even, odd) twists of T^parity mf.

    T G has modules (G.F1, G.F0 shifted by the total degree).
    """
    w0 = [t.weight for t in mf.F0.twists]
    w1 = [t.weight for t in mf.F1.twists]
    if not parity:
        return w0, w1
    fw = mf.group.total_degree.weight
    return w1, [w - fw for w in w0]


def _lowest_nonvanishing_power(F, G, lw: int) -> int | None:
    """Least p for which the cell space C^p at degree weight lw can be
    nonzero (weight bound); None if F or G is zero."""
    if not F.size or not G.size:
        return None
    d = F.group.total_degree.weight
    src = _twist_weights(F, 0)
    best = None
    for parity in (0, 1):
        tgt = _twist_weights(G, parity)
        base = max(max(a) - min(b) for a, b in zip(src, tgt)) + lw
        k = -(base // d)                       # ceil(-base/d)
        p = 2 * k + parity
        if best is None or p < best:
            best = p
    return best


def scan_window(source, target, degree: Degree | None = None) -> tuple[int, int]:
    """Certified power window outside which all stable Homs vanish.

    The lower end is direct weight negativity of the cells; the upper end is
    the same bound applied to the Serre-dual query.  Returns (pmin, pmax),
    possibly empty as (0, -1).
    """
    group = source.group
    lw = degree.weight if degree is not None else 0
    pmin = _lowest_nonvanishing_power(source, target, lw)
    if pmin is None:
        return (0, -1)
    dual_lw = -sum(group.weights[:group.chain.n]) - lw
    qmin = _lowest_nonvanishing_power(target, source, dual_lw)
    if qmin is None:
        return (0, -1)
    pmax = group.chain.n - qmin
    return (pmin, pmax)


# ---------------------------------------------------------------------------
# tables and pairings
# ---------------------------------------------------------------------------

class HomTable:
    """Hom dimensions over the twist orbit E_i = base(i step), i < ``objects``.

    ``columns`` maps each diagonal d = j - i, |d| < ``objects``, to
    (window, {p: dim}) on the key (base, base, d step): the certified window
    and the dimensions over the stored powers.  The pair (i, j) reads column
    j - i; ``entries``, ``windows`` and :meth:`dim` are per-pair views.
    """

    def __init__(self, base: MatrixFactorization, step: Degree, objects: int,
                 columns: dict[int, tuple]):
        self.base = base
        self.step = step
        self.objects = objects
        self.columns = columns

    def key(self, d: int) -> tuple:
        """The key of the column of the diagonal d."""
        return self.base, self.base, d * self.step

    def _pairs(self):
        mu = self.objects
        return ((i, j) for i in range(mu) for j in range(mu))

    @property
    def entries(self) -> dict[tuple[int, int, int], int]:
        """{(i, j, p): dim}, expanded pair by pair."""
        return {(i, j, p): dim for i, j in self._pairs()
                for p, dim in self.columns[j - i][1].items()}

    @property
    def windows(self) -> dict[tuple[int, int], tuple[int, int]]:
        return {(i, j): self.columns[j - i][0] for i, j in self._pairs()}

    def dim(self, i, j, p) -> int:
        if not (0 <= i < self.objects and 0 <= j < self.objects):
            return 0
        return self.columns[j - i][1].get(p, 0)

    def entry_count(self) -> int:
        """len(entries), counted without expanding them."""
        return sum((self.objects - abs(d)) * len(dims)
                   for d, (_, dims) in self.columns.items())

    def hull(self) -> tuple[int, int]:
        ps = [p for _, dims in self.columns.values() for p in dims]
        return (min(ps), max(ps)) if ps else (0, -1)

    def euler(self, d: int) -> int:
        """chi(E_i, E_{i+d}), the alternating sum of column d over its window."""
        return _alternating(*self.columns[d])


def _alternating(window, dims) -> int:
    """sum_p (-1)^p dims[p] over the window, absent powers read as zero."""
    return sum((1 if p % 2 == 0 else -1) * dims.get(p, 0)
               for p in range(window[0], window[1] + 1))


def _check_source(key) -> None:
    """Refuse a key whose source the restriction route cannot answer: one
    without ``stabilize``'s ``koszul_vars`` record, or with a nonzero first
    even twist.  A key with an empty side passes: its Homs are zero."""
    A, X, _ = key
    if ((A.koszul_vars is None or not A.F0.twists[0].is_zero())
            and A.size and X.size):
        raise ValueError("Hom source is not an unshifted stabilization by "
                         "variables (koszul_vars record, first even twist zero)")


class HomEngine:
    """The Hom queries of one run, each asked once.

    The engine is the package's one route to a Hom dimension and the one
    owner of the memos behind it.  A key (A, X, l) stands for
    Hom(A, T^p X(l)): A is an unshifted stabilization with its
    ``koszul_vars`` record, X any object, l a degree, and callers build keys
    on the bases they hold (see the module docstring).  The engine keeps its
    memos on the key as given: the certified window per key, the Euler
    number per key, and the dimension per folded query
    (A, X, (l + floor(p/2) f).coords, p mod 2).  A run holds one object per
    base, so lookups match on identity; equal objects share an entry by
    equality.  A folded query the memo lacks goes to :meth:`restricted_dim`,
    which reads a fourth memo, the monomials per (degree, skipped
    variables).  The memos live on the instance: a run makes one engine and
    drops it with the run.
    """

    def __init__(self):
        self.windows: dict = {}         # (A, X, l) -> certified window
        self.eulers: dict = {}          # (A, X, l) -> Euler number
        self.dims: dict = {}            # folded query -> dim
        self.monomials: dict = {}       # (degree, skip) -> monomial basis

    def window(self, key) -> tuple[int, int]:
        """The certified window of a key, scanned once."""
        window = self.windows.get(key)
        if window is None:
            window = self.windows[key] = scan_window(*key)
        return window

    def dim(self, key, p: int) -> int:
        """dim Hom(A, T^p X(l)) for the key (A, X, l).  The source is checked
        before the memo is read, so an answer never depends on which queries
        came first."""
        _check_source(key)
        return self._dim(key, p)

    def _dim(self, key, p: int) -> int:
        """:meth:`dim` through the memo on the folded query, for a caller
        that has checked the key's source.  The folded degree is formed on
        the (weight, residue) coordinates, and a Degree is built only for a
        query the memo lacks."""
        A, X, l = key
        group = l.group
        k, r = divmod(p, 2)
        (w, r0), (fw, fr) = l.coords, group.total_degree.coords
        coords = (w + k * fw, (r0 + k * fr) % group.modulus)
        query = (A, X, coords, r)
        dim = self.dims.get(query)
        if dim is None:
            dim = self.dims[query] = self.restricted_dim(A, X, Degree(group, *coords), r)
        return dim

    def restricted_dim(self, A, B, l: Degree, r: int) -> int:
        """dim Hom(A, T^r B(l)), r = 0 or 1, for the unshifted stabilization
        A of R/(x_v : v in skip), as H^r of B|V(I) (see the module
        docstring).  The caller has checked the source."""
        if not A.size or not B.size:
            return 0
        skip = A.koszul_vars
        group = B.group
        fdeg = group.total_degree
        s = len(skip)
        k, odd = divmod(r + s, 2)
        d = l + (k - s) * fdeg
        for v in skip:
            d = d + group.variable_degree(v)
        module = B.F1 if odd else B.F0
        cells = sum(len(self._monomials(d - t, skip)) for t in module.twists)
        if cells == 0:
            return 0
        if odd:
            return (cells - self._restricted_rank(B, skip, d, 1)
                    - self._restricted_rank(B, skip, d, 0))
        return (cells - self._restricted_rank(B, skip, d, 0)
                - self._restricted_rank(B, skip, d - fdeg, 1))

    def _restricted_rank(self, G, skip, d, odd) -> int:
        """Rank of d0: F0_d -> F1_d (odd = 0) or d1: F1_d -> F0_{d+f}
        (odd = 1) of G restricted to V(x_v : v in skip).

        One row per source cell (basis vector c, monomial m in the free
        variables); each term of column c that avoids the skipped variables
        lands at (target row, m + exponents).
        """
        src, entries = (G.F1, G.d1.entries) if odd else (G.F0, G.d0.entries)
        index: dict = {}
        rows = []
        for c, t in enumerate(src.twists):
            terms = [(r, e, coeff) for r, row in enumerate(entries)
                     for e, coeff in row[c].terms.items()
                     if not any(e[v] for v in skip)]
            if not terms:
                continue
            for m in self._monomials(d - t, skip):
                rows.append({index.setdefault((r, tuple(map(add, e, m))), len(index)): coeff
                             for r, e, coeff in terms})
        return sparse_rank(rows)

    def _monomials(self, d: Degree, skip) -> tuple:
        """The monomials of degree d in the variables outside ``skip``,
        enumerated once per engine."""
        got = self.monomials.get((d, skip))
        if got is None:
            got = self.monomials[(d, skip)] = d.group.monomial_basis(d, skip)
        return got

    def euler_at(self, key) -> int:
        """chi on a key (A, X, l), the alternating sum of the Hom dimensions
        over the certified window, memoized on the key."""
        _check_source(key)
        chi = self.eulers.get(key)
        if chi is None:
            lo, hi = window = self.window(key)
            chi = self.eulers[key] = _alternating(
                window, {p: self._dim(key, p) for p in range(lo, hi + 1)})
        return chi

    def table(self, base, step: Degree, mu: int, margin: int = 0) -> HomTable:
        """The Hom table of the twist orbit E_i = base(i step), i < mu, over
        each certified window plus ``margin`` powers on both sides: one
        column per diagonal d, |d| < mu, on the key (base, base, d step)."""
        table = HomTable(base, step, mu, {})
        _check_source(table.key(0))
        for d in range(1 - mu, mu):
            key = table.key(d)
            lo, hi = window = self.window(key)
            table.columns[d] = (window, {p: self._dim(key, p) for p in
                                         range(lo - margin, hi + margin + 1)})
        return table

    def dual(self, table: HomTable) -> HomTable:
        """The Serre-dual recomputation of a table: column d holds
        dim Hom(A, T^(n-p) A(-sigma - d step)) over the same stored powers,
        so the two tables must agree entrywise."""
        A = table.base
        n = A.group.chain.n
        sigma = A.group.monomial_degree((1,) * n)      # sum of the variable degrees
        columns = {}
        _check_source(table.key(0))
        for d, (window, dims) in table.columns.items():
            back = (A, A, -sigma - d * table.step)
            columns[d] = (window, {p: self._dim(back, n - p) for p in dims})
        return HomTable(A, table.step, table.objects, columns)


def euler_pairing(table: HomTable):
    """Alternating sums over the certified windows, as a nested list.

    Each diagonal is summed once and read by every pair on it."""
    chi = {d: table.euler(d) for d in table.columns}
    mu = table.objects
    return [[chi[j - i] for j in range(mu)] for i in range(mu)]


def check_exceptionality(table: HomTable) -> dict:
    """Exceptional-collection conditions read off a computed table.

    Checks scalar endomorphisms concentrated at power 0 and lower-triangular
    vanishing across the full stored power range (window plus margin); also
    reports whether the collection is strongly exceptional.  Diagonal d = 0
    holds the pairs i = j, d < 0 those with i > j and d > 0 those with
    i < j, so each column is read once; failures are expanded to (i, j, p),
    in pair order, only when a column fails.
    """
    wrong, strong = {}, True
    for d, (_, dims) in table.columns.items():
        if d == 0:
            bad = [(p, x) for p, x in dims.items() if x != (1 if p == 0 else 0)]
        elif d < 0:
            bad = [(p, x) for p, x in dims.items() if x != 0]
        else:
            bad = []
            strong = strong and all(x == 0 for p, x in dims.items() if p != 0)
        if bad:
            wrong[d] = bad
    failures, mu = [], table.objects
    for i in range(mu if wrong else 0):
        for d in sorted(d for d in wrong if 0 <= i + d < mu):
            reason = "endomorphisms not scalar" if d == 0 else "backwards morphism"
            for p, x in wrong[d]:
                failures.append({"i": i, "j": i + d, "p": p, "dim": x, "reason": reason})
    return {"objects": table.objects, "exceptional": not failures,
            "strong": strong and not failures, "failures": failures}


def serre_symmetry_check(table: HomTable, dual_table: HomTable) -> bool:
    """Agreement of a table with its Serre-dual recomputation, column by
    column; tables of different orbits do not agree."""
    orbit = (table.base, table.step, table.objects)
    return orbit == (dual_table.base, dual_table.step, dual_table.objects) and all(
        dims == dual_table.columns[d][1] for d, (_, dims) in table.columns.items())


# ---------------------------------------------------------------------------
# explicit morphism representatives
# ---------------------------------------------------------------------------

def morphism_space_basis(source, target, degree: Degree | None = None,
                         power: int = 0) -> list[MFMorphism]:
    """Explicit representatives of a basis of the stable Hom space.

    The kernel of the outgoing differential comes from an ``Echelon`` of its
    matrix (one row per cell of C^{power+1}).  Each kernel vector is reduced
    modulo an ``Echelon`` of the incoming rows, which span the image; a
    nonzero normal form is kept and added to that echelon, so the survivors
    are independent modulo the image.  Each survivor is reassembled into a
    validated morphism onto T^power(target)(degree).
    """
    group = source.group
    l = degree if degree is not None else group.zero
    basis, index = _cell_basis(source, target, l, power)
    if not basis:
        return []
    H = t_power(target, power)
    d_out: dict[int, dict[int, int]] = {}
    above = _cell_basis(source, target, l, power + 1)[1]
    for col, row in enumerate(_differential_rows(source, target, power, basis, above)):
        for idx, coeff in row.items():
            d_out.setdefault(idx, {})[col] = coeff
    below = _cell_basis(source, target, l, power - 1)[0]
    image = Echelon(_differential_rows(source, target, power - 1, below, index))
    reps = []
    for vec in Echelon(d_out.values()).kernel(len(basis)):
        red = image.reduce(vec)
        if red:
            image.add(red)
            reps.append(red)

    nvars = group.chain.n
    morphisms = []
    for vec in reps:
        comps = {0: {}, 1: {}}
        for i, coeff in vec.items():
            comp, r, c, exps = basis[i]
            comps[comp].setdefault((r, c), {})[exps] = coeff

        def to_matrix(comp, src_mod, tgt_mod):
            rows = [[MPoly(nvars, comps[comp].get((r, c), {}))
                     for c in range(src_mod.rank)] for r in range(tgt_mod.rank)]
            return GradedMatrix(src_mod, tgt_mod, l, rows)

        phi0 = to_matrix(0, source.F0, H.F0)
        phi1 = to_matrix(1, source.F1, H.F1)
        morphisms.append(MFMorphism(source, H, l, phi0, phi1))
    return morphisms
