"""Stable morphism-space dimensions: graded Künneth on Koszul pieces.

For factorizations F, G and a degree l, the degree-l maps F -> T^p G form a
2-periodic complex whose cohomology at parity p is the stable Hom space.

Every Hom that ``verify``, ``euler`` and ``triangles`` read goes from one
Koszul stabilization into another: from A = stab(R/I), I = (x_v : v in S),
s = |S|, unshifted (first even twist zero), into a shift X of a
stabilization with generators g_i and cofactors h_i, both read off the
``splitting`` record of ``stabilize``.  With D = sum over S of deg(x_v) - s f
and k, r = divmod(p + s, 2) (Dyckerhoff, arXiv:0904.4713),

    Hom(A, T^p X(l)) = H^r(X|V(I)) in degree D + k f + l,

H^0 in degree d being ker(d0: F0_d -> F1_d) mod im(d1: F1_{d-f} -> F0_d) and
H^1 being ker(d1: F1_d -> F0_{d+f}) mod im(d0: F0_d -> F1_d).  (D carries
s f, not ceil(s/2) f: the latter disagrees with the full Hom complex
whenever s is even.)  As T^2 is the shift by f, (degree, parity) pairs fold
by (delta, q) == (delta + floor(q/2) f, q mod 2): the Koszul basis vector
e_J of X sits at the sum over J of (deg g_i - f, 1), moved by X's twist.

X|V(I) drops every term with a variable of S.  It is the tensor product,
over the free variables, of the pieces K_i = K(g_i|V, h_i|V), with
e_0 -> h_i|V e_i and e_i -> g_i|V e_0.  A unit in a piece makes it, and so
the product, contractible: every Hom is zero.  The shape check asks that
each g_i|V and h_i|V be zero or a constant times a power of one free
variable, not both nonzero, and that each free variable lie in exactly one
piece.  Künneth over the field then gives H(X|V(I)) = (x) H(K_i):
K(y^k, 0) gives k[y]/(y^k) e_0 at (m deg y, 0), K(0, y^k) gives
k[y]/(y^k) e_i at (deg g_i - f + m deg y, 1), m < k, and K(0, 0) gives
k e_0 + k e_i at (0, 0) and (deg g_i - f, 1).  The shared-variable rule
comes first: for K(0, y^a) and K(0, y^b), a <= b, the homogeneous change of
basis e' = e_1 + y^(b-a) e_2 turns the product into K(0, y^a) (x) K(0, 0),
so among the pieces with g_i|V = 0 and h_i|V a power of one shared
variable, the least power is kept and the others are set to zero.  The
width-a1 ladder base at odd n needs it: against the collection base, x1^a1
leaves h|V = x2 and x3 leaves h|V = x2^a2.  A key that fails the check
raises ``ValueError``; no run asks one.

Keys are built on bases.  Since Hom(A(a), T^p X(b)(l)) =
Hom(A, T^r X(l + b - a + floor(p/2) f)), r = p mod 2, one answer serves a
twist orbit: a caller holding an orbit as (base, twist) asks the key
(A, X, l) on the unshifted source base and the target as it holds them,
with every twist in l.  ``HomEngine`` answers the keys of one run: it
builds the (degree, parity) basis of (x) H(K_i) once per (A, X), folded as
above, and one read lands the whole basis on a key: an element at folded
degree l + k f and parity q is Hom(A, T^(2k+q) X(l)).  So a key's nonzero
powers come at once, with no window; since every Hom vanishes outside its
certified window, the alternating sum of the landed dimensions is the
key's Euler number, which the engine memoizes.  A table reads one column
per diagonal d = j - i of the orbit E_i = base(i step), on the key
(A, A, d step), and keeps its nonzero dimensions inside the column's
certified window plus a margin.  A run makes one engine and drops its memos
with it.  Serre duality needs no second table: Hom(A, T^p A(l)) and
Hom(A, T^(n-p) A(-sigma - l)), sigma the sum of the variable degrees, are
dual (graded Gorenstein symmetry of the one Künneth basis of (A, A)), so
``HomRun.serre_symmetry`` compares each column with the landing of its
Serre-dual key at n - p.

The full Hom complex -- monomial cells slot by slot (``_cell_basis``) and
the differentials as sparse integer rows (``_differential_rows``) -- serves
``morphism_space_basis``, which needs explicit representatives of the
degree-zero morphisms for the cone search of ``triangle_structural``, and
is the tests' reference for the closed form; ``exactmath.Echelon`` gives
its kernels and image reductions.  A degree-l map F -> T^p G is a
degree-zero map F -> T^p G(l), so degree zero loses nothing.  Its cells and
rows of T^p X are read off X itself.

A table's windows are certified on both sides and computed in closed form
from the base's twist weights (``HomEngine.table``): below by direct weight
negativity of the cell spaces, above by the same bound on the Serre-dual
key.

The engine's name is ``chainfact.ENGINE_ID``, which every report carries as
provenance; a change here that can change a table must change it.
"""

from __future__ import annotations

from collections import Counter
from operator import add

from .chain import Degree
from .exactmath import Echelon, MPoly
from .mf import GradedMatrix, MatrixFactorization, MFMorphism


def _cell_basis(F: MatrixFactorization, G: MatrixFactorization, p: int):
    """Monomial basis of the degree-zero component-map space F -> T^p G.

    Returns (items, index) with items = [(component, row, col, exponents)].
    The twists of T^p G are read off G: T G has modules (G.F1, G.F0 shifted
    by the total degree f), and T^2 is the shift by f, which moves every
    cell degree by +f.
    """
    group = F.group
    fdeg = group.total_degree
    k, odd = divmod(p, 2)
    lk = k * fdeg
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

    Translation negates the structure maps, so the rolled presentation
    uses a constant minus sign on the phi-after-d side; the resulting
    differential is (-1)^p times the classical Hom-complex one, hence has
    the same kernels and images and squares to zero.

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


# ---------------------------------------------------------------------------
# tables and pairings
# ---------------------------------------------------------------------------

class HomTable:
    """Hom dimensions over the twist orbit E_i = base(i step), i < ``objects``.

    ``columns`` maps each diagonal d = j - i, |d| < ``objects``, to
    (window, {p: dim}) on the key (base, base, d step): the certified window
    and the nonzero dimensions, in power order, over the stored powers, the
    window plus ``margin`` on both sides (:meth:`stored`).  The pair (i, j)
    reads column j - i.
    """

    def __init__(self, base: MatrixFactorization, step: Degree, objects: int,
                 margin: int, columns: dict[int, tuple]):
        self.base = base
        self.step = step
        self.objects = objects
        self.margin = margin
        self.columns = columns

    def key(self, d: int) -> tuple:
        """The key of the column of the diagonal d."""
        return self.base, self.base, d * self.step

    def stored(self, d: int) -> range:
        """The stored powers of column d: its window plus ``margin``."""
        lo, hi = self.columns[d][0]
        return range(lo - self.margin, hi + self.margin + 1)

    def entry_count(self) -> int:
        """The number of stored (i, j, p) entries, counted without expanding
        them."""
        return sum((self.objects - abs(d)) * len(self.stored(d)) for d in self.columns)

    def hull(self) -> tuple[int, int]:
        ends = [(r[0], r[-1]) for r in map(self.stored, self.columns) if r]
        return (min(lo for lo, _ in ends), max(hi for _, hi in ends)) if ends else (0, -1)

    def euler(self, d: int) -> int:
        """chi(E_i, E_{i+d}), the alternating sum of column d."""
        return _chi(self.columns[d][1])


def _chi(dims: dict[int, int]) -> int:
    """The alternating sum of {p: dim} over the powers p."""
    return sum(-x if p % 2 else x for p, x in dims.items())


def _koszul_vars(A: MatrixFactorization) -> tuple[int, ...] | None:
    """The sorted variables of A's generators, None unless each generator
    (a monomial, as ``stabilize`` checks) is one variable times a constant."""
    if A.splitting is None:
        return None
    exps = [next(iter(g.terms)) for g in A.splitting[0]]
    return tuple(sorted(e.index(1) for e in exps)) if all(sum(e) == 1 for e in exps) else None


def _check_key(key) -> None:
    """Refuse a key outside the closed form's reach, before any memo lookup:
    a source that is not an unshifted stabilization by variables, or a
    target without the ``splitting`` record, unless a side is empty."""
    A, X, _ = key
    if A.size and X.size and (_koszul_vars(A) is None or not A.F0.twists[0].is_zero()
                              or X.splitting is None):
        raise ValueError("Hom key is not from an unshifted stabilization by "
                         "variables into a recorded stabilization")


def _restrict(poly: MPoly, skip) -> tuple | None:
    """poly|V(x_v : v in skip) as (variable, power): None for zero, (None, 0)
    for a nonzero constant, and ``ValueError`` unless it is a constant times
    a power of one variable."""
    terms = [e for e in poly.terms if not any(e[v] for v in skip)]
    if not terms:
        return None
    support = [(v, k) for v, k in enumerate(terms[0]) if k]
    if len(terms) > 1 or len(support) > 1:
        raise ValueError("a Koszul piece restricts to more than a power of one variable")
    return support[0] if support else (None, 0)


class HomEngine:
    """The Hom queries of one run, each answered in closed form.

    The package's one route to a Hom dimension and the one owner of the
    memos behind it.  A key (A, X, l) stands for Hom(A, T^p X(l)), from an
    unshifted stabilization by variables into a shift of a stabilization
    (see the module docstring).  Its one read, :meth:`homs`, gives every
    nonzero power of a key at once and serves the table, the Euler numbers
    and the run's Serre check.  The engine owns the run's two Hom memos, on
    the instance and keyed as given: the Künneth basis per (A, X), built by
    :meth:`kunneth` and grouped for :meth:`homs`, and the Euler number per
    key.  A run holds one object per base, so lookups match on identity;
    equal objects share an entry.
    """

    def __init__(self):
        self.bases: dict = {}           # (A, X) -> {w mod f.w: [(w, r, parity, dim)]}
        self.eulers: dict = {}          # (A, X, l) -> Euler number

    def homs(self, key) -> dict[int, int]:
        """{p: dim Hom(A, T^p X(l))} over the nonzero powers of a checked key
        (A, X, l).  A basis element ((w, r), q) of (A, X) with count c
        answers the folded query of power p = 2k + q on the key when
        w = l.w + k f.w and r = l.r + k f.r modulo the torsion, so it lands
        there when k = (w - l.w) / f.w is an integer and the residues agree.
        The basis is grouped by w mod f.w once per pair, so a key reads only
        the elements of its class."""
        A, X, l = key
        group = l.group
        (lw, lr), (fw, fr) = l.coords, group.total_degree.coords
        classes = self.bases.get((A, X))
        if classes is None:
            classes = {}
            for ((w, r), q), c in self.kunneth(A, X).items():
                classes.setdefault(w % fw, []).append((w, r, q, c))
            self.bases[(A, X)] = classes
        landed = {}
        for w, r, q, c in classes.get(lw % fw, ()):
            k = (w - lw) // fw
            if (lr + k * fr - r) % group.modulus == 0:
                landed[2 * k + q] = c
        return landed

    def kunneth(self, A, X) -> Counter:
        """{(degree coords, parity): dim} over the folded queries of the keys
        (A, X, .) with a nonzero Hom, by graded Künneth (see the module
        docstring): a basis element of (x) H(K_i) of degree d and parity q
        answers the fold of (d - D, q - s).  ``ValueError`` when the pieces
        of X|V(I) fail the shape check.  The caller has checked the key."""
        if not A.size or not X.size:
            return Counter()
        group, skip, fdeg = X.group, _koszul_vars(A), X.group.total_degree
        pieces = []             # [variable or None, power, parity, deg g_i - f]
        for g, h in zip(*X.splitting):
            gbar, hbar = _restrict(g, skip), _restrict(h, skip)
            if (None, 0) in (gbar, hbar):
                return Counter()    # a unit: the piece, and so the product, is contractible
            if gbar and hbar:
                raise ValueError("both maps of a Koszul piece survive on V(I)")
            (e,) = g.terms
            pieces.append([*(gbar or hbar or (None, 0)), 1 if hbar else 0,
                           group.monomial_degree(e) - fdeg])
        for var in {pc[0] for pc in pieces if pc[2]}:       # the shared-variable rule
            shared = sorted((pc for pc in pieces if pc[2] and pc[0] == var),
                            key=lambda pc: pc[1])
            for pc in shared[1:]:
                pc[:3] = None, 0, 0
        if sorted(pc[0] for pc in pieces if pc[0] is not None) != [
                v for v in range(group.chain.n) if v not in skip]:
            raise ValueError("the Koszul pieces do not split the free variables")
        top = sum((group.variable_degree(v) - fdeg for v in skip), group.zero)    # D
        basis = Counter({(X.F0.twists[0] - top, -len(skip)): 1})    # unfolded parity
        for var, power, odd, eg in pieces:
            if var is None:
                elements = [(group.zero, 0), (eg, 1)]
            else:
                y = group.variable_degree(var)
                elements = [((eg if odd else group.zero) + m * y, odd) for m in range(power)]
            grown = Counter()
            for (d, q), c in basis.items():
                for e, o in elements:
                    grown[d + e, q + o] += c
            basis = grown
        folded = Counter()
        for (d, q), c in basis.items():
            folded[(d + (q // 2) * fdeg).coords, q % 2] += c
        return folded

    def euler_at(self, key) -> int:
        """chi on a key (A, X, l), the alternating sum of its Hom dimensions,
        memoized on the key."""
        _check_key(key)
        chi = self.eulers.get(key)
        if chi is None:
            chi = self.eulers[key] = _chi(self.homs(key))
        return chi

    def table(self, base, step: Degree, mu: int, margin: int = 0) -> HomTable:
        """The Hom table of the twist orbit E_i = base(i step), i < mu, over
        each certified window plus ``margin`` powers on both sides: one
        column per diagonal d, |d| < mu, on the key (base, base, d step).

        The windows are certified in closed form.  A cell of
        Hom(base, T^p base(l)) pairs a source and a target twist of one slot
        of T^q base, q = p mod 2, so its weight is at most
        C_q + l.w + floor(p/2) f.w, C_q the largest difference of the two
        over the slots: below the least p where that bound is nonnegative
        every cell, and so every Hom, vanishes.  The upper end is n less the
        same bound on the Serre-dual key, of weight -sigma.w - l.w."""
        table = HomTable(base, step, mu, margin, {})
        _check_key(table.key(0))
        group, n = base.group, base.group.chain.n
        fw, sigma_w = group.total_degree.weight, sum(group.weights[:n])
        w0, w1 = [t.weight for t in base.F0.twists], [t.weight for t in base.F1.twists]
        bounds = (max(max(w0) - min(w0), max(w1) - min(w1)),
                  max(max(w0) - min(w1), max(w1) - min(w0) + fw))

        def lowest(lw):
            return min(2 * -((c + lw) // fw) + q for q, c in enumerate(bounds))

        for d in range(1 - mu, mu):
            lw = d * step.weight
            lo, hi = window = lowest(lw), n - lowest(-sigma_w - lw)
            dims = sorted(self.homs(table.key(d)).items())
            table.columns[d] = (window, {p: x for p, x in dims
                                         if lo - margin <= p <= hi + margin})
        return table


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
    reports whether the collection is strongly exceptional.  A column holds
    its nonzero entries only, so power 0 of diagonal 0 is read as 0 when it
    is absent.  Diagonal d = 0 holds the pairs i = j, d < 0 those with
    i > j and d > 0 those with i < j, so each column is read once; failures
    are expanded to (i, j, p), in pair order, only when a column fails.
    """
    wrong, strong = {}, True
    for d, (_, dims) in table.columns.items():
        if d == 0:
            bad = [(p, x) for p, x in sorted({0: 0, **dims}.items())
                   if x != (1 if p == 0 else 0)]
        elif d < 0:
            bad = list(dims.items())
        else:
            bad = []
            strong = strong and all(p == 0 for p in dims)
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


# ---------------------------------------------------------------------------
# explicit morphism representatives
# ---------------------------------------------------------------------------

def morphism_space_basis(source, target) -> list[MFMorphism]:
    """Explicit representatives of a basis of Hom^0(source, target), the
    degree-zero stable morphisms.

    The kernel of the outgoing differential comes from an ``Echelon`` of its
    matrix (one row per cell of C^1).  Each kernel vector is reduced modulo
    an ``Echelon`` of the incoming rows, which span the image; a nonzero
    normal form is kept and added to that echelon, so the survivors are
    independent modulo the image.  Each survivor is reassembled into a
    validated morphism source -> target.
    """
    basis, index = _cell_basis(source, target, 0)
    if not basis:
        return []
    d_out: dict[int, dict[int, int]] = {}
    above = _cell_basis(source, target, 1)[1]
    for col, row in enumerate(_differential_rows(source, target, 0, basis, above)):
        for idx, coeff in row.items():
            d_out.setdefault(idx, {})[col] = coeff
    below = _cell_basis(source, target, -1)[0]
    image = Echelon(_differential_rows(source, target, -1, below, index))
    reps = []
    for vec in Echelon(d_out.values()).kernel(len(basis)):
        red = image.reduce(vec)
        if red:
            image.add(red)
            reps.append(red)

    nvars, zero = source.group.chain.n, source.group.zero
    morphisms = []
    for vec in reps:
        comps = {0: {}, 1: {}}
        for i, coeff in vec.items():
            comp, r, c, exps = basis[i]
            comps[comp].setdefault((r, c), {})[exps] = coeff

        def to_matrix(comp, src_mod, tgt_mod):
            rows = [[MPoly(nvars, comps[comp].get((r, c), {}))
                     for c in range(src_mod.rank)] for r in range(tgt_mod.rank)]
            return GradedMatrix(src_mod, tgt_mod, zero, rows)

        phi0 = to_matrix(0, source.F0, target.F0)
        phi1 = to_matrix(1, source.F1, target.F1)
        morphisms.append(MFMorphism(source, target, zero, phi0, phi1))
    return morphisms
