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
leaves h|V = x2 and x3 leaves h|V = x2^a2.  A pair that fails the check
raises ``ValueError``; no run asks one.

Reads are built on bases.  Since Hom(A(a), T^p X(b)(l)) =
Hom(A, T^r X(l + b - a + floor(p/2) f)), r = p mod 2, one answer serves a
twist orbit: a caller holding an orbit as (base, twist) asks the pair
(A, X) on the unshifted source base and the target as it holds them, with
every twist in l.  ``HomEngine`` answers the reads of one run: it builds
the (degree, parity) basis of (x) H(K_i) once per (A, X), folded as above,
and an element at folded degree l + k f and parity q is
Hom(A, T^(2k+q) X(l)).  Its one read, ``HomEngine.orbit``, lands the basis
on a whole twist orbit l = start + e step at once, stepping the weight and
the torsion residue of l as integers, and gives every nonzero power of
each twist with no window; since every Hom vanishes outside its certified
window, the alternating sum of the landed dimensions is the twist's Euler
number.  The Hom table of the orbit E_i = base(i step) is one such read of
(base, base) on the twists d step, |d| < mu: the pair (i, j) reads diagonal
d = j - i, every landed power of it.  A run makes one engine and drops its
memo with it.  Serre duality needs no second table: Hom(A, T^p A(l)) and
Hom(A, T^(n-p) A(-sigma - l)), sigma the sum of the variable degrees, are
dual (graded Gorenstein symmetry of the one Künneth basis of (A, A)), so
``HomRun.serre_symmetry`` reads (A, A) on the orbit -sigma - d step and
compares each diagonal with its landing at n - p.

The full Hom complex -- monomial cells slot by slot (``_cell_basis``) and
the differentials as sparse integer rows (``_differential_rows``) -- serves
``morphism_space_basis``, which needs explicit representatives of the
degree-zero morphisms for the cone search of ``triangle_structural``, and
is the tests' reference for the closed form; ``exactmath.Echelon`` gives
its kernels and image reductions.  A degree-l map F -> T^p G is a
degree-zero map F -> T^p G(l), so degree zero loses nothing.  Its cells and
rows of T^p X are read off X itself.

No check reads a window.  The ``hom_table`` report counts, for each
diagonal, its certified window (``windows``, in closed form from the base's
twist weights) plus ``TABLE_MARGIN`` powers on both sides.

The engine's name is ``chainfact.ENGINE_ID``, which every report carries as
provenance; a change here that can change a table must change it.
"""

from __future__ import annotations

from collections import Counter
from operator import add

from .chain import Degree
from .exactmath import Echelon, MPoly
from .mf import GradedMatrix, MatrixFactorization, MFMorphism

TABLE_MARGIN = 3        # powers a report counts beyond each certified Hom window


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

def chi(dims: dict[int, int]) -> int:
    """The alternating sum of {p: dim} over the powers p."""
    return sum(-x if p % 2 else x for p, x in dims.items())


def _koszul_vars(A: MatrixFactorization) -> tuple[int, ...] | None:
    """The sorted variables of A's generators, None unless each generator
    (a monomial, as ``stabilize`` checks) is one variable times a constant."""
    if A.splitting is None:
        return None
    exps = [next(iter(g.terms)) for g in A.splitting[0]]
    return tuple(sorted(e.index(1) for e in exps)) if all(sum(e) == 1 for e in exps) else None


def _check_pair(A, X) -> None:
    """Refuse a pair outside the closed form's reach, before any memo lookup:
    a source that is not an unshifted stabilization by variables, or a
    target without the ``splitting`` record, unless a side is empty."""
    if A.size and X.size and (_koszul_vars(A) is None or not A.F0.twists[0].is_zero()
                              or X.splitting is None):
        raise ValueError("Hom pair is not from an unshifted stabilization by "
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
    """The Hom reads of one run, each answered in closed form.

    The package's one route to a Hom dimension and the one owner of the
    memo behind it.  A read (A, X, start, step) stands for the spaces
    Hom(A, T^p X(start + e step)) along a twist orbit, from an unshifted
    stabilization by variables into a shift of a stabilization (see the
    module docstring).  The one read, :meth:`orbit`, serves the table, the
    Euler numbers and the run's Serre check.  The memo, on the instance and
    keyed as given, is the Künneth basis per (A, X), built by
    :meth:`kunneth` and grouped for :meth:`orbit`.  A run holds one object
    per base, so lookups match on identity; equal objects share an entry.
    """

    def __init__(self):
        self.bases: dict = {}           # (A, X) -> {w mod f.w: [(w, r, parity, dim)]}

    def orbit(self, A, X, start: Degree, step: Degree, es) -> dict[int, dict[int, int]]:
        """{e: {p: dim Hom(A, T^p X(start + e step))}} for each e of ``es``,
        over the nonzero powers, on a checked pair (A, X).  A basis element
        ((w, r), q) of (A, X) with count c answers the folded query of power
        p = 2k + q at the twist l when w = l.w + k f.w and r = l.r + k f.r
        modulo the torsion, so it lands there when k = (w - l.w) / f.w is an
        integer and the residues agree.  The basis is grouped by w mod f.w
        once per pair, so a twist reads only the elements of its class, and
        the twists are stepped as integer coordinates."""
        _check_pair(A, X)
        group = start.group
        (sw, sr), (tw, tr), (fw, fr) = start.coords, step.coords, group.total_degree.coords
        classes = self.bases.get((A, X))
        if classes is None:
            classes = {}
            for ((w, r), q), c in self.kunneth(A, X).items():
                classes.setdefault(w % fw, []).append((w, r, q, c))
            self.bases[(A, X)] = classes
        landed = {}
        for e in es:
            lw, lr = sw + e * tw, sr + e * tr
            dims = landed[e] = {}
            for w, r, q, c in classes.get(lw % fw, ()):
                k = (w - lw) // fw
                if (lr + k * fr - r) % group.modulus == 0:
                    dims[2 * k + q] = c
        return landed

    def kunneth(self, A, X) -> Counter:
        """{(degree coords, parity): dim} over the folded queries of the keys
        (A, X, .) with a nonzero Hom, by graded Künneth (see the module
        docstring): a basis element of (x) H(K_i) of degree d and parity q
        answers the fold of (d - D, q - s).  ``ValueError`` when the pieces
        of X|V(I) fail the shape check.  The caller has checked the pair."""
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


def windows(base, step: Degree, ds) -> dict[int, tuple[int, int]]:
    """{d: (lo, hi)}: the certified power window of Hom(base, T^p base(d step))
    for each d of ``ds``, outside which every Hom vanishes.

    The windows are in closed form from the base's twist weights.  A cell of
    Hom(base, T^p base(l)) pairs a source and a target twist of one slot of
    T^q base, q = p mod 2, so its weight is at most
    C_q + l.w + floor(p/2) f.w, C_q the largest difference of the two over
    the slots: below the least p where that bound is nonnegative every
    cell, and so every Hom, vanishes.  The upper end is n less the same
    bound on the Serre-dual twist, of weight -sigma.w - l.w.  No window is
    empty (tested over the report sweep)."""
    group, n = base.group, base.group.chain.n
    fw, sigma_w = group.total_degree.weight, sum(group.weights[:n])
    w0, w1 = [t.weight for t in base.F0.twists], [t.weight for t in base.F1.twists]
    bounds = (max(max(w0) - min(w0), max(w1) - min(w1)),
              max(max(w0) - min(w1), max(w1) - min(w0) + fw))

    def lowest(lw):
        return min(2 * -((c + lw) // fw) + q for q, c in enumerate(bounds))

    return {d: (lowest(d * step.weight), n - lowest(-sigma_w - d * step.weight)) for d in ds}


def euler_pairing(table: dict[int, dict[int, int]], mu: int):
    """chi(E_i, E_j) over the pairs of a Hom table {d: {p: dim}} of mu
    objects, as a nested list: the alternating sum of the landed dimensions
    of each diagonal, summed once and read by every pair on it."""
    chis = {d: chi(dims) for d, dims in table.items()}
    return [[chis[j - i] for j in range(mu)] for i in range(mu)]


def check_exceptionality(table: dict[int, dict[int, int]], mu: int) -> dict:
    """Exceptional-collection conditions read off a Hom table {d: {p: dim}}
    of mu objects, each diagonal's powers in ascending order.

    Checks scalar endomorphisms concentrated at power 0 and lower-triangular
    vanishing at every landed power; also reports whether the collection is
    strongly exceptional.  A diagonal holds its nonzero entries only, so
    power 0 of diagonal 0 is read as 0 when it is absent.  Diagonal d = 0
    holds the pairs i = j, d < 0 those with i > j and d > 0 those with
    i < j, so each diagonal is read once; failures are expanded to
    (i, j, p), in pair order, only when a diagonal fails.
    """
    wrong, strong = {}, True
    for d, dims in table.items():
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
    failures = []
    for i in range(mu if wrong else 0):
        for d in sorted(d for d in wrong if 0 <= i + d < mu):
            reason = "endomorphisms not scalar" if d == 0 else "backwards morphism"
            for p, x in wrong[d]:
                failures.append({"i": i, "j": i + d, "p": p, "dim": x, "reason": reason})
    return {"objects": mu, "exceptional": not failures,
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
