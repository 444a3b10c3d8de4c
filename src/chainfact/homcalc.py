"""Stable morphism-space dimensions by exact linear algebra on graded pieces.

For factorizations F, G and a degree l, the degree-l maps F -> T^p G form a
2-periodic complex whose cohomology at parity p is the stable Hom space.
Each graded piece is finite because the weight character is positive, so the
computation is: enumerate monomial bases slot by slot, assemble the two
neighboring differentials as sparse integer matrices, and take exact ranks.
A row of a differential is assembled by adding the cell monomial's exponents
to the terms of the structure maps; the ranks come from the sparse,
fraction-free ``exactmath.Echelon`` (through ``sparse_rank``), which also
gives the kernels and image reductions behind ``morphism_space_basis``.

Every query is made canonical before it reaches the engine.  Let s and t be
the first even twists of F and G, and A = F(s), B = G(t) the anchored
objects.  Since T^2 is the shift by the total degree f,

    Hom(F, T^p G(l)) = Hom(A, T^r B(l + s - t + floor(p/2) f)),  r = p mod 2,

and the cell bases and differential matrices of the two sides are literally
equal.  The cached bases and ranks are therefore shared by every object of a
twist orbit (the whole collection) and by the primal and Serre-dual tables.
A table goes one step further and asks each distinct key (A, B, s - t) once:
for the twist orbit that is one query column per diagonal j - i.
The cell bases and rows of T^p B are read off B itself (T swaps the modules
and moves one by f), so a query builds no translated object.  The functors
used here (``shift``, ``t_power``) are trusted constructors in ``mf``;
factorizations are validated where they enter.

The Euler entry chi(F, G(l)), the alternating sum of the Hom dimensions
over the certified window, depends on the same key (A, B, l + s - t).
``EulerForm`` memoizes it on that key for one run, anchoring each object
once; the triangle checks make one per run, so the memo is dropped with the
run instead of growing in a module-level cache.

Scan windows are certified on both sides: below by direct weight negativity
of the cell spaces, above by applying the same bound to the Serre-dual query.
They need only the weights of the twists.

The engine's name is ``chainfact.ENGINE_ID``; a change here that can change
a table must change it, since the table cache keys on it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .chain import ChainPolynomial, Degree, build_grading_group
from .exactmath import Echelon, MPoly, sparse_rank
from .mf import GradedMatrix, MatrixFactorization, MFMorphism, shift, t_power


@lru_cache(maxsize=None)
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


def _differential_rows(F, G, l, p):
    """Rows (one per source cell) of d_p: C^p -> C^{p+1} in the cell bases.

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
    basis, _ = _cell_basis(F, G, l, p)
    _, tindex = _cell_basis(F, G, l, p + 1)
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


@lru_cache(maxsize=None)
def _rank_d(F, G, l, p) -> int:
    return sparse_rank(_differential_rows(F, G, l, p))


def _anchor(mf: MatrixFactorization):
    """(A, s) with mf = A(-s), where s is the first even twist (zero for an
    empty object)."""
    s = mf.F0.twists[0] if mf.size else mf.group.zero
    return shift(mf, s), s


class _Anchors:
    """Per-run anchor table: object -> (A, s) as in :func:`_anchor`.

    Each object is anchored once, and equal anchors are interned to one
    object, so memo and ``lru_cache`` lookups on them match on identity.
    """

    def __init__(self):
        self._of: dict = {}
        self._interned: dict = {}

    def __call__(self, mf: MatrixFactorization):
        got = self._of.get(mf)
        if got is None:
            A, s = _anchor(mf)
            got = self._of[mf] = (self._interned.setdefault(A, A), s)
        return got


def hom_dim(source: MatrixFactorization, target: MatrixFactorization,
            degree: Degree | None = None, power: int = 0) -> int:
    """dim of stable Hom(source, T^power target(degree)).

    Kernel of the outgoing differential modulo the image of the incoming one,
    ranks over the rationals computed in integers, asked as the canonical
    query on the anchored objects (see the module docstring).
    """
    if source.group is not target.group:
        raise ValueError("factorizations live over different gradings")
    if not source.size or not target.size:
        return 0
    group = source.group
    F, s = _anchor(source)
    G, t = _anchor(target)
    k, r = divmod(power, 2)
    l = degree if degree is not None else group.zero
    l = l + s - t + k * group.total_degree
    cells = len(_cell_basis(F, G, l, r)[0])
    if cells == 0:
        return 0
    out_rank = _rank_d(F, G, l, r)
    in_rank = _rank_d(F, G, l, 0) if r else _rank_d(F, G, l - group.total_degree, 1)
    return cells - out_rank - in_rank


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


class EulerForm:
    """The Euler form chi(F, G(l)) = sum_p (-1)^p dim Hom(F, T^p G(l)) over
    the certified window, memoized for one run.

    An entry depends only on the canonical key (A, B, l + s - t) of the
    anchored objects, the key that :func:`hom_dim` and
    :func:`compute_hom_table` use, so each distinct key is scanned and
    queried once.  Objects are anchored once per run.  The memo lives on the
    instance: make one per run and drop it with the run.
    """

    def __init__(self):
        self.anchor = _Anchors()
        self.entries: dict = {}         # (A, B, l) -> Euler number

    def __call__(self, source: MatrixFactorization, target: MatrixFactorization,
                 degree: Degree | None = None) -> int:
        A, s = self.anchor(source)
        B, t = self.anchor(target)
        l = (degree if degree is not None else source.group.zero) + s - t
        key = (A, B, l)
        value = self.entries.get(key)
        if value is None:
            pmin, pmax = scan_window(A, B, l)
            value = self.entries[key] = sum(
                (1 if p % 2 == 0 else -1) * hom_dim(A, B, l, p)
                for p in range(pmin, pmax + 1))
        return value


# ---------------------------------------------------------------------------
# tables and pairings
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


class HomTable:
    """Hom dimensions over a collection, per (source, target, power) cell."""

    def __init__(self, chain: tuple[int, ...], offset: int,
                 entries: dict[tuple[int, int, int], int],
                 windows: dict[tuple[int, int], tuple[int, int]],
                 dual: bool = False, margin: int = 0):
        self.chain = chain
        self.offset = offset
        self.entries = entries
        self.windows = windows
        self.dual = dual
        self.margin = margin

    def __eq__(self, other):
        if not isinstance(other, HomTable):
            return NotImplemented
        return vars(self) == vars(other)

    def dim(self, i, j, p) -> int:
        return self.entries.get((i, j, p), 0)

    def hull(self) -> tuple[int, int]:
        if not self.entries:
            return (0, -1)
        ps = [p for (_, _, p) in self.entries]
        return (min(ps), max(ps))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "chain": list(self.chain),
            "offset": self.offset,
            "dual": self.dual,
            "margin": self.margin,
            "window": list(self.hull()),
            "windows": {f"{i},{j}": list(w) for (i, j), w in sorted(self.windows.items())},
            "entries": [{"i": i, "j": j, "p": p, "dim": d}
                        for (i, j, p), d in sorted(self.entries.items())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HomTable":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported table schema")
        entries = {(e["i"], e["j"], e["p"]): e["dim"] for e in data["entries"]}
        windows = {}
        for key, val in data["windows"].items():
            i, j = key.split(",")
            windows[(int(i), int(j))] = (val[0], val[1])
        return cls(tuple(data["chain"]), data["offset"], entries, windows,
                   data.get("dual", False), data.get("margin", 0))


def compute_hom_table(f: ChainPolynomial, offset: int = 0, margin: int = 0,
                      dual: bool = False, collection=None) -> HomTable:
    """All pairwise Hom dimensions of the collection over certified windows.

    With ``dual`` set, each (i, j, p) cell instead holds the Serre-dual query
    dimension, so the two tables must agree entrywise.

    Every object is anchored once, E_i = A_i(-s_i).  Both the window and the
    queries of a pair (i, j) depend only on (A_i, A_j, s_i - s_j), so each
    distinct key is scanned and queried once and its column of powers is
    copied to every pair that shares it.  The key is read off the objects:
    a twist orbit such as the distinguished collection has 2*mu - 1 keys,
    one per diagonal j - i, and any other collection is still exact.
    """
    if collection is None:
        from .verify import build_collection
        collection = build_collection(f, offset)
    group = build_grading_group(f)
    n = f.n
    sigma = sum((group.variable_degree(i) for i in range(n)), group.zero)
    anchor = _Anchors()
    anchored = [anchor(obj) for obj in collection]
    columns: dict = {}              # (A, B, d) -> (window, {p: dim})
    entries, windows = {}, {}
    for i, (A, s) in enumerate(anchored):
        for j, (B, t) in enumerate(anchored):
            d = s - t
            col = columns.get((A, B, d))
            if col is None:
                window = scan_window(A, B, d)
                powers = range(window[0] - margin, window[1] + margin + 1)
                if dual:
                    dims = {p: hom_dim(B, A, -sigma - d, n - p) for p in powers}
                else:
                    dims = {p: hom_dim(A, B, d, p) for p in powers}
                col = columns[(A, B, d)] = (window, dims)
            windows[(i, j)] = col[0]
            entries.update(((i, j, p), dim) for p, dim in col[1].items())
    return HomTable(f.exponents, offset, entries, windows, dual, margin)


def euler_pairing(table: HomTable):
    """Alternating sums over the certified windows, as a nested list."""
    mu = max(i for (i, _, _) in table.entries) + 1 if table.entries else 0
    out = []
    for i in range(mu):
        row = []
        for j in range(mu):
            pmin, pmax = table.windows[(i, j)]
            row.append(sum((1 if p % 2 == 0 else -1) * table.dim(i, j, p)
                           for p in range(pmin, pmax + 1)))
        out.append(row)
    return out


def check_exceptionality(table: HomTable) -> dict:
    """Exceptional-collection conditions read off a computed table.

    Checks scalar endomorphisms concentrated at power 0 and lower-triangular
    vanishing across the full stored power range (window plus margin); also
    reports whether the collection is strongly exceptional.
    """
    mu = max(i for (i, _, _) in table.entries) + 1 if table.entries else 0
    failures = []
    strong = True
    for (i, j, p), d in table.entries.items():
        if i == j:
            want = 1 if p == 0 else 0
            if d != want:
                failures.append({"i": i, "j": j, "p": p, "dim": d,
                                 "reason": "endomorphisms not scalar"})
        elif i > j:
            if d != 0:
                failures.append({"i": i, "j": j, "p": p, "dim": d,
                                 "reason": "backwards morphism"})
        elif p != 0 and d != 0:
            strong = False
    return {"objects": mu, "exceptional": not failures,
            "strong": strong and not failures, "failures": failures}


def serre_symmetry_check(table: HomTable, dual_table: HomTable) -> bool:
    """Entrywise agreement of a table with its Serre-dual recomputation."""
    keys = set(table.entries) | set(dual_table.entries)
    return all(table.entries.get(k, 0) == dual_table.entries.get(k, 0)
               for k in keys)


# ---------------------------------------------------------------------------
# closed-form oracle for the diagonal
# ---------------------------------------------------------------------------

def closed_form_hom(f: ChainPolynomial, parity: int) -> dict[Degree, int]:
    """Graded dimensions of the diagonal Hom algebra in closed form.

    Even variable counts: the quotient by the even-indexed variables and the
    powers of the odd-indexed ones, with nothing at odd parity.  Odd variable
    counts: the mirror quotient at even parity and, at odd parity, one free
    rank over it generated in the negated-first-variable degree.
    """
    group = build_grading_group(f)
    n, a = f.n, f.exponents
    if n % 2 == 0:
        if parity % 2:
            return {}
        free_vars = list(range(0, n, 2))         # 0-based odd-labelled x1, x3, ...
        gen_shift = group.zero
    else:
        free_vars = list(range(1, n, 2))         # 0-based even-labelled x2, x4, ...
        gen_shift = group.zero if parity % 2 == 0 else group.variable_degree(0)

    dims: dict[Degree, int] = {}

    def rec(idx, exps):
        if idx == len(free_vars):
            full = [0] * n
            for v, e in zip(free_vars, exps):
                full[v] = e
            deg = group.monomial_degree(tuple(full)) - gen_shift
            dims[deg] = dims.get(deg, 0) + 1
            return
        for e in range(a[free_vars[idx]]):
            rec(idx + 1, exps + [e])

    rec(0, [])
    return dims


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
    basis, _ = _cell_basis(source, target, l, power)
    if not basis:
        return []
    H = t_power(target, power)
    d_out: dict[int, dict[int, int]] = {}
    for col, row in enumerate(_differential_rows(source, target, l, power)):
        for idx, coeff in row.items():
            d_out.setdefault(idx, {})[col] = coeff
    image = Echelon(_differential_rows(source, target, l, power - 1))
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
