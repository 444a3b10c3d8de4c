"""Dense exact reference routines that the tests compare the library against,
and the small constructors that only the tests use.

The library builds no dense matrix, so the dense layer lives here: the
integer matrices ``IntMatrix`` with their product ``int_mat_mul`` and the
division-free (Berkowitz) characteristic polynomial, and the dense Euler
matrix, monodromy operator and companion matrix, each built from the series
or coefficients that the library keeps, and the recursion of the zeta
polynomial's power sums from its coefficients.  So does the general Hom
route: the library answers Homs only between Koszul stabilizations, by
graded Künneth, and ``general_hom_dim`` answers them between any objects
from the full Hom complex, as the closed form's differential-test oracle.
``scan_window`` certifies a power window for any key from the twist
weights, the reference for the table's closed-form windows and for the
window-free Euler sums.  ``closed_form_hom`` gives the diagonal Hom algebra
in closed form, ``profiles_agree`` compares Hom profiles, a necessary
condition for the isomorphisms that ``triangle_structural`` certifies, and
``serre_dual`` recomputes a table from the Serre-dual landings that
``serre_symmetry`` reads.  The library keeps only degree-zero morphisms and the grading shift,
so the translation functor ``translate`` and its powers ``t_power`` live
here too.

They compute values only and contain no ``assert``: pytest rewrites asserts
in test modules, not here, and the suite also runs under ``python -O``.
"""

import json
from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from chainfact.chain import ChainPolynomial, Degree, build_grading_group
from chainfact.exactmath import Echelon, MPoly
from chainfact.homcalc import HomEngine, HomTable, _check_key, _differential_rows
from chainfact.homrun import auxiliary_splitting
from chainfact.invariants import companion_certificate, euler_matrix, zeta_polynomial
from chainfact.mf import (
    GradedMatrix,
    MatrixFactorization,
    MFMorphism,
    shift,
    stabilize,
)
from chainfact.series import ExactDivisionError, Poly
from chainfact.verify import VerificationReport


# ---------------------------------------------------------------------------
# dense integer matrices
# ---------------------------------------------------------------------------

def int_mat_mul(a, b):
    """Exact product of integer matrices given as row sequences."""
    n = len(a)
    inner = len(a[0]) if n else 0
    if inner != len(b):
        raise ValueError("shape mismatch in matrix product")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("IntMatrix must have positive dimensions")
        ncols = len(rows[0])
        types = set()
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            types.update(map(type, r))
        if not all(issubclass(t, int) for t in types):
            raise TypeError("integer entries required")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        return IntMatrix([[x + y for x, y in zip(r, s)]
                          for r, s in zip(self.entries, other.entries)])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[x * other for x in r] for r in self.entries])
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(int_mat_mul(self.entries, other.entries))

    __rmul__ = __mul__

    def transpose(self):
        return IntMatrix(list(zip(*self.entries)))

    def is_square(self):
        return self.rows == self.cols

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def charpoly_division_free(a: IntMatrix) -> Poly:
    """det(t*1 - A) by the Berkowitz algorithm (no divisions).

    Coefficient list is returned lowest-degree-first as a :class:`Poly`; the
    result is monic of degree n with exact integer coefficients.
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    e = a.entries
    # work with coefficient vectors ordered highest power first:
    # after step i, c = [1, c1, ..., c_{i+1}] with
    # det(t*1 - A[:i+1,:i+1]) = t^{i+1} + c1 t^i + ...
    c = [1, -e[0][0]]
    for i in range(1, n):
        row = e[i][:i]
        col = [e[r][i] for r in range(i)]
        # s[k] = row . M^k . col for the leading i x i block M
        s = []
        v = col
        for _ in range(i):
            s.append(sum(x * y for x, y in zip(row, v)))
            v = [sum(e[r][j] * v[j] for j in range(i)) for r in range(i)]
        # first column of the (i+2) x (i+1) Toeplitz update matrix
        t0 = [1, -e[i][i]] + [-x for x in s]
        new = [0] * (i + 2)
        for r in range(i + 2):
            acc = 0
            for k in range(min(r, i) + 1):
                acc += t0[r - k] * c[k]
            new[r] = acc
        c = new
    return Poly(list(reversed(c)))


# ---------------------------------------------------------------------------
# the dense operators of the invariants battery
# ---------------------------------------------------------------------------

def toeplitz_upper(coeffs, size) -> IntMatrix:
    """The size x size upper-triangular Toeplitz matrix of a coefficient list."""
    rows = []
    for i in range(size):
        row = [0] * i + list(coeffs[: size - i])
        row += [0] * (size - len(row))
        rows.append(row)
    return IntMatrix(rows)


def euler_series(f) -> tuple:
    """The Euler series of ``f``, from a zeta polynomial built for the call."""
    return euler_matrix(f, zeta_polynomial(f))


def dense_euler_matrix(series) -> IntMatrix:
    """The Euler matrix chi, the upper Toeplitz matrix of the Euler series."""
    return toeplitz_upper(series, len(series))


def toeplitz_product_columns(w, c, sign):
    """Columns mu-1, ..., 1, 0 of sign * W C^T, W and C upper Toeplitz of w, c.

    mu = len(c) <= len(w).  (W C^T)[i][j] sums w[k-i] c[k-j] over
    max(i, j) <= k < mu, so M[i][j] = M[i+1][j+1] + w[mu-1-i] c[mu-1-j] with
    M zero at row and column mu: each column is the one to its right moved up
    by one entry plus c[mu-1-j] times the reversed w.  O(mu) memory.
    """
    mu = len(c)
    w_rev = [sign * x for x in w[mu - 1::-1]]
    col = [0] * mu
    for j in range(mu - 1, -1, -1):
        a = c[mu - 1 - j]
        col = col[1:] + [0]
        if a:
            col = [x + a * y for x, y in zip(col, w_rev)]
        yield col


def matrix_from_columns(columns) -> IntMatrix:
    """The matrix whose columns, from the last to the first, are given."""
    return IntMatrix(zip(*reversed(list(columns))))


def monodromy_matrix(f) -> IntMatrix:
    """The monodromy operator sign * W chi^T of the chain ``f``, from the
    zeta coefficients and the Euler series."""
    return matrix_from_columns(toeplitz_product_columns(
        zeta_polynomial(f).coeffs, euler_series(f), (-1) ** f.n))


def companion_matrix(zeta, f) -> IntMatrix:
    """The companion-shaped integer root of the zeta polynomial ``zeta`` of
    ``f``: first column the negated coefficients z_1..z_mu, identity
    superdiagonal.  Built after ``companion_certificate`` accepts ``zeta``,
    so a corrupted polynomial raises as it does in the library."""
    mu = companion_certificate(zeta, f)
    cp = zeta.coeffs
    rows = []
    for i in range(mu):
        row = [0] * mu
        row[0] = -cp[i + 1]
        if i + 1 < mu:
            row[i + 1] = 1
        rows.append(row)
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# dense reference routines
# ---------------------------------------------------------------------------


def _frac_rows(a):
    return [[Fraction(x) if x else 0 for x in row] for row in a]


def rref(a):
    """Reduced row echelon form by dense Gauss-Jordan elimination over the
    rationals; returns (nonzero rows, pivot column list)."""
    rows = _frac_rows(a)
    pivots = []
    if not rows:
        return rows, pivots
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv if x else 0 for x in rows[rank]]
        support = [(j, y) for j, y in enumerate(rows[rank]) if y]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f:
                row = rows[r]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def rank_rational(a) -> int:
    """Rank over the rationals of a sequence of rows of ints/Fractions."""
    return len(rref(a)[1])


def kernel_basis(a, ncols=None):
    """Basis of the right kernel {x : A x = 0}, one dense vector per free
    column of the RREF (1 there, 0 at the other free columns)."""
    rows = [list(r) for r in a]
    if ncols is None:
        if not rows:
            return []
        ncols = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis


def det_bareiss(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    m = [list(r) for r in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matrix_power(a: IntMatrix, k: int) -> IntMatrix:
    """Nonnegative power of a square matrix by binary exponentiation."""
    if not a.is_square() or k < 0:
        raise ValueError("power needs a square base and k >= 0")
    result = IntMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def det_lower_hessenberg_poly(diag_rows, superdiag, n) -> Poly:
    """The leading-principal-minor cofactor recurrence of a lower-Hessenberg
    matrix, on :class:`Poly` objects throughout: every product is a dense
    Poly product and every minor is kept to the end."""
    if n == 0:
        return Poly.one()
    last_use = {}
    for i, row in enumerate(diag_rows):
        for j in row:
            if j > i:
                raise ValueError("entry above the superdiagonal")
            last_use[j] = max(last_use.get(j, 0), i + 1)
    minors = [Poly.one()]               # minors[k] = det of leading k x k block
    tracked = {}                        # j -> product superdiag[j..k-2]
    for k in range(1, n + 1):
        for j in list(tracked):
            if last_use.get(j, 0) < k:
                del tracked[j]
            else:
                tracked[j] = tracked[j] * superdiag[k - 2]
        if last_use.get(k - 1, 0) >= k:
            tracked[k - 1] = Poly.one()
        acc = Poly.zero()
        for j, entry in diag_rows[k - 1].items():
            term = entry * tracked[j] * minors[j]
            if (k - 1 + j) % 2:
                term = -term
            acc = acc + term
        minors.append(acc)
    return minors[n]


def power_sums_by_recursion(cp_coeffs, mu, upto):
    """Power sums s_0..s_upto of the inverse roots of the polynomial with the
    coefficients ``cp_coeffs`` and degree ``mu``, by Newton's recursion on
    the coefficients."""
    support = [(i, c) for i, c in enumerate(cp_coeffs) if i >= 1 and c]
    s = [mu]
    for m in range(1, upto + 1):
        acc = 0
        for i, c in support:
            if i >= m:
                break
            acc += c * s[m - i]
        cm = cp_coeffs[m] if m < len(cp_coeffs) else 0
        s.append(-m * cm - acc)
    return s


def sparse_rank(rows) -> int:
    """Rank of a sparse rational matrix given as dicts {col: coeff}."""
    return Echelon(rows).rank


def convolve(a, b):
    """Coefficient list of the product of two coefficient lists, by the
    schoolbook double loop over every pair of positions."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def series_inverse_rational(coeffs, order):
    """Coefficients 0..order of 1/p for p given by ``coeffs`` (nonzero constant
    term), by the gather recurrence in Fractions throughout."""
    inv0 = Fraction(1) / coeffs[0]
    out = [inv0]
    for k in range(1, order + 1):
        acc = sum(coeffs[i] * out[k - i] for i in range(1, min(k, len(coeffs) - 1) + 1))
        out.append(-acc * inv0)
    return out


def alternating_product_dense(plus, minus) -> Poly:
    """prod(plus) / prod(minus) as one dense long division of the two dense
    products over the rationals; raises ExactDivisionError when the quotient
    is not a polynomial."""
    num, den = [1], [1]
    for p in plus:
        num = convolve(num, p.coeffs)
    for p in minus:
        den = convolve(den, p.coeffs)
    rem = [Fraction(c) for c in num]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(den) - 1] / den[-1]
        quot[k] = q
        for i, d in enumerate(den):
            rem[k + i] -= q * d
    if any(rem):
        raise ExactDivisionError("the alternating product is not a polynomial")
    return Poly(quot)


class SNFResult(NamedTuple):
    """Smith normal form data: U*A*V = D with U, V unimodular."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with deterministic pivoting.

    The pivot at each step is the smallest-absolute-value nonzero entry of
    the working submatrix, ties broken by lowest (row, col).  Returns
    unimodular U, V and diagonal D with a divisibility chain d1 | d2 | ...
    and nonnegative diagonal entries.
    """
    n, m = a.rows, a.cols
    M = [list(r) for r in a.entries]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, j, q):          # row_i -= q * row_j
        Mi, Mj = M[i], M[j]
        for c in range(m):
            Mi[c] -= q * Mj[c]
        Ui, Uj = U[i], U[j]
        for c in range(n):
            Ui[c] -= q * Uj[c]

    def col_op(i, j, q):          # col_i -= q * col_j
        for r in range(n):
            M[r][i] -= q * M[r][j]
        for r in range(m):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for r in range(n):
                M[r][i], M[r][j] = M[r][j], M[r][i]
            for r in range(m):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def pick_pivot(k):
        best = None
        for i in range(k, n):
            for j in range(k, m):
                x = M[i][j]
                if x:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
        return None if best is None else (best[1], best[2])

    rank_bound = min(n, m)
    for k in range(rank_bound):
        while True:
            pos = pick_pivot(k)
            if pos is None:
                break
            swap_rows(k, pos[0])
            swap_cols(k, pos[1])
            p = M[k][k]
            dirty = False
            for i in range(k + 1, n):
                if M[i][k]:
                    row_op(i, k, M[i][k] // p)
                    dirty = dirty or M[i][k] != 0
            for j in range(k + 1, m):
                if M[k][j]:
                    col_op(j, k, M[k][j] // p)
                    dirty = dirty or M[k][j] != 0
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain to hold
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, m):
                    if M[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)   # fold the offending row into row k
        if M[k][k] < 0:
            for c in range(m):
                M[k][c] = -M[k][c]
            for c in range(n):
                U[k][c] = -U[k][c]

    return SNFResult(IntMatrix(U), IntMatrix(M), IntMatrix(V))


# ---------------------------------------------------------------------------
# the general Hom route
# ---------------------------------------------------------------------------

# Memos owned by the test session: the monomial basis per degree (read by
# the naive and general routes), the dimension per folded query (A, B, degree coordinates,
# parity) and the rank of d_p per (A, B, degree coordinates, p), p = 0 or 1.
MONOMIALS: dict = {}
GENERAL_DIMS: dict = {}
GENERAL_RANKS: dict = {}


def monomials(group, degree):
    """``group.monomial_basis(degree)``, enumerated once per test session."""
    if degree not in MONOMIALS:
        MONOMIALS[degree] = group.monomial_basis(degree)
    return MONOMIALS[degree]


def cell_basis_by_t_power(F, G, l, p):
    """The cell basis of degree-l maps F -> T^p G, enumerated on the twists
    of the object t_power(G, p) itself."""
    H = t_power(G, p)
    items = []
    for comp, (src, tgt) in enumerate(((F.F0, H.F0), (F.F1, H.F1))):
        for r in range(tgt.rank):
            for c in range(src.rank):
                for exps in monomials(F.group, src.twists[c] - tgt.twists[r] + l):
                    items.append((comp, r, c, exps))
    return tuple(items), {it: i for i, it in enumerate(items)}


def differential_rows(F, G, l, p):
    """The library's rows of d_p on the degree-l cell bases of C^p and
    C^(p+1), enumerated by ``cell_basis_by_t_power``."""
    return _differential_rows(F, G, p, cell_basis_by_t_power(F, G, l, p)[0],
                              cell_basis_by_t_power(F, G, l, p + 1)[1])


def naive_hom_dim(F, G, l, p):
    """Hom dimension on the raw objects: no anchoring, no memo of ranks."""
    cells = len(cell_basis_by_t_power(F, G, l, p)[0])
    return (cells - sparse_rank(differential_rows(F, G, l, p))
            - sparse_rank(differential_rows(F, G, l, p - 1)))


def naive_dims(F, G, l, powers):
    """{p: naive_hom_dim(F, G, l, p)}, each cell basis and rank computed
    once."""
    bases = {p: cell_basis_by_t_power(F, G, l, p)
             for p in range(powers.start - 1, powers.stop + 1)}
    ranks = {p: sparse_rank(_differential_rows(F, G, p, bases[p][0], bases[p + 1][1]))
             for p in range(powers.start - 1, powers.stop)}
    return {p: len(bases[p][0]) - ranks[p] - ranks[p - 1] for p in powers}


def _general_rank(A, B, l, p):
    key = (A, B, l.coords, p)
    if key not in GENERAL_RANKS:
        GENERAL_RANKS[key] = sparse_rank(differential_rows(A, B, l, p))
    return GENERAL_RANKS[key]


def anchor(mf):
    """(mf(s), s) for s the first even twist of ``mf`` (zero for an empty
    object): the object of its twist orbit whose first even twist is zero."""
    s = mf.F0.twists[0] if mf.size else mf.group.zero
    return shift(mf, s), s


def canonical_key(source, target, degree=None):
    """The key of Hom(source, T^p target(degree)) on the anchored objects,
    formed independently of the library: (A, B, degree + s - t) for
    (A, s) = anchor(source) and (B, t) = anchor(target).  Every pair of one
    twist orbit at the same relative twist has the same key."""
    (A, s), (B, t) = anchor(source), anchor(target)
    l = degree if degree is not None else source.group.zero
    return A, B, l + s - t


def general_hom_dim(source, target, degree=None, power=0):
    """dim Hom(source, T^power target(degree)) from the full Hom complex, for
    any objects, ignoring the ``splitting`` records.

    The query is anchored by ``canonical_key`` and folded: floor(power / 2) f
    goes into the degree.  The answer is the cell count at the parity minus
    the ranks of the outgoing and incoming differentials, and both are
    memoized for the test session."""
    if not source.size or not target.size:
        return 0
    group = source.group
    A, B, l = canonical_key(source, target, degree)
    k, r = divmod(power, 2)
    l = l + k * group.total_degree
    query = (A, B, l.coords, r)
    if query not in GENERAL_DIMS:
        cells = len(cell_basis_by_t_power(A, B, l, r)[0])
        below = (l, 0) if r else (l - group.total_degree, 1)
        GENERAL_DIMS[query] = cells and (cells - _general_rank(A, B, l, r)
                                         - _general_rank(A, B, *below))
    return GENERAL_DIMS[query]


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
    """Certified power window outside which all stable Homs vanish, for any
    objects: the reference for the table's closed-form windows and for the
    window-free Euler sums.

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


class GeneralEngine(HomEngine):
    """A ``HomEngine`` whose reads the general route answers over each key's
    ``scan_window`` and one power past each end, so that a differential test
    against it also catches a Hom just outside the window: the engine's
    keys, Euler memo and table layout, with the oracle in place of the
    closed form, for any target."""

    def homs(self, key):
        lo, hi = scan_window(*key)
        dims = {p: general_hom_dim(*key, p) for p in range(lo - 1, hi + 2)}
        return {p: x for p, x in dims.items() if x}


def hom_dim(source, target, degree=None, power=0):
    """dim Hom(source, T^power target(degree)) as a one-off query on a fresh
    ``HomEngine``, on the key (source(s), target, degree + s) for s the first
    even twist of ``source``: the library's closed form, for a source that
    is a shift of a stabilization by variables and a target with the
    ``splitting`` record (``ValueError`` otherwise)."""
    if source.group is not target.group:
        raise ValueError("factorizations live over different gradings")
    A, s = anchor(source)
    key = (A, target, (degree if degree is not None else source.group.zero) + s)
    _check_key(key)
    return HomEngine().homs(key).get(power, 0)


def profiles_agree(homs, orbit, left, right) -> bool:
    """Whether two objects, each given as (object, twist), have the same Hom
    dimensions out of every probe of ``orbit`` = (base, degrees), read by
    ``homs``.  The probe base(-l) against Y(t) reads the key
    (base, Y, t + l).  Isomorphic objects agree, so this is a necessary
    condition for the cone search's certificate."""
    base, degrees = orbit
    (X, s), (Y, t) = left, right
    return all(homs.homs((base, X, s + l)) == homs.homs((base, Y, t + l)) for l in degrees)


def poly_det(entries):
    """Determinant of a nonempty square matrix of MPoly entries, by the
    Leibniz formula."""
    nvars = entries[0][0].nvars
    total = MPoly.zero(nvars)
    for perm in permutations(range(len(entries))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = MPoly(nvars, {(0,) * nvars: sign})
        for r, c in enumerate(perm):
            term = term * entries[r][c]
        total = total + term
    return total


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
# constructors only the tests use
# ---------------------------------------------------------------------------

def canonicalize(group, expr):
    """Canonical degree of an integer combination of the n+1 generators of
    ``group`` (the total-degree coefficient last)."""
    expr = tuple(expr)
    if len(expr) != group.chain.n + 1:
        raise ValueError(f"expected {group.chain.n + 1} generator coefficients")
    return group.monomial_degree(expr)


def _negated(entries):
    return tuple(tuple(-p for p in row) for row in entries)


def translate(mf):
    """Translation functor: swap the modules, negate, twist by total degree
    (trusted: it keeps the factorization identity and homogeneity by
    construction).  It drops the ``splitting`` record."""
    F1n = mf.F0.shifted(mf.group.total_degree)
    return MatrixFactorization._trusted(mf, mf.F1, F1n, _negated(mf.d1.entries),
                                        _negated(mf.d0.entries))


def t_power(mf, p):
    """T^p, using that T squared is the total-degree shift (its power -1
    inverts ``translate``)."""
    k, r = divmod(p, 2)
    out = translate(mf) if r else mf
    if k:
        out = shift(out, k * mf.group.total_degree)
    return out


def serre(mf):
    """Serre functor: n translations then the negative sum-of-variables shift."""
    group = mf.group
    n = group.chain.n
    total = sum((group.variable_degree(i) for i in range(n)), group.zero)
    return shift(t_power(mf, n), -total)


def auxiliary_object(f, i):
    """Auxiliary object i, Aux(i deg x1), through the validating
    ``stabilize``."""
    gens, cofs = auxiliary_splitting(f)
    return shift(stabilize(f, gens, cofs), i * build_grading_group(f).variable_degree(0))


def serre_dual(homs, table):
    """The Serre-dual recomputation of a table from the landings that
    ``HomRun.serre_symmetry`` compares it with: column d holds
    dim Hom(A, T^(n-p) A(-sigma - d step)) from ``homs``, sigma the sum of
    the variable degrees, over the same stored powers.  Serre duality says
    it equals the table."""
    A, step, group = table.base, table.step, table.base.group
    n = group.chain.n
    sigma = sum((group.variable_degree(i) for i in range(n)), group.zero)
    columns = {}
    for d, (window, _) in table.columns.items():
        dual = homs.homs((A, A, -sigma - d * step))
        columns[d] = (window, {p: dual[n - p] for p in table.stored(d) if n - p in dual})
    return HomTable(A, step, table.objects, table.margin, columns)


def table_pairs(table):
    mu = table.objects
    return ((i, j) for i in range(mu) for j in range(mu))


def table_entries(table):
    """{(i, j, p): dim} of a ``HomTable``, expanded pair by pair over the
    stored powers, zeros included."""
    return {(i, j, p): table.columns[j - i][1].get(p, 0) for i, j in table_pairs(table)
            for p in table.stored(j - i)}


def table_windows(table):
    """{(i, j): window} of a ``HomTable``, expanded pair by pair."""
    return {(i, j): table.columns[j - i][0] for i, j in table_pairs(table)}


def identity_morphism(mf):
    group = mf.group
    n = group.chain.n

    def eye(rank):
        return [[MPoly(n, {(0,) * n: 1}) if i == j else MPoly.zero(n)
                 for j in range(rank)] for i in range(rank)]

    phi0 = GradedMatrix(mf.F0, mf.F0, group.zero, eye(mf.F0.rank))
    phi1 = GradedMatrix(mf.F1, mf.F1, group.zero, eye(mf.F1.rank))
    return MFMorphism(mf, mf, group.zero, phi0, phi1)


def without_splitting_record(mf):
    """An object equal to ``mf`` without ``stabilize``'s record, which the
    library refuses on either side of a Hom."""
    return MatrixFactorization._trusted(mf, mf.F0, mf.F1, mf.d0.entries,
                                        mf.d1.entries)


def zero_morphism(a, b, shift_deg=None):
    group = a.group
    sh = shift_deg if shift_deg is not None else group.zero
    zero = MPoly.zero(group.chain.n)
    phi0 = GradedMatrix(a.F0, b.F0, sh, [[zero] * a.F0.rank for _ in range(b.F0.rank)])
    phi1 = GradedMatrix(a.F1, b.F1, sh, [[zero] * a.F1.rank for _ in range(b.F1.rank)])
    return MFMorphism(a, b, sh, phi0, phi1)


def parse_report(text):
    return VerificationReport.from_json_dict(json.loads(text))


def companion(f):
    """The companion-shaped root of the zeta polynomial of the chain ``f``."""
    return companion_matrix(zeta_polynomial(f), f)


def companion_power_columns(cp_coeffs, mu):
    """Columns mu-1, ..., 1, 0 of the mu-th power of the companion matrix.

    The companion sends e_{j+1} to e_j, so column j of its mu-th power is
    C^(mu-j) e_0: the orbit of e_0 yields the columns in this order.
    """
    tail = cp_coeffs[1:mu + 1]              # the first column, negated
    v = [1] + [0] * (mu - 1)
    for _ in range(mu):
        v0 = v[0]
        v = v[1:] + [0]
        if v0:
            v = [x - v0 * y for x, y in zip(v, tail)]
        yield v


def monodromy_column_difference(series, zeta, f):
    """The first entry where sign * W chi^T and C^mu differ, or None.

    Both operators are generated a column at a time, right to left, and
    compared exactly: O(mu^2) work and O(mu) memory.
    """
    mu = zeta.degree
    route_a = toeplitz_product_columns(zeta.coeffs, series, (-1) ** f.n)
    route_b = companion_power_columns(zeta.coeffs, mu)
    for k, (col_a, col_b) in enumerate(zip(route_a, route_b)):
        if col_a != col_b:
            i = next(i for i in range(mu) if col_a[i] != col_b[i])
            return {"row": i, "col": mu - 1 - k, "route_a": col_a[i], "route_b": col_b[i]}
    return None


def certificate_witness(series, zeta, f):
    """The first failure of the monodromy commutation certificate, recomputed
    from the columns of A = sign * W chi^T, or None when all conditions hold.

    With C = S - t e_0^T, t = (z_1, ..., z_mu): the last column of A is c_0 v;
    column 0 of A C - C A is u + q_0 t with u = -S A e_0 - A t and
    q_0 = A[0][0]; and q_j = A[0][j] is compared with r_j = c_{mu-j}.
    """
    mu = zeta.degree
    z, c = zeta.coeffs, series
    t = z[1:mu + 1]
    a_t = [0] * mu
    row0 = [0] * mu
    columns = toeplitz_product_columns(z, c, (-1) ** f.n)
    for j, col in zip(range(mu - 1, -1, -1), columns):
        if j == mu - 1:
            last = col
        if t[j]:
            a_t = [x + t[j] * y for x, y in zip(a_t, col)]
        row0[j] = col[0]
    first = col                                     # A e_0, yielded last
    if c[0] != 1:
        return {"condition": "c_0 = 1", "index": 0, "got": c[0], "want": 1}
    for i in range(mu):
        if last[i] != -t[i]:
            return {"condition": "v = -t", "index": i, "got": last[i], "want": -t[i]}
    shifted = first[1:] + [0]                       # S A e_0
    for i in range(mu):
        u = -shifted[i] - a_t[i]
        if u != -row0[0] * t[i]:
            return {"condition": "u + q_0 t = 0", "index": i, "got": u,
                    "want": -row0[0] * t[i]}
    for j in range(1, mu):
        if c[mu - j] != row0[j]:
            return {"condition": "r = q", "index": j, "got": c[mu - j], "want": row0[j]}
    return None


def nakayama_witness(table, a1):
    """The witness of ``nakayama_cartan`` from the pair-by-pair walk: the
    first (i, j) in row-major order whose degree-0 dimension is not the path
    algebra's, or None when every pair agrees."""
    mu = table.objects
    for i in range(mu):
        for j in range(mu):
            want = 1 if 0 <= j - i < a1 else 0
            got = table.columns[j - i][1].get(0, 0)
            if got != want:
                return {"i": i, "j": j, "got": got, "want": want}
    return None


def collection(run):
    """The objects of ``run``'s collection, built through the run."""
    return [run.collection_object(run.offset + k) for k in range(run.nm.milnor)]


def euler_reader(run):
    """(x, y) -> chi(x, y) through ``run``'s engine, on the key of
    ``canonical_key``.  Each object is anchored once, and an anchor equal to
    one of the run's bases is read as that base: the key is equal either
    way, but the engine's memo lookups then match on identity, as the run's
    own do."""
    bases = [run.base[0]]
    bases += [run.aux_base] if run.f.n % 2 == 0 else run.ladder_bases.values()
    shared, anchors = {b: b for b in bases}, {}

    def anchored(x):
        if x not in anchors:
            A, s = anchor(x)
            anchors[x] = shared.get(A, A), s
        return anchors[x]

    def euler(x, y):
        (A, s), (B, t) = anchored(x), anchored(y)
        return run.homs.euler_at((A, B, s - t))
    return euler


def ladder_terms(run, i, j):
    """The width-j ladder triangle of row i: its source, two middle objects
    and cone, signed."""
    return [(1, run.ladder(i + 1, j)), (-1, run.ladder(i, j + 1)),
            (-1, run.ladder(i + 1, j - 1)), (1, run.ladder(i, j))]


def triangle_cases(run):
    """The failing cases of ``triangle_euler_additivity`` from the loop over
    every triangle k and every probe of ``run``'s collection, in that order,
    each total read through the run's engine."""
    mu, coll, euler, bad = run.nm.milnor, collection(run), euler_reader(run), []
    for k in range(1, mu):
        i = run.offset + k
        aux = run.auxiliary(i)
        for x in coll:
            total = euler(x, coll[k - 1]) - euler(x, coll[k]) + euler(x, aux)
            if total != 0:
                bad.append({"i": i, "total": total})
    return bad


def _ladder_rows(run):
    return range(run.offset, run.offset + min(run.nm.milnor - 1, 3))


def _ladder_object_total(euler, terms, x):
    """The Euler total of a ladder triangle, given as its signed objects,
    against the probe x, zero objects left out."""
    return sum(sgn * euler(x, obj) for sgn, obj in terms if obj.size)


def ladder_cases(run):
    """The failing cases of ``ladder_euler_additivity`` from the loop over
    the checked rows i, the widths j < a1 and every probe of ``run``'s
    collection, in that order, on the ladder objects themselves, each total
    read through the run's engine."""
    coll, euler, bad = collection(run), euler_reader(run), []
    for i in _ladder_rows(run):
        for j in range(1, run.f.exponents[0]):
            terms = ladder_terms(run, i, j)
            for x in coll:
                total = _ladder_object_total(euler, terms, x)
                if total != 0:
                    bad.append({"i": i, "j": j, "total": total})
    return bad


def ladder_boundary_outcome(run):
    """(status, witness) of ``ladder_boundary_width_a1`` from the same loop
    at width a1, with the class sum of the collection objects E_i..E_{i+a1}:
    ("fail", {"cases": mismatches}) when a total differs from its class sum,
    otherwise ("pass", None) when every total is zero and ("note", None)
    when one is not."""
    a1, mismatches, holds = run.f.exponents[0], [], True
    coll, euler = collection(run), euler_reader(run)
    for i in _ladder_rows(run):
        terms = ladder_terms(run, i, a1)
        classes = [run.collection_object(i + k) for k in range(a1 + 1)]
        for x in coll:
            total = _ladder_object_total(euler, terms, x)
            predicted = sum(euler(x, e) for e in classes)
            holds = holds and total == 0
            if total != predicted:
                mismatches.append({"i": i, "total": total, "predicted": predicted})
    if mismatches:
        return "fail", {"cases": mismatches}
    return ("pass" if holds else "note"), None


def exceptionality_failures(entries):
    """The failure list of ``check_exceptionality``, recomputed entry by entry
    over an expanded {(i, j, p): dim} table, in the table's (i, j, p) order."""
    failures = []
    for (i, j, p), d in entries.items():
        if i == j and d != (1 if p == 0 else 0):
            failures.append({"i": i, "j": j, "p": p, "dim": d,
                             "reason": "endomorphisms not scalar"})
        elif i > j and d != 0:
            failures.append({"i": i, "j": j, "p": p, "dim": d,
                             "reason": "backwards morphism"})
    return failures
