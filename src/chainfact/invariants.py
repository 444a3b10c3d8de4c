"""Numerical invariants of a chain polynomial and their exact identities.

Everything revolves around the degree-mu polynomial

    z(t) = prod_i (1 - t^{d_i})^{+-1}        (alternating exponents)

whose truncated series inverse fills the upper-triangular Toeplitz Euler
matrix.  From that one matrix the module derives the companion root, the
K-theory monodromy operator (computed along two independent routes and
cross-checked), its characteristic polynomial and cyclotomic-style
factorization, the lattice-correspondence congruence, and an independent
weighted-homogeneous oracle for the transposed polynomial's monodromy.

All computations are exact; any failed identity raises
:class:`VerificationFailure` carrying the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .chain import (
    ChainPolynomial,
    TransposeData,
    VerificationFailure,
    build_grading_group,
    numerics,
)
from .exactmath import (
    IntMatrix,
    Poly,
    alternating_product,
    charpoly_division_free,
    det_lower_hessenberg,
    poly_div_exact,
    series_inverse,
)

# below this size the trace-based characteristic polynomial is additionally
# cross-checked against the division-free (Berkowitz) one on the raw matrix
DIRECT_CHARPOLY_LIMIT = 16


@dataclass(frozen=True)
class ZetaPolynomial:
    """The alternating product polynomial with its palindrome data."""

    chain: ChainPolynomial
    poly: Poly

    @property
    def coefficients(self) -> tuple:
        return self.poly.coeffs

    @property
    def milnor(self) -> int:
        return self.poly.degree


@lru_cache(maxsize=64)
def zeta_polynomial(f: ChainPolynomial) -> ZetaPolynomial:
    """Exact alternating product over the cumulative-degree circle factors.

    Every division step must be exact; the result is validated against the
    degree formula and the sign-twisted palindrome symmetry.
    """
    nm = numerics(f)
    n = f.n
    plus, minus = [], []
    for i in range(n + 1):
        factor = Poly.one_minus_power(nm.cum_products[i])
        (plus if (-1) ** (n - i) == 1 else minus).append(factor)
    poly = alternating_product(plus, minus)
    mu = nm.milnor
    if poly.degree != mu or poly.coeff(0) != 1:
        raise VerificationFailure("alternating product has wrong degree or unit",
                                  {"poly": poly.coeffs, "milnor": mu})
    sign = (-1) ** (n + 1)
    for i in range(mu + 1):
        if poly.coeff(mu - i) != sign * poly.coeff(i):
            raise VerificationFailure("palindrome symmetry failed",
                                      {"poly": poly.coeffs, "index": i})
    if any(isinstance(c, Fraction) for c in poly.coeffs):
        raise VerificationFailure("non-integer coefficient in alternating product")
    return ZetaPolynomial(f, poly)


@dataclass(frozen=True)
class EulerMatrix:
    """Upper-triangular Toeplitz matrix of truncated inverse-series coefficients."""

    chain: ChainPolynomial
    matrix: IntMatrix
    series_coeffs: tuple[int, ...]

    def entry(self, i: int, j: int) -> int:
        return self.series_coeffs[j - i] if 0 <= j - i < len(self.series_coeffs) else 0


def _toeplitz_upper(coeffs, size) -> IntMatrix:
    rows = []
    for i in range(size):
        row = [0] * i + list(coeffs[: size - i])
        row += [0] * (size - len(row))
        rows.append(row)
    return IntMatrix(rows)


@lru_cache(maxsize=16)
def euler_matrix(f: ChainPolynomial) -> EulerMatrix:
    """Toeplitz matrix of the series inverse, cross-checked two ways.

    The inverse series is verified (a) against the alternating product in the
    truncated series ring, mirroring the nilpotent-matrix product formula,
    and (b) by convolving back against the zeta polynomial.
    """
    zp = zeta_polynomial(f)
    nm = numerics(f)
    mu = nm.milnor
    inv = series_inverse(zp.poly, mu - 1)
    coeffs = tuple(inv.coeff(k) for k in range(mu))
    if any(isinstance(c, Fraction) for c in coeffs):
        raise VerificationFailure("inverse series not integral", {"coeffs": coeffs})

    # route check 1: convolution with the zeta polynomial is 1 mod t^mu
    if (zp.poly * inv).truncate(mu - 1) != Poly.one():
        raise VerificationFailure("series inverse failed convolution check")
    # route check 2: the product formula with inverted exponents, truncated
    n = f.n
    pos, neg = Poly.one(), Poly.one()
    for i in range(n + 1):
        factor = Poly.one_minus_power(nm.cum_products[i])
        if (-1) ** (n - i + 1) == 1:
            pos = (pos * factor).truncate(mu - 1)
        else:
            neg = (neg * factor).truncate(mu - 1)
    if (neg * inv).truncate(mu - 1) != pos:
        raise VerificationFailure("product formula mismatch for the Euler matrix",
                                  {"series": coeffs})
    return EulerMatrix(f, _toeplitz_upper(coeffs, mu), coeffs)


def companion_matrix(zp: ZetaPolynomial) -> IntMatrix:
    """Companion-shaped integer root of the zeta polynomial.

    First column carries the negated coefficients, the superdiagonal is the
    identity block; det(1 - t*M) is recomputed by a sparse Hessenberg
    cofactor expansion and must reproduce the zeta polynomial.
    """
    cp = zp.poly.coeffs
    mu = zp.milnor
    rows = []
    for i in range(mu):
        row = [0] * mu
        row[0] = -cp[i + 1]
        if i + 1 < mu:
            row[i + 1] = 1
        rows.append(row)
    m1 = IntMatrix(rows)

    diag_rows = [{0: Poly((1, cp[1]))}]
    for i in range(1, mu):
        row = {i: Poly.one()}
        if cp[i + 1]:
            row[0] = Poly((0, cp[i + 1]))
        diag_rows.append(row)
    superdiag = [Poly((0, -1))] * (mu - 1)
    det = det_lower_hessenberg(diag_rows, superdiag, mu)
    if det != zp.poly:
        raise VerificationFailure("companion matrix does not root the zeta polynomial",
                                  {"det": det.coeffs, "zeta": cp})
    return m1


@dataclass(frozen=True)
class MonodromyData:
    """The K-theory monodromy operator and its characteristic data.

    ``matrix`` is the signed triangular-Toeplitz product, verified equal to
    the ``milnor``-th power of ``companion``; ``det_one_minus_t`` is
    det(1 - t * matrix); ``gcd_exponents`` are gcd(d_i, milnor).
    """

    chain: ChainPolynomial
    companion: IntMatrix
    matrix: IntMatrix
    det_one_minus_t: Poly
    gcd_exponents: tuple[int, ...]


def _companion_power_full(cp_coeffs, mu) -> IntMatrix:
    """The mu-th power of the companion matrix by iterated application.

    Column j of the power is the image of the first basis vector under
    mu - j applications (the remaining columns shift), so one vector orbit
    of length mu determines the whole matrix.
    """
    first_col_orbit = [[1 if i == 0 else 0 for i in range(mu)]]
    v = first_col_orbit[0]
    for _ in range(mu):
        v = [-cp_coeffs[i + 1] * v[0] + (v[i + 1] if i + 1 < mu else 0)
             for i in range(mu)]
        first_col_orbit.append(v)
    return IntMatrix([[first_col_orbit[mu - j][i] for j in range(mu)]
                      for i in range(mu)])


def _power_sums(cp_coeffs, mu, upto):
    """Power sums of the inverse roots of the zeta polynomial, s_1..s_upto."""
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


def _det_one_minus_t_via_traces(cp_coeffs, mu, period) -> Poly:
    """det(1 - t*M) for M the mu-th companion power, by Newton's identities.

    Eigenvalues are roots of unity of order dividing ``period`` (the top
    cumulative degree), so the trace sequence is periodic; the traces of the
    power are samples of the companion trace sequence at multiples of mu.
    """
    s = _power_sums(cp_coeffs, mu, period + 3)
    if s[period] != mu or s[period + 1] != s[1] or s[period + 2] != s[2]:
        raise VerificationFailure("trace sequence is not period-locked",
                                  {"period": period, "head": s[:3],
                                   "tail": s[period:period + 3]})
    traces = []
    for k in range(1, mu + 1):
        e = (k * mu) % period
        traces.append(s[e] if e else s[period])
    b = [1]
    for m in range(1, mu + 1):
        acc = traces[m - 1]
        for k in range(1, m):
            acc += traces[k - 1] * b[m - k]
        q, r = divmod(-acc, m)
        if r:
            raise VerificationFailure("non-integral Newton coefficient",
                                      {"index": m, "value": -acc})
        b.append(q)
    return Poly(b)


def monodromy_data(f: ChainPolynomial) -> MonodromyData:
    """Monodromy operator computed along two routes and cross-checked.

    Route one inverts the Euler matrix inside the triangular Toeplitz algebra
    and multiplies by the transpose; route two powers the companion matrix.
    Any disagreement aborts with both matrices as witnesses.
    """
    zp = zeta_polynomial(f)
    em = euler_matrix(f)
    nm = numerics(f)
    mu = nm.milnor
    n = f.n
    m1 = companion_matrix(zp)

    inv_toeplitz = _toeplitz_upper(zp.poly.coeffs[:mu], mu)
    if inv_toeplitz * em.matrix != IntMatrix.identity(mu):
        raise VerificationFailure("zeta Toeplitz matrix is not the Euler inverse")
    route_a = inv_toeplitz * em.matrix.transpose()
    if n % 2:
        route_a = -route_a
    route_b = _companion_power_full(zp.poly.coeffs, mu)
    if route_a != route_b:
        raise VerificationFailure(
            "signed inverse-transpose product disagrees with the companion power",
            {"route_a": route_a.entries, "route_b": route_b.entries})

    period = nm.cum_products[-1]
    det1mt = _det_one_minus_t_via_traces(zp.poly.coeffs, mu, period)
    if mu <= DIRECT_CHARPOLY_LIMIT:
        direct = charpoly_division_free(route_a).reversal(mu)
        if direct != det1mt:
            raise VerificationFailure("trace-based charpoly disagrees with Berkowitz",
                                      {"traces": det1mt.coeffs, "direct": direct.coeffs})
    exps = tuple(gcd(nm.cum_products[i], mu) for i in range(n + 1))
    return MonodromyData(f, m1, route_a, det1mt, exps)


def check_zeta_factorization(md: MonodromyData, f: ChainPolynomial) -> bool:
    """Whether det(1 - t*M) equals the gcd-exponent circle-factor product."""
    nm = numerics(f)
    n = f.n
    plus, minus = [], []
    for i in range(n + 1):
        e = md.gcd_exponents[i]
        factor = Poly.one_minus_power(nm.cum_products[i] // e)
        target = plus if (-1) ** (n - i) == 1 else minus
        target.extend([factor] * e)
    product = alternating_product(plus, minus)
    return product == md.det_one_minus_t


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> Poly:
    """The q-th cyclotomic polynomial, by exact divisor recursion."""
    if q < 1:
        raise ValueError("order must be positive")
    num = Poly((-1,) + (0,) * (q - 1) + (1,))     # t^q - 1
    den = Poly.one()
    for r in range(1, q):
        if q % r == 0:
            den = den * cyclotomic_polynomial(r)
    return poly_div_exact(num, den)


def transpose_monodromy_charpoly(td: TransposeData) -> Poly:
    """Monodromy characteristic polynomial via weighted-homogeneous exponents.

    The graded Milnor-algebra generating function is evaluated as one exact
    quotient; each graded piece contributes eigenvalues that are roots of
    unity read off from its normalized degree.  Galois invariance of the
    multiset is enforced before assembling cyclotomic factors.
    """
    D = td.degree
    num, den = [], []
    for w in td.weights:
        num.append(Poly((-1,) + (0,) * (D - w - 1) + (1,)))   # t^(D-w) - 1
        den.append(Poly((-1,) + (0,) * (w - 1) + (1,)))       # t^w - 1
    poincare = alternating_product(num, den)
    if any(isinstance(c, Fraction) or c < 0 for c in poincare.coeffs):
        raise VerificationFailure("Poincare product has non-admissible coefficients",
                                  {"coeffs": poincare.coeffs})
    shift = sum(td.weights)
    counts: dict[int, dict[int, int]] = {}
    for k, mk in enumerate(poincare.coeffs):
        if mk <= 0:
            continue
        r = (k + shift) % D
        p, q = (r // gcd(r, D), D // gcd(r, D)) if r else (0, 1)
        bucket = counts.setdefault(q, {})
        bucket[p] = bucket.get(p, 0) + mk
    result = Poly.one()
    for q, residues in sorted(counts.items()):
        expected = [p for p in range(q) if gcd(p, q) == 1] if q > 1 else [0]
        mults = {residues.get(p, 0) for p in expected}
        if len(mults) != 1 or set(residues) - set(expected):
            raise VerificationFailure("exponent multiset is not Galois-invariant",
                                      {"order": q, "residues": residues})
        m = mults.pop()
        cyc = cyclotomic_polynomial(q)
        for _ in range(m):
            result = result * cyc
    return result


def check_lattice_correspondence(em: EulerMatrix, f: ChainPolynomial) -> bool:
    """Unimodularity plus the intersection-form change-of-basis congruence.

    With W the verified triangular-Toeplitz inverse of the Euler matrix,
    checks W (chi + chi^T) W^T == W + W^T by honest matrix products.
    """
    chi = em.matrix
    mu = chi.rows
    for i in range(mu):
        if chi[i, i] != 1:
            raise VerificationFailure("Euler matrix diagonal is not 1")
        for j in range(i):
            if chi[i, j] != 0:
                raise VerificationFailure("Euler matrix is not upper triangular")
    zp = zeta_polynomial(f)
    w = _toeplitz_upper(zp.poly.coeffs[:mu], mu)
    if w * chi != IntMatrix.identity(mu):
        raise VerificationFailure("candidate inverse fails against the Euler matrix")
    sym = chi + chi.transpose()
    lhs = (w * sym) * w.transpose()
    rhs = w + w.transpose()
    if lhs != rhs:
        raise VerificationFailure("lattice congruence failed",
                                  {"lhs": lhs.entries, "rhs": rhs.entries})
    return True


def polarization_integer(f: ChainPolynomial) -> int:
    """The twist count aligning the Serre functor with the variable shift.

    Solves k * (total degree) = -(sum of variable degrees) - sign * mu * x1
    in the grading group; the free coordinate pins k uniquely because the
    total-degree symbol has positive weight, and the full coordinate vector
    is then verified exactly.
    """
    g = build_grading_group(f)
    mu = numerics(f).milnor
    sign = 1 if f.n % 2 else -1
    target = sign * mu * g.variable_degree(0)
    rhs = -sum((g.variable_degree(i) for i in range(f.n)), g.zero) - target
    d = g.total_degree.weight
    kw = rhs.weight
    if kw % d:
        raise VerificationFailure("no integral polarization solution",
                                  {"weight": kw, "degree": d})
    k = kw // d
    if not (k * g.total_degree - rhs).is_zero():
        raise VerificationFailure("polarization candidate fails torsion coordinates",
                                  {"k": k})
    return k
