"""Numerical invariants of a chain polynomial and their exact identities.

Everything revolves around the degree-mu polynomial

    z(t) = prod_i (1 - t^{d_i})^{+-1}        (alternating exponents)

and its series inverse c = 1/z mod t^mu.  The Euler matrix chi and W are the
upper-triangular Toeplitz matrices of c and z; such matrices multiply as
series truncated at t^mu, so the battery works on the series: W chi = I is
z c == 1 mod t^mu, the lattice congruence follows from it, and the monodromy
operator sign * W chi^T is certified equal to the mu-th power of the companion
root by a commutation certificate, sparse convolutions of z and c, without
building either operator.  The module also derives the characteristic
polynomial, its cyclotomic-style factorization, and an independent
weighted-homogeneous oracle for the transposed polynomial's monodromy.
No mu x mu matrix is built; the dense operators are test oracles only.

Each function is a plain function of the values it reads, and nothing here
is memoized: a run (``verify._Run``) owns the zeta polynomial, the Euler
series and the monodromy data, computes each once and passes them in.  The
one recomputation is deliberate: ``companion_certificate`` rebuilds the
zeta polynomial from the chain to compare it with the one it is given.

All computations are exact; any failed identity raises
:class:`VerificationFailure` carrying the witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from .chain import (
    ChainPolynomial,
    TransposeData,
    VerificationFailure,
    build_grading_group,
    numerics,
)
from .series import (
    Poly,
    alternating_product,
    det_lower_hessenberg,
    series_inverse,
)


def zeta_polynomial(f: ChainPolynomial) -> Poly:
    """z(t), the exact alternating product over the cumulative-degree circle
    factors.

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
    return poly


def euler_matrix(f: ChainPolynomial, zeta: Poly) -> tuple[int, ...]:
    """The Euler series c = 1/z mod t^mu of the zeta polynomial ``zeta``,
    the first row of the upper-triangular Toeplitz Euler matrix chi,
    cross-checked two ways.

    The inverse series is verified (a) against the alternating product in the
    truncated series ring, mirroring the nilpotent-matrix product formula,
    and (b) by convolving back against the zeta polynomial.
    """
    nm = numerics(f)
    mu = nm.milnor
    inv = series_inverse(zeta, mu - 1)
    coeffs = tuple(inv.coeff(k) for k in range(mu))
    if any(isinstance(c, Fraction) for c in coeffs):
        raise VerificationFailure("inverse series not integral", {"coeffs": coeffs})

    # route check 1: convolution with the zeta polynomial is 1 mod t^mu
    if (zeta * inv).truncate(mu - 1) != Poly.one():
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
    return coeffs


def companion_certificate(zeta: Poly, f: ChainPolynomial) -> int:
    """Certify that the companion-shaped matrix roots the zeta polynomial.

    det(1 - t*M) of the companion shape of ``zeta`` (first column the negated
    coefficients, identity superdiagonal) is recomputed by a sparse
    Hessenberg cofactor expansion.  It must reproduce both ``zeta`` and the
    zeta polynomial of ``f`` rebuilt here from the chain, so a corrupted
    coefficient fails even though M was built from it.  Needs only the
    coefficients, not the dense matrix; returns its size mu.
    """
    cp = zeta.coeffs
    mu = zeta.degree
    one = Poly.one()
    diag_rows = [{0: Poly((1, cp[1]))}]
    for i in range(1, mu):
        row = {i: one}
        if cp[i + 1]:
            row[0] = Poly((0, cp[i + 1]))
        diag_rows.append(row)
    superdiag = [Poly((0, -1))] * (mu - 1)
    det = det_lower_hessenberg(diag_rows, superdiag, mu)
    chain_zeta = zeta_polynomial(f)
    if det != zeta or det != chain_zeta:
        raise VerificationFailure("companion matrix does not root the zeta polynomial",
                                  {"det": det.coeffs, "zeta": cp,
                                   "chain_zeta": chain_zeta.coeffs})
    return mu


def check_monodromy_routes(series: tuple[int, ...], zeta: Poly,
                           f: ChainPolynomial) -> bool:
    """Certify sign * W chi^T == C^mu, C the companion root, without either matrix.

    Notation: S is the shift with S e_{j+1} = e_j, z = (z_0, ..., z_mu) the
    coefficients of ``zeta``, c = (c_0, ..., c_{mu-1}) the Euler ``series``,
    and t = (z_1, ..., z_mu).  Then C = S - t e_0^T, W = z(S),
    chi^T = c(S^T) and A = sign * W chi^T with sign = (-1)^n, n = ``f.n``.

    The check is a certificate resting on the commutant theorem, not a
    second computation of the matrix: C e_{j+1} = e_j, so e_{mu-1} is a
    cyclic vector of C and e_j = C^(mu-1-j) e_{mu-1}.  Hence any A with
    A C = C A and A e_{mu-1} = C^mu e_{mu-1} = C e_0 = -t satisfies

        A e_j = C^(mu-1-j) A e_{mu-1} = C^(mu-1-j) C^mu e_{mu-1} = C^mu e_j.

    W commutes with S, and S^T S = I - e_0 e_0^T, S S^T = I - e_{mu-1}
    e_{mu-1}^T give c(S^T) S - S c(S^T) = -c+ e_0^T + e_{mu-1} r^T, so

        A C - C A = u e_0^T + v r^T + t q^T,

    with c+ = (c_1, ..., c_{mu-1}, 0), r = (0, c_{mu-1}, ..., c_1),
    u = -sign * W (c+ + chi^T t), v = sign * W e_{mu-1} (v_i = sign *
    z_{mu-1-i}) and q = A^T e_0 = sign * chi (z_0, ..., z_{mu-1}).  As
    A e_{mu-1} = c_0 v, the certificate is, in this order:

    1. ``c_0 = 1`` and ``v = -t``: the last column of A is -t;
    2. ``u + q_0 t = 0``: column 0 of the displacement vanishes.

    With v = -t, column j >= 1 of the displacement is t (q_j - r_j), so the
    two conditions leave it t w^T with w_0 = 0.  Then tr((A C - C A) p(C))
    = 0 gives w^T p(C) t = 0 for every polynomial p, and t = -C^mu e_{mu-1}
    is a cyclic vector of C, which is invertible as z_mu, the leading
    coefficient, is nonzero.  So w = 0, A C = C A, and the conditions imply
    A = C^mu; the statement r = q of columns 1..mu-1 needs no check, and of
    q only q_0 is formed.  Conversely A = C^mu forces them once z_0 = 1 and
    z_mu = -sign (so c_0 = 1 and t != 0), which the palindrome check of
    :func:`zeta_polynomial` guarantees.  z and c are sparse, so each product
    is a sparse convolution: O(nnz(z) nnz(c) + mu) in all.  The witness
    names the failed condition, its first failing index, and the two sides
    there.
    """
    mu = zeta.degree
    c = series
    if len(c) != mu:
        raise VerificationFailure("Euler series length differs from mu",
                                  {"length": len(c), "milnor": mu})
    z = zeta.coeffs
    sign = (-1) ** f.n

    def fail(condition, index, got, want):
        raise VerificationFailure(
            "signed inverse-transpose product is not the companion power",
            {"condition": condition, "index": index, "got": got, "want": want})

    if c[0] != 1:
        fail("c_0 = 1", 0, c[0], 1)
    for i in range(mu):
        if sign * z[mu - 1 - i] != -z[i + 1]:
            fail("v = -t", i, sign * z[mu - 1 - i], -z[i + 1])

    zs = [(k, x) for k, x in enumerate(z) if x]
    cs = [(k, x) for k, x in enumerate(c) if x]
    q0 = sign * sum(ca * z[a] for a, ca in cs)      # q_0 = sign * (chi z)_0
    y: dict[int, int] = {}          # y = c+ + chi^T t, y_i = c_{i+1} + sum c_a z_{i+1-a}
    for a, ca in cs:
        if a:
            y[a - 1] = y.get(a - 1, 0) + ca
        for k, zk in zs:
            if k and a + k <= mu:
                y[a + k - 1] = y.get(a + k - 1, 0) + ca * zk
    u: dict[int, int] = {}          # u / -sign = W y, (W y)_i = sum_{k >= i} z_{k-i} y_k
    for k, yk in y.items():
        if yk:
            for d, zd in zs:
                if d > k:
                    break
                u[k - d] = u.get(k - d, 0) + zd * yk

    for i in range(mu):
        ui = -sign * u.get(i, 0)
        if ui != -q0 * z[i + 1]:
            fail("u + q_0 t = 0", i, ui, -q0 * z[i + 1])
    return True


def _power_sums(cum_products, upto):
    """Power sums s_0..s_upto of the inverse roots of the zeta polynomial.

    z = prod_i (1 - t^{d_i})^{e_i}, d_i = ``cum_products[i]``, e_i = (-1)^{n-i},
    and -t z'/z = sum_m s_m t^m give s_m = sum_i e_i d_i [d_i | m], s_0 = mu.
    :func:`zeta_polynomial` builds z's coefficients as exactly this product,
    so the certificate, which reads them, keeps its strength."""
    n = len(cum_products) - 1
    terms = [((-1) ** (n - i) * d, d) for i, d in enumerate(cum_products)]
    return [sum(c for c, d in terms if m % d == 0) for m in range(upto + 1)]


def _det_one_minus_t_via_traces(cum_products, mu, period) -> Poly:
    """det(1 - t*M) for M the mu-th companion power, by Newton's identities.

    Eigenvalues are roots of unity of order dividing ``period`` (the top
    cumulative degree), so the trace sequence is periodic; the traces of the
    power are samples of the companion trace sequence at multiples of mu.
    The Newton recurrence runs over the nonzero coefficients found so far,
    which are few: det(1 - t*M) is an alternating product of circle factors,
    with 98 nonzero coefficients out of 2102 on 7,7,7,7.
    """
    s = _power_sums(cum_products, period + 3)
    if s[period] != mu or s[period + 1] != s[1] or s[period + 2] != s[2]:
        raise VerificationFailure("trace sequence is not period-locked",
                                  {"period": period, "head": s[:3],
                                   "tail": s[period:period + 3]})
    traces = []
    for k in range(1, mu + 1):
        e = (k * mu) % period
        traces.append(s[e] if e else s[period])
    # m b_m = -(p_m + sum_{0<j<m} p_{m-j} b_j), summed over the nonzero b_j only
    b = [1]
    support = []                        # (j, b_j) for the nonzero b_j, j >= 1
    for m in range(1, mu + 1):
        acc = traces[m - 1]
        for j, bj in support:
            acc += traces[m - j - 1] * bj
        q, r = divmod(-acc, m)
        if r:
            raise VerificationFailure("non-integral Newton coefficient",
                                      {"index": m, "value": -acc})
        b.append(q)
        if q:
            support.append((m, q))
    return Poly(b)


def monodromy_data(f: ChainPolynomial, zeta: Poly,
                   series: tuple[int, ...]) -> tuple[Poly, tuple[int, ...]]:
    """The K-theory monodromy operator M = sign * W chi^T, certified, and its
    characteristic data (det(1 - t*M), the gcd exponents gcd(d_i, mu)).

    :func:`check_monodromy_routes` certifies M == C^mu on the given zeta
    polynomial and Euler series, and det(1 - t*M) follows from its traces by
    Newton's identities; a run checks it against
    :func:`check_zeta_factorization` and the transpose oracle.
    """
    nm = numerics(f)
    mu = nm.milnor
    check_monodromy_routes(series, zeta, f)
    period = nm.cum_products[-1]
    det1mt = _det_one_minus_t_via_traces(nm.cum_products, mu, period)
    return det1mt, tuple(gcd(d, mu) for d in nm.cum_products)


def check_zeta_factorization(det_one_minus_t: Poly, gcd_exponents: tuple[int, ...],
                             f: ChainPolynomial) -> bool:
    """Whether det(1 - t*M) equals the gcd-exponent circle-factor product."""
    nm = numerics(f)
    n = f.n
    plus, minus = [], []
    for i in range(n + 1):
        e = gcd_exponents[i]
        factor = Poly.one_minus_power(nm.cum_products[i] // e)
        target = plus if (-1) ** (n - i) == 1 else minus
        target.extend([factor] * e)
    product = alternating_product(plus, minus)
    return product == det_one_minus_t


def cyclotomic_polynomial(q: int) -> Poly:
    """The q-th cyclotomic polynomial by the Möbius product

        Phi_q = prod over squarefree d | q of (t^(q/d) - 1)^((-1)^k),

    k the number of primes of d, read over the subsets of q's prime
    divisors: sparse factors, exact divisions and no recursion."""
    if q < 1:
        raise ValueError("order must be positive")
    primes, rest, p = [], q, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    plus, minus = [], []
    for k in range(len(primes) + 1):
        for subset in combinations(primes, k):
            e = q // prod(subset)
            (minus if k % 2 else plus).append(Poly((-1,) + (0,) * (e - 1) + (1,)))
    return alternating_product(plus, minus)


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


def check_lattice_correspondence(series: tuple[int, ...], zeta: Poly) -> bool:
    """Unimodularity plus the intersection-form change-of-basis congruence.

    With W and chi the upper Toeplitz matrices of the coefficients of
    ``zeta`` and of the Euler ``series``, the congruence
    W (chi + chi^T) W^T == W + W^T follows from W chi = I, since

        W (chi + chi^T) W^T - (W + W^T) = (W chi - I) W^T + W (W chi - I)^T.

    Upper Toeplitz matrices of size mu multiply as series truncated at t^mu,
    so W chi = I is z * c == 1 mod t^mu, checked by one convolution.  As
    z_0 = 1, its constant term is c_0 = 1: chi is unitriangular, so unimodular.
    """
    mu = zeta.degree
    if len(series) != mu:
        raise VerificationFailure("Euler series length differs from mu",
                                  {"length": len(series), "milnor": mu})
    product = (zeta * Poly(series)).truncate(mu - 1)
    if product != Poly.one():
        k = next(k for k in range(mu) if product.coeff(k) != (k == 0))
        raise VerificationFailure("zeta Toeplitz matrix is not the Euler inverse",
                                  {"index": k, "coefficient": product.coeff(k)})
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
