"""Univariate polynomials and power series with exact coefficients.

The invariants battery works on the series of a chain polynomial, and this
module is its arithmetic.  Coefficients are Python ints or
``fractions.Fraction``; no routine touches floating point.  It provides:

  * ``Poly``      -- dense univariate polynomials, immutable and hashable.
                     Products and divisions loop over nonzero terms only, in
                     integer arithmetic while the coefficients stay integral,
                     so a sparse factor such as 1 - t^a costs time linear in
                     the degree;
  * ``series_inverse``, ``poly_divmod``, ``poly_div_exact`` and
    ``alternating_product`` -- truncated power-series inversion, Euclidean
                     and exact division, and exact quotients of products of
                     factors, raising :class:`ExactDivisionError` on a
                     remainder;
  * ``det_lower_hessenberg`` -- the determinant of a sparse lower-Hessenberg
                     matrix of polynomials, by the principal-minor recurrence
                     on sparse {exponent: coeff} dicts.

No matrix is built.  The multivariate polynomials and the exact elimination
of the Hom engine live in ``exactmath``; neither module imports the other,
so the battery loads no elimination and the Hom engine no series.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import _norm_num


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


_INT = frozenset((int,))


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial with exact (int/Fraction) coefficients.

    Coefficients are indexed by exponent; trailing zeros are stripped so the
    leading coefficient is nonzero unless the polynomial is zero.  Instances
    are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if not _INT.issuperset(map(type, cs)):     # int-only input needs no pass
            cs = [_norm_num(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def one_minus_power(cls, k):
        """1 - t^k."""
        return cls((1,) + (0,) * (k - 1) + (-1,))

    @property
    def degree(self):
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        terms_b = _terms(b)
        for i, x in _terms(a):
            for j, y in terms_b:
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def truncate(self, order):
        """Drop all terms of exponent > order."""
        return Poly(self.coeffs[: order + 1])

    def reversal(self, n):
        """t^n * p(1/t); requires n >= degree."""
        if n < self.degree:
            raise ValueError("reversal order below degree")
        rev = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            rev[n - i] = c
        return Poly(rev)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def _terms(coeffs):
    """The nonzero (exponent, coefficient) pairs of a dense coefficient list."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def series_inverse(p: Poly, order: int) -> Poly:
    """Truncated inverse q with p*q == 1 mod t^(order+1).

    Requires p(0) != 0; coefficients are exact rationals (ints whenever the
    constant term is a unit).  An integer p with constant term +-1, as every
    zeta polynomial, is inverted in plain ints: 1/c0 == c0.
    """
    if p.is_zero() or p.coeff(0) == 0:
        raise ExactDivisionError("series inverse needs a nonzero constant term")
    c0 = p.coeff(0)
    unit = c0 in (1, -1) and _INT.issuperset(map(type, p.coeffs))
    inv0 = c0 if unit else Fraction(1, 1) / c0
    support = [(i, c) for i, c in enumerate(p.coeffs) if i and c]
    # c0 out_k = [k == 0] - acc_k with acc_k = sum_{i >= 1} p_i out_{k-i}; each
    # nonzero out_k is pushed into the acc_k ahead, so the cost is
    # O(order + nnz(out) nnz(p)), and zeta inverses are sparse
    out = [0] * (order + 1)
    acc = [0] * (order + 1)
    acc[0] = -1
    for k in range(order + 1):
        q = -acc[k] * inv0
        if not unit:
            q = _norm_num(q)
        if q:
            out[k] = q
            for i, c in support:
                if k + i > order:
                    break
                acc[k + i] += c * q
    return Poly(out)


def poly_divmod(num: Poly, den: Poly):
    """Euclidean division over the rationals: num = den*q + r, deg r < deg den."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coeffs)
    dd = den.degree
    lead = den.coeffs[-1]
    tail = _terms(den.coeffs[:-1])
    int_lead = type(lead) is int
    q = [0] * max(len(rem) - dd, 0)
    for k in range(len(rem) - dd - 1, -1, -1):
        c = rem[k + dd]
        if c == 0:
            continue
        if int_lead and type(c) is int and not c % lead:
            f = c // lead
        else:
            f = _norm_num(Fraction(c) / lead)
        q[k] = f
        rem[k + dd] = 0
        for i, dc in tail:
            rem[k + i] -= f * dc
    return Poly(q), Poly(rem[:dd])      # rem[dd:] has been cleared


def poly_div_exact(num: Poly, den: Poly) -> Poly:
    """Exact quotient; raises ExactDivisionError on any nonzero remainder."""
    q, r = poly_divmod(num, den)
    if not r.is_zero():
        raise ExactDivisionError(f"nonzero remainder {r!r} dividing by {den!r}")
    return q


def alternating_product(plus: list[Poly], minus: list[Poly]) -> Poly:
    """Exact evaluation of prod(plus) / prod(minus); aborts if not a polynomial.

    The plus factors are multiplied out, then the product is divided by one
    minus factor at a time.  Q[t] has no zero divisors, so every step is exact
    if and only if the full quotient is a polynomial; otherwise the first
    inexact step raises :class:`ExactDivisionError`.  With sparse factors
    such as 1 - t^a each product and division step is linear in the degree.
    """
    out = Poly.one()
    for p in plus:
        out = out * p
    for p in minus:
        out = poly_div_exact(out, p)
    return out


# ---------------------------------------------------------------------------
# sparse determinants
# ---------------------------------------------------------------------------

_SPARSE_ONE = {0: 1}


def _sparse_mul(a: dict, b: dict) -> dict:
    """Product of sparse polynomials {exponent: coeff}; a constant-1 factor
    returns the other operand itself, uncopied."""
    if len(a) > len(b):
        a, b = b, a
    if a == _SPARSE_ONE:
        return b
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            v = out.get(k, 0) + x * y
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def det_lower_hessenberg(diag_rows, superdiag, n) -> Poly:
    """Determinant of a sparse lower-Hessenberg matrix with Poly entries.

    ``diag_rows[i]`` maps column j <= i to the entry at (i, j); ``superdiag[i]``
    is the entry at (i, i+1).  Uses the leading-principal-minor cofactor
    recurrence

        D_k = sum_j (-1)^(k-1+j) a[k-1][j] s[j] ... s[k-2] D_j,

    on sparse {exponent: coeff} polynomials (int or Fraction coefficients),
    converted to a :class:`Poly` once at the end.  Products of monomial
    superdiagonal entries stay monomials, a factor 1 costs nothing, and each
    minor is dropped after the last row that reads it.  A minor whose only
    remaining use is a unit term is extended in place, so a companion shape
    (unit diagonal, monomial first column and superdiagonal) takes time
    linear in the number of stored entries.
    """
    if n == 0:
        return Poly.one()
    # last step at which each referenced column is needed
    last_use = {}
    for i, row in enumerate(diag_rows):
        for j in row:
            if j > i:
                raise ValueError("entry above the superdiagonal")
            last_use[j] = max(last_use.get(j, 0), i + 1)
    sup = [dict(_terms(p.coeffs)) for p in superdiag]
    minors = {0: {0: 1}}                # k -> det of leading k x k block, while needed
    tracked = {}                        # j -> product superdiag[j..k-2]
    for k in range(1, n + 1):
        for j in list(tracked):
            if last_use.get(j, 0) < k:
                del tracked[j]
            else:
                tracked[j] = _sparse_mul(tracked[j], sup[k - 2])
        if last_use.get(k - 1, 0) >= k:
            tracked[k - 1] = _SPARSE_ONE
        acc = None
        for j, entry in diag_rows[k - 1].items():
            dead = last_use[j] == k
            minor = minors.pop(j) if dead else minors[j]
            term = _sparse_mul(_sparse_mul(dict(_terms(entry.coeffs)), tracked[j]), minor)
            negate = (k - 1 + j) % 2
            if acc is None and dead and term is minor and not negate:
                acc = term                 # the dead minor itself: extend in place
                continue
            if acc is None:
                acc = {}
            for e, c in term.items():
                v = acc.get(e, 0) + (-c if negate else c)
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
        if k == n or k in last_use:
            minors[k] = acc if acc is not None else {}
    det = minors[n]
    return Poly([det.get(e, 0) for e in range(max(det, default=-1) + 1)])
