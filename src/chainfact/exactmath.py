"""Exact arithmetic substrate: integers, rationals, polynomials, sparse matrices.

Everything here is exact.  Rational numbers are `fractions.Fraction`,
integers are Python ints, and no routine ever touches floating point.
The module provides:

  * ``Poly``      -- dense univariate polynomials with exact coefficients,
                     plus truncated power-series inversion, exact division
                     and alternating products of factors.  Products and
                     divisions loop over nonzero terms only, in integer
                     arithmetic while the coefficients stay integral, so a
                     sparse factor such as 1 - t^a costs time linear in the
                     degree;
  * ``MPoly``     -- sparse multivariate polynomials (exponent tuple -> coeff);
  * ``det_lower_hessenberg`` -- the determinant of a sparse lower-Hessenberg
                     matrix of polynomials, by the principal-minor recurrence
                     on sparse {exponent: coeff} dicts;
  * ``Echelon``   -- the one exact elimination: a sparse, fraction-free row
                     echelon form giving rank, kernel and the normal form of a
                     vector modulo the row span.

Matrices are sparse rows or determinant recurrences; no dense matrix is
built.  The dense reference routines live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


_INT = frozenset((int,))


def _norm_num(c):
    """Collapse Fractions with denominator 1 to ints; reject floats."""
    if type(c) is int:          # the common case, without the ABC isinstance
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


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

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse multivariate polynomial: {exponent tuple: exact coefficient}.

    The zero polynomial has an empty term dict.  All terms must share the
    variable count ``nvars``.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            c = _norm_num(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            data[exps] = data.get(exps, 0) + c
        data = {e: c for e, c in data.items() if c != 0}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", data)
        object.__setattr__(self, "_hash", hash((nvars, frozenset(data.items()))))

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, power=1):
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, 0)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out)

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i + 1}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(parts) + ")"


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


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _integer_row(row):
    """A sparse row as a primitive integer dict: denominators cleared, zeros
    dropped, content divided out (same row space, same rank)."""
    out = {}
    denom = 1
    for c, v in row.items():
        if not v:
            continue
        if type(v) is not int:
            v = Fraction(v)
            if v.denominator == 1:
                v = v.numerator
            else:
                denom = lcm(denom, v.denominator)
        out[c] = v
    if denom != 1:
        out = {c: v.numerator * (denom // v.denominator) for c, v in out.items()}
    content = gcd(*out.values()) if out else 1
    if content != 1:
        out = {c: v // content for c, v in out.items()}
    return out


def _ratio(x, a):
    """x / a exactly, collapsed to an int when a divides x."""
    return _norm_num(Fraction(x, a))


class Echelon:
    """Sparse row echelon form of a rational matrix, eliminated in integers.

    Rows are dicts {col: coeff} with int or Fraction entries.  Each row is
    scaled to a primitive integer row, and a row with entry b in a pivot
    column whose pivot entry is a is replaced by (a/g)*row - (b/g)*pivot,
    g = gcd(a, b), then divided by its content.  Only ``*``, ``-``, ``gcd``
    and exact ``//`` on ints are used.  Pivots are chosen to limit fill:
    shortest rows first, then the column with the fewest occurrences.

    ``pivots`` maps each pivot column to its primitive integer row, in
    insertion order.  A pivot row is zero in the pivot columns of all
    earlier rows, so the rows are triangular in that order: ``reduce`` walks
    it forwards and ``kernel`` backwards.
    """

    __slots__ = ("pivots", "_count")

    def __init__(self, rows):
        self.pivots: dict[int, dict[int, int]] = {}
        self._count: dict[int, int] = {}     # col -> occurrences in rows given
        work = [r for r in map(_integer_row, rows) if r]
        for r in work:
            self._tally(r)
        work.sort(key=len)
        for r in work:
            self._insert(r)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Insert one more row; True when it raises the rank."""
        row = _integer_row(vec)
        self._tally(row)
        return self._insert(row)

    def _tally(self, row):
        count = self._count
        for c in row:
            count[c] = count.get(c, 0) + 1

    def _insert(self, row) -> bool:
        pivots = self.pivots
        while True:
            hit = None
            for c in row:
                if c in pivots:
                    hit = c
                    break
            if hit is None:
                break
            prow = pivots[hit]
            a, b = prow[hit], row[hit]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in prow.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            if row:
                content = gcd(*row.values())
                if content != 1:
                    row = {c: v // content for c, v in row.items()}
        if not row:
            return False
        count = self._count
        pivots[min(row, key=lambda c: (count.get(c, 0), c))] = row
        return True

    def kernel(self, ncols: int) -> list[dict]:
        """Basis of {x : A x = 0} over the columns 0..ncols-1.

        One sparse vector per free column, with 1 at that column and 0 at
        the other free columns; the pivot coordinates follow by
        back-substitution in reverse pivot order.
        """
        order = list(self.pivots.items())[::-1]
        basis = []
        for free in range(ncols):
            if free in self.pivots:
                continue
            x = {free: 1}
            for p, row in order:
                s = sum(v * x[c] for c, v in row.items() if c in x)
                if s:
                    x[p] = _ratio(-s, row[p])
            basis.append(x)
        return basis

    def reduce(self, vec) -> dict:
        """The normal form of a sparse rational vector modulo the row span.

        The result differs from ``vec`` by an element of the span and is zero
        in every pivot column, which makes it unique.
        """
        out = {c: v for c, v in vec.items() if v}
        for p, row in self.pivots.items():
            b = out.get(p)
            if b:
                q = _ratio(b, row[p])
                for c, v in row.items():
                    nv = out.get(c, 0) - q * v
                    if nv:
                        out[c] = nv
                    else:
                        out.pop(c, None)
        return {c: _norm_num(v) for c, v in out.items()}


def sparse_rank(rows) -> int:
    """Rank of a sparse rational matrix given as dicts {col: coeff}."""
    return Echelon(rows).rank
