"""Exact linear algebra of the Hom engine: multivariate polynomials and elimination.

Everything here is exact.  Rational numbers are `fractions.Fraction`,
integers are Python ints, and no routine ever touches floating point.
The module provides:

  * ``MPoly``     -- sparse multivariate polynomials (exponent tuple -> coeff),
                     the entries of matrix factorizations;
  * ``Echelon``   -- the one exact elimination: a sparse, fraction-free row
                     echelon form giving rank, kernel and the normal form of a
                     vector modulo the row span.

Matrices are sparse rows; no dense matrix is built.  The dense reference
routines live with the tests.  Univariate polynomials and power series,
which only the invariants battery reads, live in ``series``; neither module
imports the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .chain import _norm_num


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

