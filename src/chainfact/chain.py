"""Chain polynomials and their maximal gradings.

A chain polynomial in n variables is determined by its exponent vector
(a_1, ..., a_n), all a_i >= 2:

    f = x_1^{a_1} x_2 + x_2^{a_2} x_3 + ... + x_{n-1}^{a_{n-1}} x_n + x_n^{a_n}

The grading group L_f is the quotient of the free abelian group on the
variable symbols x_1, ..., x_n and one total-degree symbol f by the
homogeneity relations of f's monomials.  The relations a_i x_i + x_{i+1} = f
eliminate x_2, ..., x_n, so L_f is generated by x_1 and f subject to the one
relation a_n x_n - f = u x_1 + v f = 0, and L_f = Z + Z/g with g = gcd(u, v).
With u = g u', v = g v' and p u' + q v' = 1, the map

    X x_1 + Y f  ->  (+-(u' Y - v' X), p X + q Y mod g)

is an isomorphism onto Z + Z/g; the sign makes x_1 positive, so the first
coordinate is the weight character.  Torsion is common: about half of all
chains (367 of the 780 with n <= 4 and exponents 2-6) have g > 1, and the
residue is carried through every degree computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul


class VerificationFailure(Exception):
    """An exact identity failed; ``witness`` holds the offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


class GradingError(ValueError):
    """Malformed graded data: an entry violates the homogeneity forced by its
    matrix slot, or a construction's input breaks its contract (such as a
    splitting that is not a regular sequence of monomials)."""


def _norm_num(c):
    """Collapse Fractions with denominator 1 to ints; reject floats.

    The one coefficient rule of ``series`` and ``exactmath``, which import
    nothing from each other."""
    if type(c) is int:          # the common case, without the ABC isinstance
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


class ChainPolynomial:
    """Exponent data (a_1, ..., a_n) of a chain polynomial.

    Immutable and hashable by its exponents, which key the interned grading
    group.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        exps = tuple(int(a) for a in exponents)
        if len(exps) < 1:
            raise ValueError("need at least one variable")
        if any(a < 2 for a in exps):
            raise ValueError("every exponent must be >= 2")
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, *a):
        raise AttributeError("ChainPolynomial is immutable")

    def __eq__(self, other):
        if not isinstance(other, ChainPolynomial):
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"ChainPolynomial(exponents={self.exponents!r})"

    @classmethod
    def parse(cls, text: str) -> "ChainPolynomial":
        """Parse the CLI format 'a1,a2,...,an'."""
        try:
            exps = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse chain {text!r}") from exc
        return cls(exps)

    @property
    def n(self) -> int:
        return len(self.exponents)

    def monomial_exponents(self) -> list[tuple[int, ...]]:
        """Exponent vectors of f's monomials, one per variable."""
        n, a = self.n, self.exponents
        out = []
        for i in range(n):
            exps = [0] * n
            exps[i] = a[i]
            if i + 1 < n:
                exps[i + 1] = 1
            out.append(tuple(exps))
        return out

    def __str__(self):
        return ",".join(str(a) for a in self.exponents)


class ChainNumerics:
    """Cumulative exponent products and the alternating Milnor recursion.

    ``cum_products[i]`` is a_1 * ... * a_i (index 0 gives 1) and
    ``milnor_numbers[i]`` follows m_i = cum_products[i] - m_{i-1}, m_0 = 1;
    the last entry is the length of the sought exceptional collection.
    """

    def __init__(self, cum_products: tuple[int, ...], milnor_numbers: tuple[int, ...]):
        self.cum_products = cum_products
        self.milnor_numbers = milnor_numbers

    @property
    def milnor(self) -> int:
        return self.milnor_numbers[-1]


def numerics(f: ChainPolynomial) -> ChainNumerics:
    d = [1]
    for a in f.exponents:
        d.append(d[-1] * a)
    mu = [1]
    for i in range(1, f.n + 1):
        mu.append(d[i] - mu[-1])
    nm = ChainNumerics(tuple(d), tuple(mu))
    # alternating-sum identity and the strict bounds both follow from a_i >= 2
    alt = sum((-1) ** (f.n - i) * d[i] for i in range(f.n + 1))
    if not (nm.milnor == alt and 1 <= nm.milnor < d[-1]):
        raise VerificationFailure("Milnor recursion breaks its alternating-sum bounds",
                                  {"milnor": nm.milnor, "alternating_sum": alt})
    return nm


class TransposeData:
    """Weighted-homogeneity data of the transposed polynomial.

    ``charges[i]`` is the rational weight of x_i normalized to total degree 1;
    ``weights``/``degree`` is the gcd-reduced integer form.
    """

    def __init__(self, charges: tuple[Fraction, ...], weights: tuple[int, ...],
                 degree: int):
        self.charges = charges
        self.weights = weights
        self.degree = degree


def transpose(f: ChainPolynomial) -> TransposeData:
    a = f.exponents
    q = [Fraction(1, a[0])]
    for i in range(1, f.n):
        q.append((1 - q[-1]) / a[i])
    if not all(0 < qi < 1 for qi in q):
        raise VerificationFailure("transpose charges leave (0, 1)", {"charges": q})
    denom = 1
    for qi in q:
        denom = lcm(denom, qi.denominator)
    weights = [int(qi * denom) for qi in q]
    g = denom
    for w in weights:
        g = gcd(g, w)
    weights = [w // g for w in weights]
    degree = denom // g
    return TransposeData(tuple(q), tuple(weights), degree)


class Degree:
    """An element of the grading group as (weight, residue mod g).

    The residue is kept reduced, so equality of degrees is literal coordinate
    equality; when g = 1 the residue is always 0.
    """

    __slots__ = ("group", "coords", "_hash")

    def __init__(self, group, weight, residue):
        coords = (weight, residue % group.modulus)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_hash", hash((id(group), coords)))

    def __setattr__(self, *a):
        raise AttributeError("Degree is immutable")

    def __eq__(self, other):
        if not isinstance(other, Degree):
            return NotImplemented
        return self.group is other.group and self.coords == other.coords

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        self._check(other)
        (w, r), (v, s) = self.coords, other.coords
        return Degree(self.group, w + v, r + s)

    def __sub__(self, other):
        self._check(other)
        (w, r), (v, s) = self.coords, other.coords
        return Degree(self.group, w - v, r - s)

    def __neg__(self):
        w, r = self.coords
        return Degree(self.group, -w, -r)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        w, r = self.coords
        return Degree(self.group, k * w, k * r)

    __rmul__ = __mul__

    def _check(self, other):
        if self.group is not other.group:
            raise ValueError("degrees from different grading groups")

    def is_zero(self) -> bool:
        return self.coords == (0, 0)

    @property
    def weight(self) -> int:
        """Image under the positive weight character."""
        return self.coords[0]

    def __repr__(self):
        return f"Degree{self.coords}"


class GradingGroup:
    """The maximal grading group L_f of a chain polynomial, in closed form.

    Generators are the n variable symbols followed by the total-degree
    symbol; relations say each monomial of f has the total degree.  The
    instance exposes canonical forms, the positive integer weight character,
    and graded-piece (monomial basis) enumeration.
    """

    def __init__(self, f: ChainPolynomial):
        self.chain = f
        a = f.exponents
        # generators in (x_1, f) coordinates: x_1 = (1, 0), x_{i+1} = f - a_i x_i
        gens = [(1, 0)]
        for ai in a[:-1]:
            x, y = gens[-1]
            gens.append((-ai * x, 1 - ai * y))
        x, y = gens[-1]
        u, v = a[-1] * x, a[-1] * y - 1              # the relation a_n x_n - f
        g = gcd(u, v)
        u, v = u // g, v // g
        p, q = _bezout(u, v)
        sign = -1 if v > 0 else 1                    # x_1 gets weight -sign * v
        self.modulus = g
        gens.append((0, 1))
        self._gens = tuple(Degree(self, sign * (u * y - v * x), p * x + q * y)
                           for x, y in gens)
        self.weights = tuple(d.weight for d in self._gens)   # (w_1, ..., w_n, total degree)
        self._residues = tuple(d.coords[1] for d in self._gens)
        if not all(w >= 1 for w in self.weights):
            raise VerificationFailure("weight character is not positive",
                                      {"weights": self.weights})
        for exps in f.monomial_exponents():
            if self.monomial_degree(exps) != self.total_degree:
                raise VerificationFailure("weight character does not kill a relation",
                                          {"monomial": exps, "weights": self.weights})
        self.zero = Degree(self, 0, 0)

    # one canonical instance per chain (see build_grading_group), so identity
    # comparison inside Degree is sound

    def variable_degree(self, i: int) -> Degree:
        """Degree of the variable x_{i+1} (0-based index)."""
        return self._gens[i]

    @property
    def total_degree(self) -> Degree:
        """Degree of the polynomial itself (the translation-square twist)."""
        return self._gens[-1]

    def monomial_degree(self, exps) -> Degree:
        """Degree of the monomial with the given variable exponents."""
        return Degree(self, sum(map(mul, exps, self.weights)),
                      sum(map(mul, exps, self._residues)))

    def monomial_basis(self, l: Degree) -> tuple[tuple[int, ...], ...]:
        """All monomials of degree l, as sorted exponent vectors.

        Finiteness comes from positivity of the weight character: candidates
        are enumerated by weight and then filtered by exact degree equality
        (torsion included).  Each call enumerates afresh: the group is
        interned for the process, so it keeps no memo.
        """
        if l.group is not self:
            raise ValueError("degree from another group")
        w = l.weight
        if w < 0:
            return ()
        n = self.chain.n
        var_w = self.weights[:n]
        out = []

        def rec(i, remaining, stack):
            step = var_w[i]
            top = remaining // step
            if i == n - 1:
                if remaining == top * step:
                    out.append(tuple(stack + [top]))
                return
            for m in range(top + 1):
                rec(i + 1, remaining - m * step, stack + [m])

        rec(0, w, [])
        return tuple(sorted(e for e in out if self.monomial_degree(e) == l))

    # -- torsion diagnostics -------------------------------------------------

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return (self.modulus,) if self.modulus > 1 else ()

    def is_torsion_free(self) -> bool:
        return not self.torsion_factors

    def quotient_by_total_degree_order(self) -> int:
        """Order of the quotient by the total-degree symbol: the determinant
        of [[weight(f), residue(f)], [0, g]]."""
        return self.total_degree.weight * self.modulus

    def __repr__(self):
        return f"GradingGroup(chain={self.chain}, weights={self.weights})"


def _bezout(u, v):
    """(p, q) with p*u + q*v = gcd(u, v), by the extended Euclidean algorithm."""
    r0, r1, p0, p1, q0, q1 = u, v, 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1, p0, p1, q0, q1 = r1, r0 - k * r1, p1, p0 - k * p1, q1, q0 - k * q1
    return (p0, q0) if r0 > 0 else (-p0, -q0)


@lru_cache(maxsize=None)
def _group_for(exponents: tuple[int, ...]) -> GradingGroup:
    return GradingGroup(ChainPolynomial(exponents))


def build_grading_group(f: ChainPolynomial) -> GradingGroup:
    """The (cached, canonical) grading group of a chain polynomial."""
    return _group_for(f.exponents)
