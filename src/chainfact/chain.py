"""Chain polynomials and their maximal gradings.

A chain polynomial in n variables is determined by its exponent vector
(a_1, ..., a_n), all a_i >= 2:

    f = x_1^{a_1} x_2 + x_2^{a_2} x_3 + ... + x_{n-1}^{a_{n-1}} x_n + x_n^{a_n}

The grading group is the quotient of the free abelian group on the variable
symbols and one total-degree symbol by the homogeneity relations of f's
monomials.  It has rank one but is handled as a general finitely presented
abelian group via Smith normal form, so torsion (should it ever appear) is
carried through every degree computation instead of being assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exactmath import Echelon, IntMatrix, int_mat_mul, smith_normal_form


class VerificationFailure(Exception):
    """An exact identity failed; ``witness`` holds the offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


@dataclass(frozen=True)
class ChainPolynomial:
    """Exponent data (a_1, ..., a_n) of a chain polynomial."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(a) for a in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 1:
            raise ValueError("need at least one variable")
        if any(a < 2 for a in exps):
            raise ValueError("every exponent must be >= 2")

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


@dataclass(frozen=True)
class ChainNumerics:
    """Cumulative exponent products and the alternating Milnor recursion.

    ``cum_products[i]`` is a_1 * ... * a_i (index 0 gives 1) and
    ``milnor_numbers[i]`` follows m_i = cum_products[i] - m_{i-1}, m_0 = 1;
    the last entry is the length of the sought exceptional collection.
    """

    cum_products: tuple[int, ...]
    milnor_numbers: tuple[int, ...]

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


@dataclass(frozen=True)
class TransposeData:
    """Weighted-homogeneity data of the transposed polynomial.

    ``charges[i]`` is the rational weight of x_i normalized to total degree 1;
    ``weights``/``degree`` is the gcd-reduced integer form.
    """

    charges: tuple[Fraction, ...]
    weights: tuple[int, ...]
    degree: int


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
    """A grading-group element in canonical (SNF-reduced) coordinates.

    Torsion coordinates are stored as reduced residues, the free part as
    plain integers; equality of degrees is literal coordinate equality.
    """

    __slots__ = ("group", "coords", "_hash")

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "_hash", hash((id(group), self.coords)))

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
        return self.group._reduce([x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self.group._reduce([x - y for x, y in zip(self.coords, other.coords)])

    def __neg__(self):
        return self.group._reduce([-x for x in self.coords])

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return self.group._reduce([k * x for x in self.coords])

    __rmul__ = __mul__

    def _check(self, other):
        if self.group is not other.group:
            raise ValueError("degrees from different grading groups")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    @property
    def weight(self) -> int:
        """Image under the positive weight character."""
        return sum(c * w for c, w in zip(self.coords, self.group._canonical_weights))

    def __repr__(self):
        return f"Degree{self.coords}"


class GradingGroup:
    """The maximal grading of a chain polynomial, presented by SNF data.

    Generators are the n variable symbols followed by the total-degree
    symbol; relations say each monomial of f has the total degree.  The
    instance exposes canonical forms, a positive integer weight character,
    and graded-piece (monomial basis) enumeration.
    """

    def __init__(self, f: ChainPolynomial):
        self.chain = f
        n = f.n
        self.ngens = n + 1
        rel = []
        for exps in f.monomial_exponents():
            rel.append([-e for e in exps] + [1])    # total-degree symbol minus monomial
        self.relation_matrix = IntMatrix(rel)
        snf = smith_normal_form(self.relation_matrix)
        self.snf = snf
        k = min(snf.D.rows, snf.D.cols)
        self._moduli = tuple(snf.D[i, i] if i < k else 0 for i in range(self.ngens))
        self._V = snf.V.entries

        # weight character: positive integers w_i with a_i w_i + w_{i+1} = d
        q = [Fraction(1, f.exponents[-1])]
        for i in range(f.n - 2, -1, -1):
            q.append((1 - q[-1]) / f.exponents[i])
        q.reverse()
        denom = 1
        for qi in q:
            denom = lcm(denom, qi.denominator)
        ws = [int(qi * denom) for qi in q] + [denom]
        g = 0
        for w in ws:
            g = gcd(g, w)
        ws = [w // g for w in ws]
        self.weights = tuple(ws)                     # (w_1, ..., w_n, total degree)
        if not all(w >= 1 for w in self.weights):
            raise VerificationFailure("weight character is not positive",
                                      {"weights": self.weights})
        for row in self.relation_matrix.entries:     # character must kill relations
            if sum(r * w for r, w in zip(row, self.weights)) != 0:
                raise VerificationFailure("weight character does not kill a relation",
                                          {"relation": row, "weights": self.weights})

        # the character in canonical coordinates: solve V * y = weights
        y = _solve_unimodular(self._V, self.weights)
        self._canonical_weights = tuple(y)
        for m, w in zip(self._moduli, self._canonical_weights):
            if m != 0 and w != 0:                    # finite-order coords carry weight 0
                raise VerificationFailure("a finite-order coordinate carries weight",
                                          {"moduli": self._moduli,
                                           "weights": self._canonical_weights})

        self.zero = self._reduce([0] * self.ngens)
        self._gen_degrees = tuple(
            self.canonicalize([1 if j == i else 0 for j in range(self.ngens)])
            for i in range(self.ngens)
        )
        self._mono_cache: dict[Degree, tuple[tuple[int, ...], ...]] = {}
        self._mono_degree_cache: dict[tuple[int, ...], Degree] = {}

    # one canonical instance per chain (see build_grading_group), so identity
    # comparison inside Degree is sound

    def _reduce(self, coords) -> Degree:
        out = list(coords)
        for i, m in enumerate(self._moduli):
            if m:
                out[i] %= m
        return Degree(self, out)

    def canonicalize(self, expr) -> Degree:
        """Canonical form of an integer combination of the n+1 generators."""
        expr = list(expr)
        if len(expr) != self.ngens:
            raise ValueError(f"expected {self.ngens} generator coefficients")
        coords = int_mat_mul([expr], self._V)[0]
        return self._reduce(coords)

    def variable_degree(self, i: int) -> Degree:
        """Degree of the variable x_{i+1} (0-based index)."""
        return self._gen_degrees[i]

    @property
    def total_degree(self) -> Degree:
        """Degree of the polynomial itself (the translation-square twist)."""
        return self._gen_degrees[-1]

    def monomial_degree(self, exps) -> Degree:
        """Degree of the monomial with the given variable exponents."""
        exps = tuple(exps)
        cached = self._mono_degree_cache.get(exps)
        if cached is None:
            cached = self.canonicalize(list(exps) + [0])
            self._mono_degree_cache[exps] = cached
        return cached

    def monomial_basis(self, l: Degree) -> tuple[tuple[int, ...], ...]:
        """All monomials of degree l, as exponent vectors.

        Finiteness comes from positivity of the weight character: candidates
        are enumerated by weight and then filtered by exact degree equality
        (torsion included).
        """
        if l.group is not self:
            raise ValueError("degree from another group")
        cached = self._mono_cache.get(l)
        if cached is not None:
            return cached
        w = l.weight
        out = []
        if w >= 0:
            n = self.chain.n
            var_w = self.weights[:n]

            def rec(i, remaining, stack):
                if i == n - 1:
                    if remaining % var_w[i] == 0:
                        out.append(tuple(stack + [remaining // var_w[i]]))
                    return
                step = var_w[i]
                for m in range(remaining // step + 1):
                    rec(i + 1, remaining - m * step, stack + [m])

            rec(0, w, [])
            out = [e for e in out if self.monomial_degree(e) == l]
        result = tuple(sorted(out))
        self._mono_cache[l] = result
        return result

    # -- torsion diagnostics -------------------------------------------------

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(m for m in self._moduli if m > 1)

    def is_torsion_free(self) -> bool:
        return not self.torsion_factors

    def quotient_by_total_degree_order(self) -> int:
        """Order of the quotient by the total-degree symbol (0 if infinite)."""
        rows = [list(r) for r in self.relation_matrix.entries]
        rows.append([0] * self.chain.n + [1])
        snf = smith_normal_form(IntMatrix(rows))
        det = 1
        for i in range(self.ngens):
            det *= snf.D[i, i]
        return abs(det)

    def __repr__(self):
        return f"GradingGroup(chain={self.chain}, weights={self.weights})"


def _solve_unimodular(v_rows, rhs):
    """Solve V y = rhs exactly for unimodular integer V; y is integral.

    y is the one kernel vector of [V | -rhs], divided by its last coordinate.
    """
    n = len(rhs)
    rows = [dict(enumerate([*v_rows[i], -rhs[i]])) for i in range(n)]
    kernel = Echelon(rows).kernel(n + 1)
    if len(kernel) != 1 or not kernel[0].get(n):
        raise VerificationFailure("unimodular solve: V is singular", {"kernel": kernel})
    last = kernel[0][n]
    ys = [Fraction(kernel[0].get(j, 0)) / last for j in range(n)]
    if not all(y.denominator == 1 for y in ys):
        raise VerificationFailure("unimodular solve left a fraction", {"solution": ys})
    return [int(y) for y in ys]


@lru_cache(maxsize=None)
def _group_for(exponents: tuple[int, ...]) -> GradingGroup:
    return GradingGroup(ChainPolynomial(exponents))


def build_grading_group(f: ChainPolynomial) -> GradingGroup:
    """The (cached, canonical) grading group of a chain polynomial."""
    return _group_for(f.exponents)
