import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfact.exactmath import Echelon
from chainfact.series import (
    ExactDivisionError,
    Poly,
    alternating_product,
    det_lower_hessenberg,
    poly_div_exact,
    poly_divmod,
    series_inverse,
)
from oracles import (
    IntMatrix,
    alternating_product_dense,
    charpoly_division_free,
    convolve,
    det_bareiss,
    det_lower_hessenberg_poly,
    int_mat_mul,
    kernel_basis,
    matrix_power,
    rank_rational,
    series_inverse_rational,
    smith_normal_form,
    sparse_rank,
)


# ----------------------------------------------------------------- oracles

def perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def charpoly_by_permutations(a: IntMatrix) -> Poly:
    """Leibniz expansion of det(t*1 - A); independent of Berkowitz."""
    n = a.rows
    total = Poly.zero()
    for p in permutations(range(n)):
        term = Poly.one()
        for i in range(n):
            e = a[i, p[i]]
            entry = Poly((-e, 1)) if p[i] == i else Poly((-e,))
            term = term * entry
        total = total + perm_sign(p) * term
    return total


def minor_gcd(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors, the classical invariant-factor oracle."""
    from itertools import combinations
    from math import gcd

    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntMatrix([[a[i, j] for j in cols] for i in rows])
            g = gcd(g, det_bareiss(sub))
    return g


def rand_matrix(rng, n, m, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


# ------------------------------------------------------------------- Poly

def test_poly_basics():
    p = Poly((1, 0, -2, 0, 0))
    assert p.coeffs == (1, 0, -2)
    assert p.degree == 2
    assert p.coeff(1) == 0 and p.coeff(7) == 0
    assert Poly((Fraction(2, 2),)).coeffs == (1,)
    assert (p * Poly.zero()).is_zero()


def test_poly_reversal():
    p = Poly((1, -1, 0, 2))
    assert p.reversal(3) == Poly((2, 0, -1, 1))


def test_series_inverse_geometric():
    assert series_inverse(Poly((1, -1)), 3) == Poly((1, 1, 1, 1))


def test_series_inverse_alternating_quartic():
    # long-division oracle: (1+t)/(1-t^4) agrees mod t^3
    p = Poly((1, -1, 1, -1))
    q = series_inverse(p, 2)
    assert q == Poly((1, 1, 0))
    assert (p * q).truncate(2) == Poly.one()


def test_series_inverse_degree8_chain():
    p = Poly((1, 1, 0, 0, 1, 1))        # (1+t)(1+t^4)
    q = series_inverse(p, 4)
    assert q == Poly((1, -1, 1, -1, 0))
    assert (p * q).truncate(4) == Poly.one()


def test_series_inverse_rejects_zero_constant():
    with pytest.raises(ExactDivisionError):
        series_inverse(Poly((0, 1)), 3)


def test_series_inverse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        coeffs = [rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
        p = Poly(coeffs)
        k = rng.randint(0, 12)
        q = series_inverse(p, k)
        assert (p * q).truncate(k) == Poly.one()


def test_series_inverse_unit_path_is_int_and_matches_the_rational_path():
    rng = random.Random(11)
    for _ in range(200):
        c0 = rng.choice([1, -1, 2, 3])
        coeffs = [c0] + [rng.choice([0, 0, 0, rng.randint(-4, 4)])
                         for _ in range(rng.randint(0, 40))]
        k = rng.randint(0, 80)
        q = series_inverse(Poly(coeffs), k)
        want = series_inverse_rational(coeffs, k)
        assert [q.coeff(i) for i in range(k + 1)] == want
        if c0 in (1, -1):
            assert all(type(x) is int for x in q.coeffs)


def test_poly_div_exact_examples():
    num = Poly((1,) + (0,) * 3 + (-1,)) * Poly((1, -1))      # (1-t^4)(1-t)
    den = Poly((1, 0, -1))                                    # 1-t^2
    quot = poly_div_exact(num, den)
    assert quot == Poly((1, -1, 1, -1))
    assert quot * den == num
    p = Poly((3, 1, 2))
    assert poly_div_exact(p, Poly.one()) == p
    with pytest.raises(ExactDivisionError):
        poly_div_exact(Poly((1, 0, -1)), Poly((1, 0, 0, -1)))


def test_poly_div_exact_random_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        if b.is_zero():
            continue
        assert poly_div_exact(a * b, b) == a


# ------------------------------------------------------------------- SNF

def check_snf(a: IntMatrix):
    snf = smith_normal_form(a)
    assert snf.U * a * snf.V == snf.D
    assert det_bareiss(snf.U) in (1, -1)
    assert det_bareiss(snf.V) in (1, -1)
    k = min(a.rows, a.cols)
    diag = [snf.D[i, i] for i in range(k)]
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert snf.D[i, j] == 0
    for i in range(k - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(d >= 0 for d in diag)
    return snf


def test_snf_identity():
    snf = check_snf(IntMatrix.identity(2))
    assert snf.D == IntMatrix.identity(2)


def test_snf_zero_1x1():
    snf = check_snf(IntMatrix([[0]]))
    assert snf.D == IntMatrix([[0]])


def test_snf_chain_relation_matrix():
    # rows f - 2 x1 - x2 and f - 2 x2 over generators (x1, x2, f)
    a = IntMatrix([[-2, -1, 1], [0, -2, 1]])
    # minor-gcd oracle: invariant factors d1 = g1, d2 = g2/g1
    g1 = minor_gcd(a, 1)
    g2 = minor_gcd(a, 2)
    assert (g1, g2 // g1) == (1, 1)
    snf = check_snf(a)
    assert (snf.D[0, 0], snf.D[1, 1]) == (1, 1)


def test_snf_random_matrices():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        snf = check_snf(a)
        # cross-check invariant factors against the minor-gcd oracle
        k = min(a.rows, a.cols)
        prev = 1
        for i in range(1, k + 1):
            g = minor_gcd(a, i)
            expected = 0 if g == 0 else g // prev
            assert snf.D[i - 1, i - 1] == abs(expected)
            if g == 0:
                break
            prev = g


# -------------------------------------------------------------- charpoly

def test_charpoly_zero_3x3():
    assert charpoly_division_free(IntMatrix([[0] * 3] * 3)) == Poly((0, 0, 0, 1))


def test_charpoly_nilpotent():
    n = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert charpoly_division_free(n) == Poly((0, 0, 0, 1))


def test_charpoly_known_serre_matrix():
    # cofactor oracle for the 3x3 matrix with det(t-1 form) t^3 - t^2 + t - 1
    m = IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 1]])
    oracle = charpoly_by_permutations(m)
    assert oracle == Poly((-1, 1, -1, 1))
    assert charpoly_division_free(m) == oracle


def test_charpoly_vs_permutation_oracle_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        assert charpoly_division_free(a) == charpoly_by_permutations(a)


def test_charpoly_rejects_rectangular():
    with pytest.raises(ValueError):
        charpoly_division_free(IntMatrix([[1, 2]]))


def test_hessenberg_det_matches_dense():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 5)
        dense = [[Poly.zero()] * n for _ in range(n)]
        diag_rows = []
        superdiag = []
        for i in range(n):
            row = {}
            for j in range(i + 1):
                if rng.random() < 0.7:
                    p = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                    if not p.is_zero():
                        row[j] = p
                        dense[i][j] = p
            diag_rows.append(row)
            if i + 1 < n:
                s = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
                superdiag.append(s)
                dense[i][i + 1] = s
        # Leibniz oracle on the dense polynomial matrix
        total = Poly.zero()
        for p in permutations(range(n)):
            term = Poly.one()
            ok = True
            for i in range(n):
                if dense[i][p[i]].is_zero():
                    ok = False
                    break
                term = term * dense[i][p[i]]
            if ok:
                total = total + perm_sign(p) * term
        assert det_lower_hessenberg(diag_rows, superdiag, n) == total


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
UNIT = Poly.one()                       # one shared object, as in companion shapes


@st.composite
def entry_polys(draw, max_len=3):
    """A Poly entry: the shared unit, a monomial c t^k, or a dense Poly."""
    kind = draw(st.sampled_from(["unit", "monomial", "dense"]))
    if kind == "unit":
        return UNIT
    if kind == "monomial":
        return Poly([0] * draw(st.integers(0, 2)) + [draw(COEFFS)])
    return Poly(draw(st.lists(COEFFS, max_size=max_len)))


@st.composite
def hessenberg_cases(draw):
    """(diag_rows, superdiag, n) with n <= 8; the columns of a row come in
    random order and the superdiagonal is all monomials or arbitrary."""
    n = draw(st.integers(0, 8))
    diag_rows = []
    for i in range(n):
        cols = draw(st.lists(st.integers(0, i), unique=True, max_size=i + 1))
        diag_rows.append({j: draw(entry_polys()) for j in cols})
    if draw(st.booleans()):
        shared = Poly((0, -1))
        sup = st.one_of(st.just(shared),
                        st.builds(lambda k, c: Poly([0] * k + [c]),
                                  st.integers(0, 2), COEFFS))
    else:
        sup = entry_polys()
    superdiag = [draw(sup) for _ in range(max(n - 1, 0))]
    return diag_rows, superdiag, n


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=hessenberg_cases())
def test_hessenberg_sparse_matches_poly_recurrence(case):
    diag_rows, superdiag, n = case
    assert det_lower_hessenberg(diag_rows, superdiag, n) == \
        det_lower_hessenberg_poly(diag_rows, superdiag, n)


def test_hessenberg_companion_shapes_of_zeta_polynomials():
    from chainfact.chain import ChainPolynomial
    from chainfact.invariants import zeta_polynomial
    for exps in [(2,), (2, 2), (2, 2, 3), (3, 2, 2), (4, 4, 4), (2, 3, 2, 3), (5, 5, 5)]:
        cp = zeta_polynomial(ChainPolynomial(exps)).coeffs
        mu = len(cp) - 1
        # det(1 - tM) of the companion: first column -cp[1:], unit superdiagonal
        diag_rows = [{0: Poly((1, cp[1]))}]
        diag_rows += [{i: UNIT, 0: Poly((0, cp[i + 1]))} if cp[i + 1] else {i: UNIT}
                      for i in range(1, mu)]
        superdiag = [Poly((0, -1))] * (mu - 1)
        det = det_lower_hessenberg(diag_rows, superdiag, mu)
        assert det == det_lower_hessenberg_poly(diag_rows, superdiag, mu) == Poly(cp)
        # the same shape with the first column listed before the diagonal
        flipped = [dict(reversed(row.items())) for row in diag_rows]
        assert det_lower_hessenberg(flipped, superdiag, mu) == det


def test_hessenberg_rejects_entries_above_the_superdiagonal():
    with pytest.raises(ValueError):
        det_lower_hessenberg([{1: UNIT}, {1: UNIT}], [UNIT], 2)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(a=st.lists(COEFFS, max_size=8), b=st.lists(COEFFS, max_size=8))
def test_poly_mul_and_divmod_match_the_schoolbook(a, b):
    pa, pb = Poly(a), Poly(b)
    assert pa * pb == Poly(convolve(a, b))
    if pb.is_zero():
        return
    q, r = poly_divmod(pa, pb)
    assert r.degree < pb.degree
    assert Poly(convolve(q.coeffs, b)) + r == pa


circle_factors = st.builds(lambda a, s: Poly.one_minus_power(a) * s,
                           st.integers(1, 12), st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(plus=st.lists(circle_factors, max_size=5), minus=st.lists(circle_factors, max_size=4))
def test_alternating_product_matches_dense_division(plus, minus):
    try:
        expected = alternating_product_dense(plus, minus)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            alternating_product(plus, minus)
    else:
        assert alternating_product(plus, minus) == expected


def test_alternating_product_rejects_non_polynomial_quotients():
    t = Poly.one_minus_power
    # (1 - t^6) / ((1 - t^2)(1 - t^3)) = (1 + t^2 + t^4) / (1 - t^3)
    for plus, minus in [([t(6)], [t(2), t(3)]), ([t(6)], [t(3), t(2)]),
                        ([t(2), t(3)], [t(6)]), ([], [t(1)])]:
        with pytest.raises(ExactDivisionError):
            alternating_product(plus, minus)
        with pytest.raises(ExactDivisionError):
            alternating_product_dense(plus, minus)
    # (1 - t^6)(1 - t) / ((1 - t^2)(1 - t^3)) = (1 + t^3) / (1 + t)
    assert alternating_product([t(6), t(1)], [t(2), t(3)]) == Poly((1, -1, 1))


# -------------------------------------------------------- rational ranks

def test_rank_rational_examples():
    assert rank_rational([[1, 0], [0, 1]]) == 2
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_kernel_basis():
    ker = kernel_basis([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert sum(c * x for c, x in zip([1, 2, 3], v)) == 0


def test_sparse_rank_matches_dense():
    rng = random.Random(13)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(m)] for _ in range(n)]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in a]
        assert sparse_rank(sparse) == rank_rational(a)


def _sparse(a):
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def test_sparse_rank_fraction_entries():
    rng = random.Random(19)
    for _ in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        basis = [[Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(m)]
                 for _ in range(rng.randint(1, n))]
        # rows are rational combinations of a few rows, so ranks fall short
        a = [[sum(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * b[j]
                  for b in basis) for j in range(m)] for _ in range(n)]
        sparse = _sparse(a)
        before = [dict(r) for r in sparse]
        assert sparse_rank(sparse) == rank_rational(a)
        assert sparse == before                     # the input is not modified


def test_sparse_rank_entries_beyond_64_bits():
    rng = random.Random(23)
    big = 2 ** 64
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        basis = [[rng.randint(-big * big, big * big) for _ in range(m)]
                 for _ in range(rng.randint(1, n))]
        a = [[sum(rng.randint(-big, big) * b[j] for b in basis) for j in range(m)]
             for _ in range(n)]
        if rng.random() < 0.5:                      # mixed with huge denominators
            a = [[Fraction(x, rng.randint(1, big)) for x in row] for row in a]
        assert sparse_rank(_sparse(a)) == rank_rational(a)


def test_sparse_rank_cancelling_rows():
    # a row that cancels to zero, a zero coefficient, a Fraction equal to an int
    rows = [{0: 2, 1: 4}, {0: Fraction(1, 3), 1: Fraction(2, 3)}, {2: 0},
            {1: Fraction(6, 3), 2: -1}]
    assert sparse_rank(rows) == 2
    assert sparse_rank([]) == 0 and sparse_rank([{}]) == 0


@st.composite
def sparse_matrices(draw):
    """(dense rows, ncols): integer combinations of a few random rows, so
    ranks fall short, with small ints, Fractions or entries above 2**64."""
    kind = draw(st.sampled_from(["int", "fraction", "big"]))
    if kind == "int":
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    elif kind == "fraction":
        entry = st.one_of(st.just(0), st.fractions(-5, 5, max_denominator=9))
    else:
        big = st.builds(int.__mul__, st.sampled_from([1, -1]),
                        st.integers(2 ** 64, 2 ** 70))
        entry = st.one_of(st.just(0), big,
                          st.builds(Fraction, big, st.integers(1, 2 ** 66)))
    m = draw(st.integers(1, 7))
    vec = st.lists(entry, min_size=m, max_size=m)
    basis = draw(st.lists(vec, min_size=1, max_size=4))
    coefs = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    rows = [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(m)]
            for cs in draw(st.lists(coefs, max_size=7))]
    return rows, m, draw(st.lists(vec, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=sparse_matrices())
def test_echelon_matches_dense_oracles(case):
    dense, m, probes = case
    ech = Echelon(_sparse(dense))
    rank = rank_rational(dense)
    assert ech.rank == rank

    kernel = ech.kernel(m)
    free = [c for c in range(m) if c not in ech.pivots]
    assert len(kernel) == len(free) == m - rank
    for col, x in zip(free, kernel):
        assert x[col] == 1 and all(x.get(c, 0) == 0 for c in free if c != col)
        assert all(sum(v * x.get(c, 0) for c, v in enumerate(row)) == 0 for row in dense)
    as_dense = [[x.get(c, 0) for c in range(m)] for x in kernel]
    assert rank_rational(as_dense + kernel_basis(dense, m)) == m - rank

    for row in _sparse(dense):
        assert ech.reduce(row) == {}
    for v in probes:
        red = ech.reduce(_sparse([v])[0])
        assert not set(red) & set(ech.pivots)
        assert rank_rational(dense + [[x - red.get(c, 0) for c, x in enumerate(v)]]) == rank
        grew = ech.add(red)
        assert grew == (rank_rational(dense + [v]) > rank)
        dense, rank = dense + [v], rank + grew
        assert ech.rank == rank


# ----------------------------------------------------------- int matmul

def test_int_mat_mul_guarded_vs_pure():
    rng = random.Random(17)
    for _ in range(20):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-10, 10) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-10, 10) for _ in range(m)] for _ in range(k)]
        bt = list(zip(*b))
        pure = [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]
        assert int_mat_mul(a, b) == pure


def test_int_mat_mul_big_entries_exact():
    big = 10 ** 30
    a = [[big, 1]]
    b = [[big], [1]]
    assert int_mat_mul(a, b) == [[big * big + 1]]


def test_matrix_power_binary():
    m = IntMatrix([[1, 1], [0, 1]])
    assert matrix_power(m, 5) == IntMatrix([[1, 5], [0, 1]])
    assert matrix_power(m, 0) == IntMatrix.identity(2)
