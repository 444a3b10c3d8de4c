import random
import tracemalloc
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainfact.chain import ChainPolynomial, build_grading_group, numerics, transpose
from chainfact.invariants import (
    VerificationFailure,
    _det_one_minus_t_via_traces,
    _power_sums,
    check_lattice_correspondence,
    check_monodromy_routes,
    check_zeta_factorization,
    companion_certificate,
    cyclotomic_polynomial,
    euler_matrix,
    monodromy_data,
    polarization_integer,
    transpose_monodromy_charpoly,
    zeta_polynomial,
)
from chainfact.series import Poly
from chainfact.verify import INVARIANT_CHECKS, run_checks
from oracles import (
    IntMatrix,
    certificate_witness,
    charpoly_division_free,
    companion,
    companion_matrix,
    companion_power_columns,
    dense_euler_matrix,
    euler_series,
    det_bareiss,
    int_mat_mul,
    matrix_from_columns,
    matrix_power,
    power_sums_by_recursion,
    monodromy_column_difference,
    monodromy_matrix,
    toeplitz_product_columns,
    toeplitz_upper,
)


def chains(max_n, max_a):
    for n in range(1, max_n + 1):
        for exps in product(range(2, max_a + 1), repeat=n):
            yield ChainPolynomial(exps)


# ------------------------------------------------------------- zeta poly

def test_zeta_2_2():
    zeta = zeta_polynomial(ChainPolynomial((2, 2)))
    # oracle: (1-t)(1-t^4)/(1-t^2) multiplied back out
    assert zeta == Poly((1, -1, 1, -1))
    assert zeta * Poly((1, 0, -1)) == Poly((1, -1)) * Poly((1, 0, 0, 0, -1))


def test_zeta_2_2_2():
    zeta = zeta_polynomial(ChainPolynomial((2, 2, 2)))
    assert zeta == Poly((1, 1, 0, 0, 1, 1))
    assert zeta == Poly((1, 1)) * Poly((1, 0, 0, 0, 1))


def test_zeta_one_variable():
    for a in range(2, 7):
        zeta = zeta_polynomial(ChainPolynomial((a,)))
        assert zeta == Poly((1,) * a)


def test_zeta_invariants_grid():
    for f in chains(4, 5):
        zeta = zeta_polynomial(f)
        mu = numerics(f).milnor
        assert zeta.degree == mu
        assert zeta.coeff(0) == 1
        sign = (-1) ** (f.n + 1)
        for i in range(mu + 1):
            assert zeta.coeff(mu - i) == sign * zeta.coeff(i)


# ---------------------------------------------------------- euler matrix

def test_euler_matrix_2_2():
    series = euler_series(ChainPolynomial((2, 2)))
    n = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert dense_euler_matrix(series) == IntMatrix.identity(3) + n
    assert series == (1, 1, 0)


def test_euler_matrix_3_2():
    series = euler_series(ChainPolynomial((3, 2)))
    assert series == (1, 1, 1, 0)
    # matches (1 - N^3)/(1 - N) with N the 4x4 regular nilpotent
    nil = IntMatrix([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
    assert dense_euler_matrix(series) == IntMatrix.identity(4) + nil + nil * nil


def test_euler_matrix_2_2_2():
    series = euler_series(ChainPolynomial((2, 2, 2)))
    assert series == (1, -1, 1, -1, 0)


def test_euler_inverse_convolution_grid():
    # paper-facing identity: sum_i c_i c'_{j-i} = 0 for every j >= 1
    for f in chains(3, 4):
        zeta = zeta_polynomial(f)
        series = euler_series(f)
        mu = numerics(f).milnor
        for j in range(1, mu):
            conv = sum(series[i] * zeta.coeff(j - i)
                       for i in range(j + 1))
            assert conv == 0


# ------------------------------------------------------------- companion

def test_companion_2_2():
    f = ChainPolynomial((2, 2))
    zeta = zeta_polynomial(f)
    m1 = companion_matrix(zeta, f)
    assert m1 == IntMatrix([[1, 1, 0], [-1, 0, 1], [1, 0, 0]])
    # determinant oracle: Berkowitz det(t-M1) reversed equals the zeta poly
    assert charpoly_division_free(m1).reversal(3) == zeta


def test_companion_one_variable():
    f = ChainPolynomial((2,))
    assert companion_matrix(zeta_polynomial(f), f) == IntMatrix([[-1]])


def test_companion_grid_roots_zeta():
    for f in chains(2, 4):
        zeta = zeta_polynomial(f)
        m1 = companion_matrix(zeta, f)
        mu = numerics(f).milnor
        assert charpoly_division_free(m1).reversal(mu) == zeta


def test_companion_certificate_is_the_matrix_size():
    for f in chains(3, 4):
        zeta = zeta_polynomial(f)
        assert companion_certificate(zeta, f) == companion_matrix(zeta, f).rows == zeta.degree


def test_companion_root_builds_no_dense_matrix():
    rep = run_checks(ChainPolynomial((3, 3, 3)), INVARIANT_CHECKS)
    assert rep.check("companion_root").status == "pass"
    assert rep.check("companion_root").detail == {"size": 20}


@pytest.mark.parametrize("exps", [(2, 2, 3), (3, 3, 3, 3, 3, 3)])
def test_companion_root_rebuilds_the_zeta_polynomial(monkeypatch, exps):
    """The certificate's zeta polynomial is rebuilt from the chain, not read
    back: a run of companion_root alone makes two alternating products, the
    run's and the certificate's, in every run of the process, and the two
    polynomials are equal but distinct objects."""
    import chainfact.invariants as inv
    f, products, real = ChainPolynomial(exps), [], inv.alternating_product
    monkeypatch.setattr(inv, "alternating_product",
                        lambda plus, minus: products.append(real(plus, minus))
                        or products[-1])
    for _ in range(2):
        products.clear()
        assert run_checks(f, ("companion_root",)).passed
        assert len(products) == 2
        assert products[0] == products[1] and products[0] is not products[1]


def _feed_the_check(monkeypatch, bad):
    """The first read of the chain's zeta polynomial gets ``bad``: in a run of
    companion_root alone, the check's own read.  Every later read, such as
    the certificate's recomputation from the chain, gets the real one."""
    import chainfact.invariants as inv
    reads = [bad]
    monkeypatch.setattr(inv, "zeta_polynomial",
                        lambda f: reads.pop() if reads else zeta_polynomial(f))


def test_companion_root_rejects_corrupted_zeta(monkeypatch):
    f = ChainPolynomial((2, 2, 3))
    zeta = zeta_polynomial(f)
    coeffs = list(zeta.coeffs)
    coeffs[0] += 1                       # the unit the certificate must reproduce
    bad = Poly(coeffs)
    with pytest.raises(VerificationFailure):
        companion_certificate(bad, f)
    with pytest.raises(VerificationFailure):
        companion_matrix(bad, f)
    _feed_the_check(monkeypatch, bad)
    check = run_checks(f, ("companion_root",)).check("companion_root")
    assert check.status == "fail"
    assert check.detail["witness"]["zeta"] == coeffs


def test_companion_root_rejects_zeta_corrupted_inside(monkeypatch):
    # The companion of a corrupted polynomial roots that polynomial exactly;
    # only the chain's own zeta polynomial exposes the t^3 coefficient.
    f = ChainPolynomial((2, 2, 3))
    zeta = zeta_polynomial(f)
    coeffs = list(zeta.coeffs)
    coeffs[3] += 5
    bad = Poly(coeffs)
    with pytest.raises(VerificationFailure) as exc:
        companion_certificate(bad, f)
    assert exc.value.witness["det"] == tuple(coeffs)
    assert exc.value.witness["chain_zeta"] == zeta.coeffs
    with pytest.raises(VerificationFailure):
        companion_matrix(bad, f)
    _feed_the_check(monkeypatch, bad)
    check = run_checks(f, ("companion_root",)).check("companion_root")
    assert check.status == "fail"
    assert check.detail["witness"]["zeta"] == coeffs
    assert check.detail["witness"]["chain_zeta"] == list(zeta.coeffs)


# ------------------------------------------------------------- monodromy

def monodromy(f):
    """(det(1 - tM), the gcd exponents) of ``f``, from a zeta polynomial and
    an Euler series built for the call."""
    zeta = zeta_polynomial(f)
    return monodromy_data(f, zeta, euler_matrix(f, zeta))


def test_monodromy_2_2():
    f = ChainPolynomial((2, 2))
    det, exps = monodromy(f)
    assert monodromy_matrix(f) == IntMatrix([[0, 0, 1], [1, 0, -1], [0, 1, 1]])
    assert monodromy_matrix(f) == matrix_power(companion(f), 3)
    assert det == Poly((1, -1, 1, -1))
    assert exps == (1, 1, 1)


def test_monodromy_sign_one_variable():
    f = ChainPolynomial((2,))
    det, _ = monodromy(f)
    assert monodromy_matrix(f) == IntMatrix([[-1]])
    assert det == Poly((1, 1))


def test_monodromy_power_vs_binary_exponentiation():
    for exps in [(2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3)]:
        f = ChainPolynomial(exps)
        assert monodromy_matrix(f) == matrix_power(companion(f), numerics(f).milnor)


def test_monodromy_unimodular():
    for exps in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
        assert det_bareiss(monodromy_matrix(ChainPolynomial(exps))) in (1, -1)


@pytest.mark.parametrize("exps", [(3, 3, 3), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (4, 4, 4)])
def test_newton_route_matches_berkowitz_beyond_the_pipeline_limit(exps):
    # beyond BERKOWITZ_CHAINS: mu = 20, 21, 42 and 52
    f = ChainPolynomial(exps)
    mu = numerics(f).milnor
    det, _ = monodromy(f)
    assert det == charpoly_division_free(monodromy_matrix(f)).reversal(mu)


def test_newton_route_rejects_a_wrong_period():
    f = ChainPolynomial((2, 2, 3))
    nm = numerics(f)
    period = nm.cum_products[-1]
    _det_one_minus_t_via_traces(nm.cum_products, nm.milnor, period)
    with pytest.raises(VerificationFailure, match="period-locked"):
        _det_one_minus_t_via_traces(nm.cum_products, nm.milnor, period + 1)


def test_newton_route_rejects_non_integral_coefficients(monkeypatch):
    # period-locked power sums s = (2, 1, 0, 2, 1, 0) with mu = 2, period 3
    # give the traces (0, 1) of the square, and 2 b_2 = -1
    import chainfact.invariants as inv
    monkeypatch.setattr(inv, "_power_sums", lambda cum, upto: [2, 1, 0, 2, 1, 0])
    with pytest.raises(VerificationFailure, match="non-integral") as exc:
        _det_one_minus_t_via_traces((1, 3), 2, 3)
    assert exc.value.witness == {"index": 2, "value": -1}


def test_power_sums_match_the_coefficient_recursion():
    """The divisor formula gives the power sums that Newton's recursion
    reads off the zeta coefficients, through three periods of the trace
    sequence, on every chain of SMALL_CHAINS and on 13,13,13,13 (mu 26 521)
    through one period and three terms."""
    from test_homcalc import SMALL_CHAINS
    for exps in SMALL_CHAINS + [(13, 13, 13, 13)]:
        nm = numerics(ChainPolynomial(exps))
        zeta = zeta_polynomial(ChainPolynomial(exps))
        period = nm.cum_products[-1]
        upto = period + 3 if exps == (13, 13, 13, 13) else 3 * period
        assert (_power_sums(nm.cum_products, upto)
                == power_sums_by_recursion(zeta.coeffs, zeta.degree, upto)), exps


def test_zeta_factorization_2_2():
    f = ChainPolynomial((2, 2))
    det, exps = monodromy(f)
    assert check_zeta_factorization(det, exps, f)


def test_zeta_factorization_3_2():
    f = ChainPolynomial((3, 2))
    det, exps = monodromy(f)
    assert exps == (1, 1, 2)
    # independent expansion: (1-t)(1-t^3) per the gcd-adjusted product
    assert det == Poly((1, -1)) * Poly((1, 0, 0, -1))
    assert check_zeta_factorization(det, exps, f)


def test_zeta_factorization_2_2_2():
    f = ChainPolynomial((2, 2, 2))
    det, exps = monodromy(f)
    assert exps == (1, 1, 1, 1)
    assert check_zeta_factorization(det, exps, f)


# ------------------------------------------------------- monodromy oracle

def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == Poly((-1, 1))
    assert cyclotomic_polynomial(2) == Poly((1, 1))
    assert cyclotomic_polynomial(4) == Poly((1, 0, 1))
    assert cyclotomic_polynomial(6) == Poly((1, -1, 1))


def test_oracle_2_2():
    td = transpose(ChainPolynomial((2, 2)))
    # hand oracle: Poincare product (t^2-1)(t^3-1)/((t^2-1)(t-1)) = 1+t+t^2,
    # exponents {3/4, 0, 1/4}, so (t-1)(t^2+1)
    assert transpose_monodromy_charpoly(td) == Poly((-1, 1, -1, 1))


def test_oracle_single_variable():
    td = transpose(ChainPolynomial((2,)))
    assert transpose_monodromy_charpoly(td) == Poly((1, 1))


def test_oracle_matches_reversed_charpoly():
    for exps in [(2,), (3,), (4,), (2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2)]:
        f = ChainPolynomial(exps)
        det, _ = monodromy(f)
        mu = numerics(f).milnor
        reversed_poly = det.reversal(mu)
        assert transpose_monodromy_charpoly(transpose(f)) == reversed_poly


# ------------------------------------------------------------ lattice, k

def test_lattice_2_2():
    f = ChainPolynomial((2, 2))
    assert check_lattice_correspondence(euler_series(f), zeta_polynomial(f))


def test_lattice_det_via_bareiss():
    for exps in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
        series = euler_series(ChainPolynomial(exps))
        assert det_bareiss(dense_euler_matrix(series)) == 1


def test_lattice_congruence_generic_unitriangular():
    # the congruence is an algebraic identity for any unitriangular matrix;
    # regression-check it directly on a non-Toeplitz example
    import random

    rng = random.Random(23)
    for _ in range(10):
        k = rng.randint(1, 5)
        chi = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
                for j in range(k)] for i in range(k)]
        # invert the unitriangular matrix by back substitution
        inv = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for i in range(k - 1, -1, -1):
            for j in range(i + 1, k):
                f = chi[i][j]
                if f:
                    for c in range(k):
                        inv[i][c] -= f * inv[j][c]
        chit = [list(r) for r in zip(*chi)]
        invt = [list(r) for r in zip(*inv)]
        sym = [[a + b for a, b in zip(r, s)] for r, s in zip(chi, chit)]
        lhs = int_mat_mul(int_mat_mul(inv, sym), invt)
        rhs = [[a + b for a, b in zip(r, s)] for r, s in zip(inv, invt)]
        assert lhs == rhs


# ------------------------------------------- series routes vs dense oracle

def _small_chains(max_mu):
    """Every chain with all exponents >= 2 and Milnor number <= max_mu.

    mu >= a_1 ... a_{n-1} (a_n - 1) >= a_1 ... a_n / 2 bounds the search.
    """
    out = []
    for n in range(1, 6):
        top = 2 * max_mu // 2 ** (n - 1)
        for exps in product(range(2, top + 1), repeat=n):
            if prod(exps) <= 2 * max_mu:
                f = ChainPolynomial(exps)
                if numerics(f).milnor <= max_mu:
                    out.append(f)
    return out


SMALL_CHAINS = _small_chains(30)


def test_small_chain_family_covers_torsion_and_parities():
    exps = {f.exponents for f in SMALL_CHAINS}
    assert {(2, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2, 3)} <= exps
    assert {f.n % 2 for f in SMALL_CHAINS} == {0, 1}
    assert any(not build_grading_group(f).is_torsion_free() for f in SMALL_CHAINS)


@pytest.mark.parametrize("f", SMALL_CHAINS, ids=lambda f: ",".join(map(str, f.exponents)))
def test_series_routes_match_dense_products(f):
    zeta = zeta_polynomial(f)
    series = euler_series(f)
    mu = numerics(f).milnor
    sign = (-1) ** f.n
    w = toeplitz_upper(zeta.coeffs[:mu], mu)
    chi = dense_euler_matrix(series)
    dense_a = w * chi.transpose() * sign
    assert matrix_from_columns(toeplitz_product_columns(
        zeta.coeffs, series, sign)) == dense_a
    assert monodromy_matrix(f) == dense_a
    assert monodromy_matrix(f) == matrix_power(companion(f), mu)
    assert matrix_from_columns(companion_power_columns(zeta.coeffs, mu)) == dense_a
    # the identities the series checks stand for
    assert w * chi == IntMatrix.identity(mu)
    assert w * (chi + chi.transpose()) * w.transpose() == w + w.transpose()


def test_toeplitz_recurrence_on_random_pairs():
    rng = random.Random(31)
    for _ in range(60):
        mu = rng.randint(1, 9)
        w = [rng.randint(-4, 4) for _ in range(mu + rng.randint(0, 2))]
        c = [rng.randint(-4, 4) for _ in range(mu)]
        sign = rng.choice((1, -1))
        dense = toeplitz_upper(w[:mu], mu) * toeplitz_upper(c, mu).transpose() * sign
        assert matrix_from_columns(toeplitz_product_columns(w, c, sign)) == dense


# every chain with mu <= 16; monodromy_data itself runs no dense cross-check
BERKOWITZ_CHAINS = _small_chains(16)


@pytest.mark.parametrize("f", BERKOWITZ_CHAINS, ids=lambda f: ",".join(map(str, f.exponents)))
def test_newton_route_matches_berkowitz_on_small_chains(f):
    """det(1 - t*M) from the traces of C^mu equals the reversed Berkowitz
    characteristic polynomial of the dense operator sign * W chi^T."""
    mu = numerics(f).milnor
    det, _ = monodromy(f)
    assert det == charpoly_division_free(monodromy_matrix(f)).reversal(mu)


def _corrupted(f, k, delta=1):
    coeffs = list(euler_series(f))
    coeffs[k] += delta
    return tuple(coeffs)


@pytest.mark.parametrize("exps", [(2, 2), (3, 3), (2, 2, 3), (3, 2, 2), (4, 4, 4, 4, 4)])
def test_corrupted_series_is_rejected(exps):
    f = ChainPolynomial(exps)
    zeta = zeta_polynomial(f)
    mu = zeta.degree
    for k in {1, mu // 2, mu - 1} - {0}:
        bad = _corrupted(f, k)
        with pytest.raises(VerificationFailure) as err:
            check_lattice_correspondence(bad, zeta)
        assert err.value.witness == {"index": k, "coefficient": 1}
        with pytest.raises(VerificationFailure) as err:
            check_monodromy_routes(bad, zeta, f)
        assert err.value.witness == certificate_witness(bad, zeta, f)
        assert monodromy_column_difference(bad, zeta, f) is not None


def test_certificate_witness_on_2_2():
    # z = (1, -1, 1, -1), t = (-1, 1, -1), c = (1, 1, 0) corrupted to (1, 2, 0):
    # y = c+ + chi^T t = (1, -1, 1), u_0 = -(W y)_0 = -3, q_0 = (chi z)_0 = -1
    f = ChainPolynomial((2, 2))
    zeta = zeta_polynomial(f)
    with pytest.raises(VerificationFailure) as err:
        check_monodromy_routes(_corrupted(f, 1), zeta, f)
    assert err.value.witness == {"condition": "u + q_0 t = 0", "index": 0,
                                 "got": -3, "want": -1}


def test_non_unitriangular_or_short_series_is_rejected():
    f = ChainPolynomial((3, 3))
    zeta = zeta_polynomial(f)
    with pytest.raises(VerificationFailure) as err:
        check_lattice_correspondence(_corrupted(f, 0, 1), zeta)
    assert err.value.witness == {"index": 0, "coefficient": 2}
    with pytest.raises(VerificationFailure) as err:
        check_monodromy_routes(_corrupted(f, 0, 1), zeta, f)
    assert err.value.witness == {"condition": "c_0 = 1", "index": 0, "got": 2, "want": 1}
    short = euler_series(f)[:-1]
    for check in (lambda: check_lattice_correspondence(short, zeta),
                  lambda: check_monodromy_routes(short, zeta, f)):
        with pytest.raises(VerificationFailure) as err:
            check()
        assert err.value.witness == {"length": zeta.degree - 1, "milnor": zeta.degree}


def _mutants(f):
    """+1 on c at 1, mu // 3 and mu - 1, and +1 on z at mu // 2."""
    zeta = zeta_polynomial(f)
    mu = zeta.degree
    for k in sorted({1, mu // 3, mu - 1}):
        yield f"c{k}", _corrupted(f, k), zeta
    z = list(zeta.coeffs)
    z[mu // 2] += 1
    yield f"z{mu // 2}", euler_series(f), Poly(z)


# the prototype's chains; (2, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2, 3) are torsion
@pytest.mark.parametrize("exps", [
    (2, 2), (2, 3), (3, 3, 3), (2, 2, 3), (3, 2, 2), (2, 2, 2, 2), (4, 4, 4),
    (2, 3, 2, 3), (5, 4, 3), (5, 5, 5, 5), (3, 3, 3, 3, 3, 3), (4, 4, 4, 4, 4),
    (7, 7, 7, 7), (9, 9, 9, 9)], ids=lambda e: ",".join(map(str, e)))
def test_certificate_matches_the_column_comparison(exps):
    f = ChainPolynomial(exps)
    zeta, series = zeta_polynomial(f), euler_series(f)
    assert check_monodromy_routes(series, zeta, f)
    assert monodromy_column_difference(series, zeta, f) is None
    for name, series_bad, zeta_bad in _mutants(f):
        assert monodromy_column_difference(series_bad, zeta_bad, f) is not None, name
        expected = certificate_witness(series_bad, zeta_bad, f)
        # conditions 1 and 2 imply r = q, so the oracle never reaches it
        assert expected["condition"] != "r = q", name
        with pytest.raises(VerificationFailure) as err:
            check_monodromy_routes(series_bad, zeta_bad, f)
        assert set(err.value.witness) == {"condition", "index", "got", "want"}
        assert err.value.witness == expected, name


CERTIFICATE_CHAINS = _small_chains(60)
CERTIFICATE_TORSION = [f for f in CERTIFICATE_CHAINS
                       if not build_grading_group(f).is_torsion_free()]


# Half the chains are drawn from the torsion ones.  The z corruptions stay
# below z_mu, whose loss would change the degree and so mu itself.
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(f=st.sampled_from(CERTIFICATE_CHAINS) | st.sampled_from(CERTIFICATE_TORSION),
       in_z=st.booleans(), pick=st.integers(0, 10 ** 6), delta=st.integers(-3, 3))
@example(f=ChainPolynomial((2, 3)), in_z=False, pick=2, delta=-1)          # torsion Z/2
@example(f=ChainPolynomial((2, 2, 3)), in_z=True, pick=4, delta=2)         # torsion Z/4
@example(f=ChainPolynomial((3, 2, 2)), in_z=False, pick=0, delta=1)        # c_0
def test_certificate_passes_exactly_when_the_columns_agree(f, in_z, pick, delta):
    zeta, series = zeta_polynomial(f), euler_series(f)
    mu = zeta.degree
    k = pick % mu
    if in_z:
        z = list(zeta.coeffs)
        z[k] += delta
        zeta = Poly(z)
    else:
        series = _corrupted(f, k, delta)
    expected = certificate_witness(series, zeta, f)
    assert (expected is None) == (monodromy_column_difference(series, zeta, f) is None)
    # conditions 1 and 2 imply r = q, so the oracle never reaches it
    assert expected is None or expected["condition"] != "r = q"
    if expected is None:
        assert check_monodromy_routes(series, zeta, f)
    else:
        with pytest.raises(VerificationFailure) as err:
            check_monodromy_routes(series, zeta, f)
        assert err.value.witness == expected


def test_large_mu_builds_no_dense_monodromy():
    # a dense mu x mu operator holds 8 mu^2 bytes of references alone; the
    # battery on 4,4,4,4,4 (mu = 819) peaks below mu^2 bytes
    for exps in [(3, 3, 3), (2, 3, 2, 3), (4, 4, 4, 4, 4)]:
        f = ChainPolynomial(exps)
        tracemalloc.start()
        try:
            rep = run_checks(f, INVARIANT_CHECKS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.status == "pass" for c in rep.checks)
    assert peak < 4 * numerics(f).milnor ** 2


def test_polarization_2_2():
    assert polarization_integer(ChainPolynomial((2, 2))) == 0


def test_polarization_single():
    assert polarization_integer(ChainPolynomial((2,))) == -1


def test_polarization_exists_grid():
    for f in chains(4, 4):
        polarization_integer(f)   # must not raise


# --------------------------------------------------------- full grid suite

def test_identities_small_grid():
    for f in chains(3, 3):
        det, exps = monodromy(f)
        assert check_zeta_factorization(det, exps, f)
        assert check_lattice_correspondence(euler_series(f), zeta_polynomial(f))


def test_failure_carries_witness():
    with pytest.raises(VerificationFailure) as err:
        raise VerificationFailure("boom", {"k": 1})
    assert err.value.witness == {"k": 1}
