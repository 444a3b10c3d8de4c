"""The Hom side of a run: the object families and the checks that read Homs.

This module builds the distinguished collection and the triangles' third
objects from monomial splittings, and holds ``HomRun``: the collection,
Hom-table, exceptionality, Euler, Serre and triangle checks, with the cone
search behind ``triangle_structural``.  It is the orchestration layer's one
importer of the Hom engine, and it calls ``mf`` and ``homcalc`` through
their modules, so a patch on either reaches every check.  A run asks every
Hom dimension through its one ``homcalc.HomEngine``, by graded Künneth
between the bases stabilized here: each key's nonzero powers in one read,
with no window scan, and the cone search asks none (it certifies an
isomorphism).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import homcalc, mf
from .chain import (
    ChainPolynomial,
    Degree,
    VerificationFailure,
    build_grading_group,
)
from .exactmath import Echelon, MPoly
from .verify import _Run

TABLE_MARGIN = 3        # powers stored beyond each certified Hom window


# ---------------------------------------------------------------------------
# collection construction
# ---------------------------------------------------------------------------

def _cofactors(f: ChainPolynomial, gens) -> list[MPoly]:
    """The cofactors h_i with sum(g_i * h_i) = f, derived from the generators.

    Each monomial of f goes to the first generator (read by its leading term)
    that divides it, and a generator's cofactor is the sum of its monomials
    divided by it.  ``stabilize`` refuses generators that are not monomials
    in pairwise disjoint variables.
    """
    leads = [next(iter(g.terms.items())) for g in gens]
    terms = [{} for _ in gens]
    for m in f.monomial_exponents():
        for out, (e, c) in zip(terms, leads):
            if all(a >= b for a, b in zip(m, e)):
                out[tuple(a - b for a, b in zip(m, e))] = Fraction(1) / c
                break
        else:
            raise ValueError(f"no generator divides the monomial {m} of f")
    return [MPoly(f.n, t) for t in terms]


def collection_splitting(f: ChainPolynomial):
    """Generator/cofactor splitting behind the distinguished collection.

    Odd variable counts quotient by the odd-indexed variables, even counts by
    the even-indexed ones.  Returns (gens, cofs, step) where step is the
    one-object twist of the collection.
    """
    n = f.n
    g = build_grading_group(f)
    if n % 2:
        gens = [MPoly.variable(n, j) for j in range(0, n, 2)]     # x1, x3, ...
        step = -g.variable_degree(0)
    else:
        gens = [MPoly.variable(n, j) for j in range(1, n, 2)]     # x2, x4, ...
        step = g.variable_degree(0)
    return gens, _cofactors(f, gens), step


def collection_base(f: ChainPolynomial):
    """(base, step): the base stabilization and the one-object twist, so
    that E_i = base(i * step)."""
    gens, cofs, step = collection_splitting(f)
    return mf.stabilize(f, gens, cofs), step


def auxiliary_splitting(f: ChainPolynomial):
    """Splitting for the triangle third objects (even variable count).

    Quotients by x1 together with the even-indexed variables, so the first
    two cofactors split the leading monomials between x1 and x2.
    """
    n = f.n
    if n % 2:
        raise ValueError("auxiliary objects need an even variable count")
    gens = [MPoly.variable(n, j) for j in (0, *range(1, n, 2))]
    return gens, _cofactors(f, gens)


def ladder_splitting(f: ChainPolynomial, j: int):
    """Splitting for the ladder objects (odd count, first generator x1^j)."""
    n = f.n
    if n % 2 == 0 or n < 3:
        raise ValueError("ladder objects need an odd count of at least three")
    if not 1 <= j <= f.exponents[0]:
        raise ValueError("ladder index out of range")
    gens = [MPoly.variable(n, 0, j)] + [MPoly.variable(n, i) for i in range(2, n, 2)]
    return gens, _cofactors(f, gens)


def ladder_object(f: ChainPolynomial, i: int, j: int) -> mf.MatrixFactorization:
    if j == 0 or j == f.exponents[0] + 1:
        return mf.zero_object(f)
    gens, cofs = ladder_splitting(f, j)
    g = build_grading_group(f)
    return mf.shift(mf.stabilize(f, gens, cofs), -i * g.variable_degree(0))


# ---------------------------------------------------------------------------
# the Hom checks of a run
# ---------------------------------------------------------------------------

class HomRun(_Run):
    """A run whose checks read Hom spaces, on top of the matrix-level ones.

    The triangle checks read three object families: collection object i is
    base(i * step); for even n, auxiliary object i is Aux(i * deg x1); for
    odd n, ladder object (i, j) is L_j(-i * deg x1), zero for j = 0 and
    j = a1 + 1.  Each base (the collection base, Aux, and L_j for each width
    j = 1..a1) goes through the validating ``stabilize`` once per run; the
    few objects a check builds (the cone search's triangles and references,
    E_offset for the ladder base check) are reached with the trusted
    ``shift`` of a base, as a twisted stabilization is the shift of the
    untwisted one.  Every Hom dimension that a check reads (the table, its
    Serre-dual keys and the Euler entries; the cone search reads none)
    goes through the run's one ``HomEngine``, on a key from the collection
    base into a base.  The engine owns the Hom memos, the Künneth basis per
    pair and the Euler number per key, and the run owns the engine, the
    bases and the table as cached properties; no check keeps a memo of its
    own.

    The collection step is deg x1 at even n and -deg x1 at odd n, so object
    i of every family is Y(i * step) for its base Y, and
    chi(E_{i-e}, Y(i * step)) has the key (base, Y, e * step) for every i
    (see :meth:`orbit_key`): the Euler checks read each e once, on its key,
    and build no object.
    """

    @cached_property
    def base(self) -> tuple[mf.MatrixFactorization, Degree]:
        """(the collection base, the one-object twist step)"""
        return collection_base(self.f)

    @cached_property
    def aux_base(self) -> mf.MatrixFactorization:
        return mf.stabilize(self.f, *auxiliary_splitting(self.f))

    @cached_property
    def ladder_bases(self) -> dict[int, mf.MatrixFactorization]:
        return {j: mf.stabilize(self.f, *ladder_splitting(self.f, j))
                for j in range(1, self.f.exponents[0] + 1)}

    def collection_object(self, i: int) -> mf.MatrixFactorization:
        base, step = self.base
        return mf.shift(base, i * step)

    def auxiliary(self, i: int) -> mf.MatrixFactorization:
        return mf.shift(self.aux_base,
                        i * build_grading_group(self.f).variable_degree(0))

    def ladder(self, i: int, j: int) -> mf.MatrixFactorization:
        if j == 0 or j == self.f.exponents[0] + 1:
            return mf.zero_object(self.f)
        return mf.shift(self.ladder_bases[j],
                        -i * build_grading_group(self.f).variable_degree(0))

    @cached_property
    def homs(self) -> homcalc.HomEngine:
        """The run's Hom engine: every check's queries share its memos."""
        return homcalc.HomEngine()

    @cached_property
    def table(self) -> homcalc.HomTable:
        """The Hom table of the collection, TABLE_MARGIN powers past each window."""
        return self.homs.table(*self.base, self.nm.milnor, TABLE_MARGIN)

    @cached_property
    def exc(self) -> dict:
        return homcalc.check_exceptionality(self.table)

    def collection(self):
        # every object is a shift of the base, and a shift keeps the size
        base, mu = self.base[0], self.nm.milnor
        want, size = 2 ** (len(base.splitting[0]) - 1), base.size
        if size != want:
            raise VerificationFailure("collection object of unexpected size",
                                      {"sizes": [size] * mu})
        return {"objects": mu, "size": want}

    def hom_table(self):
        return {"entries": self.table.entry_count(),
                "window_hull": list(self.table.hull())}

    def exceptionality(self):
        if not self.exc["exceptional"]:
            raise VerificationFailure("collection is not exceptional",
                                      {"failures": self.exc["failures"]})
        return {"strong": self.exc["strong"]}

    def euler_pairing_matches(self):
        table, series = self.table, self.euler_series
        want = {d: series[d] if 0 <= d < len(series) else 0 for d in table.columns}
        if any(table.euler(d) != w for d, w in want.items()):
            mu = table.objects
            raise VerificationFailure(
                "Euler pairing differs from the Toeplitz matrix",
                {"engine": homcalc.euler_pairing(table),
                 "matrix": [[want[j - i] for j in range(mu)] for i in range(mu)]})
        return {"matrix": homcalc.euler_pairing(table)}

    def serre_symmetry(self):
        # Hom(A, T^p A(l)) is dual to Hom(A, T^(n-p) A(-sigma - l)), sigma the
        # sum of the variable degrees: this certifies the graded Gorenstein
        # symmetry of the one Künneth basis of (A, A), not an agreement of
        # two routes.  Each column d, over its stored powers, against the
        # landing of the Serre-dual key (A, A, -sigma - d step) at n - p.
        (A, step), n, table = self.base, self.f.n, self.table
        sigma = A.group.monomial_degree((1,) * n)
        for d, (_, dims) in table.columns.items():
            stored = table.stored(d)
            dual = self.homs.homs((A, A, -sigma - d * step)).items()
            if {n - q: x for q, x in dual if n - q in stored} != dims:
                raise VerificationFailure("Serre symmetry violated on the table")
        return {}

    def nakayama_cartan(self):
        a1, mu, table = self.f.exponents[0], self.nm.milnor, self.table
        if not self.exc["strong"]:
            raise VerificationFailure("collection is not strong")
        # the pair (i, j) reads column j - i at power 0: one test per diagonal,
        # and the first failing pair in row-major order as the witness
        want = {d: 1 if 0 <= d < a1 else 0 for d in range(1 - mu, mu)}
        bad = {d for d, w in want.items() if table.columns[d][1].get(0, 0) != w}
        if bad:
            i, j = next((i, j) for i in range(mu) for j in range(mu) if j - i in bad)
            raise VerificationFailure(
                "path-algebra dimension table mismatch",
                {"i": i, "j": j, "got": table.columns[j - i][1].get(0, 0),
                 "want": want[j - i]})
        return {"quiver_length": mu, "nilpotency": a1}

    def orbit_key(self, target: mf.MatrixFactorization, e: int) -> tuple:
        """The key of Hom(E_{i-e}, target(i * step)), the same for every i:
        (base, target, e * step), on the collection base and the target as
        given."""
        base, step = self.base
        return base, target, e * step

    def _orbit_euler(self, target: mf.MatrixFactorization):
        """e -> chi(E_{i-e}, target(i * step)), read on its orbit key; the
        engine's Euler memo answers a repeated e."""
        return lambda e: self.homs.euler_at(self.orbit_key(target, e))

    def triangle_euler_additivity(self):
        # chi(E_m, E_{k-1}) - chi(E_m, E_k) + chi(E_m, Aux(offset + k)) for
        # k = 1..mu-1, m = 0..mu-1, with E_m the collection's object m.  The
        # step and the auxiliary twist are both deg x1, so it depends on
        # d = k - m only: one total per d, expanded over (k, m) on failure.
        mu = self.nm.milnor
        coll, aux = self._orbit_euler(self.base[0]), self._orbit_euler(self.aux_base)
        totals = {d: coll(d - 1) - coll(d) + aux(d) for d in range(2 - mu, mu)}
        if any(totals.values()):
            bad = [{"i": self.offset + k, "total": totals[k - m]}
                   for k in range(1, mu) for m in range(mu) if totals[k - m]]
            raise VerificationFailure("Euler additivity failed", {"cases": bad})
        return {"triangles": mu - 1, "probes": mu}

    def _ladder_totals(self):
        """(j, e) -> the Euler total of the width-j ladder triangle of any
        row i against E_{i-e}, L(i+1, j) - L(i, j+1) - L(i+1, j-1) + L(i, j),
        where chi(E_{i-e}, L(i', j')) is zero at the widths 0 and a1 + 1 and
        is otherwise read once per (j', e + i' - i), on the orbit key of L_j'."""
        by_width = {j: self._orbit_euler(L) for j, L in self.ladder_bases.items()}

        def chi(j, e):
            return by_width[j](e) if j in by_width else 0

        return lambda j, e: chi(j, e + 1) - chi(j + 1, e) - chi(j - 1, e + 1) + chi(j, e)

    def _ladder_rows(self):
        return range(self.offset, self.offset + min(self.nm.milnor - 1, 3))

    def ladder_euler_additivity(self):
        a1, mu, bad = self.f.exponents[0], self.nm.milnor, []
        total = self._ladder_totals()
        for i in self._ladder_rows():
            for j in range(1, a1):
                for m in range(mu):
                    got = total(j, i - self.offset - m)
                    if got != 0:
                        bad.append({"i": i, "j": j, "total": got})
        if bad:
            raise VerificationFailure("ladder Euler identity failed", {"cases": bad})
        return {"ladder_width": a1, "widths_checked": list(range(1, a1))}

    def ladder_boundary_width_a1(self):
        # The printed width-a1 instance reads the out-of-category object as
        # zero; its Euler defect is then forced to be the class sum of a1+1
        # consecutive collection objects, which is nonzero.  Pin the defect
        # exactly so any drift is caught.  Probe m, E_{offset+m}, reads the
        # class E_{i+k} on the orbit key of e + k, e = i - offset - m.
        a1, mu, mismatches, boundary_holds = self.f.exponents[0], self.nm.milnor, [], True
        ladder, coll = self._ladder_totals(), self._orbit_euler(self.base[0])
        for i in self._ladder_rows():
            for m in range(mu):
                e = i - self.offset - m
                total = ladder(a1, e)
                predicted = sum(coll(e + k) for k in range(a1 + 1))
                if total != 0:
                    boundary_holds = False
                if total != predicted:
                    mismatches.append({"i": i, "total": total, "predicted": predicted})
        if mismatches:
            raise VerificationFailure(
                "boundary defect does not match the class-sum prediction",
                {"cases": mismatches})
        return ("pass" if boundary_holds else "note",
                {"literal_boundary_instance_holds": boundary_holds,
                 "defect": "sum of a1+1 consecutive collection classes"})

    def ladder_base_object(self):
        # an independently stabilized width-one ladder object against E_offset
        if ladder_object(self.f, self.offset, 1) != self.collection_object(self.offset):
            raise VerificationFailure("width-one ladder object differs from E_i")
        return {}

    def triangle_structural(self):
        if self.f.n % 2 == 0:
            i = self.offset + 1
            source, target = self.collection_object(self.offset), self.collection_object(i)
            return _search_cone_match(source, target, self.auxiliary(i)), {"i": i}
        results = []
        for j in range(1, self.f.exponents[0]):
            src = self.ladder(self.offset + 1, j)
            middle = [obj for obj in (self.ladder(self.offset, j + 1),
                                      self.ladder(self.offset + 1, j - 1)) if obj.size]
            target = mf.direct_sum(*middle) if len(middle) == 2 else middle[0]
            status = _search_cone_match(src, target, self.ladder(self.offset, j))
            results.append({"j": j, "status": status})
        overall = "pass" if all(x["status"] == "pass" for x in results) else "inconclusive"
        return (overall, {"cases": results})


# ---------------------------------------------------------------------------
# cone search
# ---------------------------------------------------------------------------

def _constant_rank(phi: mf.GradedMatrix) -> int:
    """Rank of the constant terms of a graded map's entries."""
    one = (0,) * phi.group.chain.n
    return Echelon([{c: p.terms.get(one, 0) for c, p in enumerate(row)}
                    for row in phi.entries]).rank


def _isomorphic(C: mf.MatrixFactorization, R: mf.MatrixFactorization) -> bool:
    """Whether a basis morphism of Hom^0(C, R) is an isomorphism.

    Sound: entry (r, c) of a degree-0 map of graded free modules has weight
    w_c - w_r, for the twist weights of its source and target.  Every
    variable has positive weight, so a nonzero entry has w_c >= w_r and is a
    constant exactly when w_c = w_r.  With both bases ordered by weight the
    map is block upper-triangular, its diagonal blocks are its constant
    part, and a full-rank constant part makes them square and invertible:
    the map is invertible over the polynomial ring.  A morphism with both
    components invertible is an isomorphism of factorizations.

    Complete for reduced C and R when Hom^0(C, R) is one-dimensional: a
    null-homotopic map then has no constant term, and a homotopy equivalence
    of minimal factorizations is an isomorphism (Dyckerhoff,
    arXiv:0904.4713).  Otherwise False is never a refutation.
    """
    return C.size == R.size and any(
        _constant_rank(a.phi0) == _constant_rank(a.phi1) == C.size
        for a in homcalc.morphism_space_basis(C, R))


def _search_cone_match(source, target, reference) -> str:
    """Search a morphism source -> target whose reduced cone is isomorphic
    to ``reference`` (see :func:`_isomorphic`).

    Tries every basis element of the degree-zero stable Hom space and, for
    small spaces, signed sums of two basis elements; exhaustion is reported
    as inconclusive, never as a refutation.
    """
    basis = homcalc.morphism_space_basis(source, target)
    if not basis:
        return "inconclusive"
    candidates = list(basis)
    if 2 <= len(basis) <= 3:
        for a, b in combinations(basis, 2):
            for b0, b1 in ((b.phi0, b.phi1), (-b.phi0, -b.phi1)):
                candidates.append(mf.MFMorphism(a.source, a.target, a.shift,
                                                a.phi0 + b0, a.phi1 + b1))
    for phi in candidates:
        if _isomorphic(mf.reduce(mf.cone(phi)), reference):
            return "pass"
    return "inconclusive"
