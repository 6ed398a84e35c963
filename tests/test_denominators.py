"""The validators on structure constants with nontrivial denominators.

``check_axioms`` and ``check_representation`` clear denominators and work in
integers; these tests rebase algebras by a non-integer diagonal change of
basis and perturb them by entries with large coprime denominators, then
compare every reported defect with the identity evaluated directly in
Fractions through ``bracket``/``triple`` and ``Matrix`` arithmetic.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lieyamaguti import adjoint, check_axioms, check_representation, check_rlyb7, example_3dim, from_tensors
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix, vec_add, vec_sub
from lieyamaguti.representation import Representation

SCALES = (Fraction(1, 3), Fraction(5, 7), Fraction(2))
LARGE = (Fraction(1, 1009), Fraction(-2, 1013), Fraction(3, 1019), Fraction(-5, 1021))


def rebased(a, s=SCALES):
    """The same algebra in the basis f_i = s_i e_i."""
    rng = range(a.dim)
    b = [[[s[i] * s[j] * a.binary[i][j][k] / s[k] for k in rng] for j in rng] for i in rng]
    t = [
        [[[s[i] * s[j] * s[k] * a.ternary[i][j][k][l] / s[l] for l in rng] for k in rng] for j in rng]
        for i in rng
    ]
    return from_tensors(b, t, a.name)


def perturbed(a, rng, symmetric):
    b = [[list(v) for v in row] for row in a.binary]
    t = [[[list(v) for v in row] for row in plane] for plane in a.ternary]
    for q in rng.sample(LARGE, 2):
        i, j = sorted(rng.sample(range(a.dim), 2)) if symmetric else (rng.randrange(a.dim), rng.randrange(a.dim))
        k, l = rng.randrange(a.dim), rng.randrange(a.dim)
        t[i][j][k][l] += q
        if symmetric:
            t[j][i][k][l] -= q
        b[i][j][l] += q
        if symmetric:
            b[j][i][l] -= q
    return from_tensors(b, t, a.name)


def direct_ly_defect(a, axiom, tup):
    e = [a.basis_vector(i) for i in range(a.dim)]
    br, tr = a.bracket, a.triple
    if axiom == "LY1":
        i, j = tup
        return vec_add(br(e[i], e[j]), br(e[j], e[i]))
    if axiom == "LY2":
        i, j, k = tup
        return vec_add(tr(e[i], e[j], e[k]), tr(e[j], e[i], e[k]))
    if axiom in ("LY3", "LY4"):
        i, j, k = tup[:3]
        acc = (Fraction(0),) * a.dim
        for x, y, z in ((e[i], e[j], e[k]), (e[j], e[k], e[i]), (e[k], e[i], e[j])):
            if axiom == "LY3":
                acc = vec_add(acc, vec_add(br(br(x, y), z), tr(x, y, z)))
            else:
                acc = vec_add(acc, tr(br(x, y), z, e[tup[3]]))
        return acc
    if axiom == "LY5":
        x, y, u, v = (e[n] for n in tup)
        return vec_sub(tr(x, y, br(u, v)), vec_add(br(tr(x, y, u), v), br(u, tr(x, y, v))))
    x, y, u, v, w = (e[n] for n in tup)
    rhs = vec_add(tr(tr(x, y, u), v, w), vec_add(tr(u, tr(x, y, v), w), tr(u, v, tr(x, y, w))))
    return vec_sub(tr(x, y, tr(u, v, w)), rhs)


def direct_rlyb_defect(a, r, cond, tup):
    def comb(coeffs, mats):
        out = Matrix.zero(r.e, r.e)
        for c, m in zip(coeffs, mats):
            out = out + Matrix(r.e, r.e, [c * x for x in m.entries])
        return out

    rho, dm, th, d = r.rho, r.dmap, r.theta, a.dim
    if cond == "RLYB1":
        i, j = tup
        return dm[i][j] + th[i][j] - th[j][i] - (rho[i] @ rho[j] - rho[j] @ rho[i]) + comb(a.binary[i][j], rho)
    if cond == "RLYB2":
        i, j, k = tup
        return comb(a.binary[j][k], th[i]) - rho[j] @ th[i][k] + rho[k] @ th[i][j]
    if cond == "RLYB3":
        i, j, k = tup
        return comb(a.binary[i][j], [th[m][k] for m in range(d)]) - th[i][k] @ rho[j] + th[j][k] @ rho[i]
    if cond == "RLYB4":
        i, j, k, l = tup
        return th[k][l] @ th[i][j] - th[j][l] @ th[i][k] - comb(a.ternary[j][k][l], th[i]) + dm[j][k] @ th[i][l]
    if cond == "RLYB5":
        i, j, k = tup
        return dm[i][j] @ rho[k] - rho[k] @ dm[i][j] - comb(a.ternary[i][j][k], rho)
    if cond == "RLYB6":
        i, j, k, l = tup
        col = [th[m][l] for m in range(d)]
        return dm[i][j] @ th[k][l] - th[k][l] @ dm[i][j] - comb(a.ternary[i][j][k], col) - comb(a.ternary[i][j][l], th[k])
    i, j, k = tup
    out = Matrix.zero(r.e, r.e)
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        out = out + comb(a.binary[x][y], [dm[m][z] for m in range(d)])
    return out


def lowest_terms(values):
    return all(isinstance(x, Fraction) and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1 for x in values)


def cleared(rows, mode):
    """The pair (D, S) of a matrix s, with S = D * s: the form the bundle gate holds.

    In exact mode D is the LCM of the denominators of s and S a matrix of
    ints; in float mode the pair is (1, s as floats).  The bundle computed it
    from rows of Fractions this way before evaluation produced it directly.
    """
    if mode.kind != "exact":
        return 1, [[float(x) for x in row] for row in rows]
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


@pytest.mark.parametrize("base", [example_3dim(), cross_product_lie()], ids=["3dim", "crossproduct-lie"])
def test_rebased_algebras_keep_validity(base):
    a = rebased(base)
    assert any(x.denominator > 1 for row in a.ternary for v in row for w in v for x in w)
    assert check_axioms(base).ok and check_axioms(a).ok
    assert check_representation(a, adjoint(a)).ok
    assert check_rlyb7(a, adjoint(a))


@pytest.mark.parametrize("base", [example_3dim(), cross_product_lie()], ids=["3dim", "crossproduct-lie"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["reduced", "unreduced"])
def test_axiom_defects_match_direct_evaluation(base, symmetric):
    rng = random.Random(17)
    for _ in range(3):
        a = perturbed(rebased(base), rng, symmetric)
        report = check_axioms(a)
        assert not report.ok
        assert bool(report.violations["LY1"] or report.violations["LY2"]) is not symmetric
        for axiom, entries in report.violations.items():
            for tup, defect in entries:
                assert defect == direct_ly_defect(a, axiom, tup), (axiom, tup)
                assert lowest_terms(defect)


@pytest.mark.parametrize("base", [example_3dim(), cross_product_lie()], ids=["3dim", "crossproduct-lie"])
def test_representation_defects_match_direct_evaluation(base):
    a = rebased(base)
    r = adjoint(a)
    rng = random.Random(27)
    conditions = set()  # the seed makes the four candidates break all seven conditions
    for _ in range(4):
        i, j = rng.randrange(3), rng.randrange(3)
        block = Matrix(3, 3, [rng.choice(LARGE + (Fraction(0),)) for _ in range(9)])
        dmap = [list(row) for row in r.dmap]
        dmap[j][i] = dmap[j][i] + block
        cand = Representation(r.e, r.rho, tuple(tuple(row) for row in dmap), r.theta).replace_theta(i, j, block)
        report = check_representation(a, cand)
        assert not report.ok
        found = [(c, tup, m) for c, entries in report.violations.items() for tup, m in entries]
        found += [("RLYB7", tup, m) for tup, m in report.rlyb7_violations]
        conditions |= {c for c, _, _ in found}
        for cond, tup, defect in found:
            assert defect == direct_rlyb_defect(a, cand, cond, tup), (cond, tup)
            assert lowest_terms(defect.entries)
        # defects are exactly the nonzero directly evaluated ones, in scan order
        expect = [
            tup
            for tup in itertools.product(range(3), repeat=2)
            if not direct_rlyb_defect(a, cand, "RLYB1", tup).is_zero()
        ]
        assert [tup for tup, _ in report.violations["RLYB1"]] == expect
    assert conditions == {"RLYB1", "RLYB2", "RLYB3", "RLYB4", "RLYB5", "RLYB6", "RLYB7"}
