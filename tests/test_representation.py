import random
from fractions import Fraction

import pytest

from lieyamaguti import (
    adjoint,
    check_axioms,
    check_representation,
    check_rlyb7,
    delta_zero,
    example_3dim,
    h23,
    inner_derivation,
    is_homomorphism,
    is_representation,
    meson,
    semidirect,
    trivial_rep,
    twisted_semidirect,
    zero_algebra,
)
from lieyamaguti.algebra import is_valid
from lieyamaguti.cohomology import CochainPair
from lieyamaguti.errors import ShapeMismatch
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix
from lieyamaguti.representation import Representation

from random_cochains import random_c1
from test_denominators import rebased
from test_semidirect_cohomology import AFF1_AD


def perturb_theta(r, i, j, row, col, amount=1):
    m = r.theta[i][j]
    entries = list(m.entries)
    entries[row * m.cols + col] += amount
    return r.replace_theta(i, j, Matrix(m.rows, m.cols, entries))


def test_adjoint_is_representation(corpus):
    for name, (a, r) in corpus.items():
        assert check_representation(a, r).ok, name


def test_trivial_rep_is_representation(corpus):
    for name, (a, _) in corpus.items():
        assert check_representation(a, trivial_rep(a, 2)).ok, name


def test_trivial_rep_zero_module():
    a = example_3dim()
    r = trivial_rep(a, 0)
    assert check_representation(a, r).ok
    sd = semidirect(a, r)
    assert sd.dim == a.dim
    assert sd.binary == a.binary and sd.ternary == a.ternary


def test_perturbed_adjoint_rlyb1_defect():
    a = example_3dim()
    r = adjoint(a)
    bad = perturb_theta(r, 0, 1, 0, 0)
    report = check_representation(a, bad)
    assert not report.ok
    assert report.violations["RLYB1"]
    (tup, defect) = report.violations["RLYB1"][0]
    assert tup == (0, 1)
    # the defect on the perturbed pair is exactly the perturbation matrix
    expected = Matrix.zero(3, 3) + Matrix(3, 3, [1 if i == 0 else 0 for i in range(9)])
    assert defect == expected


def test_nonzero_dmap_alone_violates_rlyb1():
    a = zero_algebra(2)
    r = trivial_rep(a, 2)
    dm = [list(row) for row in r.dmap]
    dm[0][1] = Matrix.identity(2)
    bad = Representation(2, r.rho, tuple(tuple(x) for x in dm), r.theta)
    report = check_representation(a, bad)
    assert report.violations["RLYB1"]
    tup, defect = report.violations["RLYB1"][0]
    assert tup == (0, 1)
    assert defect == Matrix.identity(2)


def test_rlyb7_holds_for_corpus(corpus):
    for name, (a, r) in corpus.items():
        assert check_rlyb7(a, r), name
        assert check_rlyb7(a, trivial_rep(a, 2)), name


def test_rlyb7_follows_from_rlyb16(corpus, rng):
    """Every representation with an empty RLYB1-6 report seen here also
    satisfies the cyclic D identity."""
    for name, (a, r) in corpus.items():
        for cand in (r, trivial_rep(a, 1), trivial_rep(a, 3)):
            if check_representation(a, cand).ok:
                assert check_rlyb7(a, cand), name


def test_adjoint_zero_algebra_is_trivial():
    a = zero_algebra(3)
    r = adjoint(a)
    t = trivial_rep(a, 3)
    assert r == t


def test_adjoint_meson2_theta_values():
    m2 = meson(2)
    r = adjoint(m2)
    # theta(G1,G2): c -> {c, G1, G2}; G1 -> 0, G2 -> {G2,G1,G2} = G1
    th = r.theta[0][1]
    assert all(x == 0 for x in th.col(0))
    assert th.col(1) == (Fraction(1), Fraction(0))


def test_adjoint_dmap_is_inner_derivation():
    a = example_3dim()
    r = adjoint(a)
    assert r.dmap[0][1] == inner_derivation(a, a.basis_vector(0), a.basis_vector(1))


def test_semidirect_with_trivial_rep_extends_by_zero(corpus):
    for name, (a, _) in corpus.items():
        sd = semidirect(a, trivial_rep(a, 2))
        assert check_axioms(sd).ok, name
        d = a.dim
        for i in range(d):
            for j in range(d):
                assert sd.binary[i][j][:d] == a.binary[i][j]
                assert all(x == 0 for x in sd.binary[i][j][d:])
        # any argument in the module block kills the brackets
        for i in range(d, sd.dim):
            for j in range(sd.dim):
                assert all(x == 0 for x in sd.binary[i][j])


def test_semidirect_adjoint_3dim_valid():
    a = example_3dim()
    assert check_axioms(semidirect(a, adjoint(a))).ok


def test_semidirect_shape_mismatch():
    a = example_3dim()
    with pytest.raises(ShapeMismatch):
        semidirect(a, trivial_rep(meson(2), 2))


_Z2, _Z3 = Matrix.zero(2, 2), Matrix.zero(3, 3)
_FAMILY = ((_Z2, _Z2), (_Z2, _Z2))


@pytest.mark.parametrize(
    "rho, dmap, theta, message",
    [
        ((_Z2, _Z3), _FAMILY, _FAMILY, "rho matrices must be e x e"),
        ((_Z2, _Z2), ((_Z2, _Z2), (_Z2,)), _FAMILY, "D/theta must be d x d families"),
        ((_Z2, _Z2), _FAMILY, ((_Z2, _Z2),), "D/theta must be d x d families"),
        ((_Z2, _Z2), _FAMILY, ((_Z2, _Z2), (_Z3, _Z2)), "D/theta matrices must be e x e"),
    ],
    ids=["rho-map", "ragged-D", "short-theta", "theta-map"],
)
def test_malformed_module_is_refused_when_built(rho, dmap, theta, message):
    """Each shape error is raised by ``Representation(...)`` itself, before any algebra sees the module."""
    with pytest.raises(ShapeMismatch, match=message):
        Representation(2, rho, dmap, theta)
    assert Representation(2, (_Z2, _Z2), _FAMILY, _FAMILY).e == 2


def test_semidirect_iff_random_pairs(corpus, rng):
    """Validity of r and validity of the semidirect product agree, both
    directions, over constructor algebras and perturbed adjoints."""
    checked = 0
    for name, (a, r) in corpus.items():
        for k in range(13 if name != "3dim" else 14):
            if k == 0:
                cand = r
            else:
                i, j = rng.randrange(a.dim), rng.randrange(a.dim)
                row, col = rng.randrange(a.dim), rng.randrange(a.dim)
                cand = perturb_theta(r, i, j, row, col, rng.choice((1, -1, 2)))
            rep_ok = is_representation(a, cand)
            axioms_ok = check_axioms(semidirect(a, cand), first_only=True).ok
            assert rep_ok == axioms_ok, (name, k)
            checked += 1
    assert checked >= 50


def test_twisted_with_zero_cochain_equals_semidirect(corpus):
    for name, (a, r) in corpus.items():
        tau = CochainPair.zero(1, a.dim, r.e)
        tw = twisted_semidirect(a, r, tau)
        sd = semidirect(a, r)
        assert tw.binary == sd.binary and tw.ternary == sd.ternary, name


def test_twisted_by_cocycle_basis_is_valid():
    from lieyamaguti.cohomology import h23

    a = example_3dim()
    r = adjoint(a)
    res = h23(a, r)
    for v in res.z_basis:
        tau = CochainPair.from_flat(1, a.dim, r.e, list(v))
        assert check_axioms(twisted_semidirect(a, r, tau), first_only=True).ok


def test_twisted_by_random_noncocycle_mostly_fails(rng):
    from lieyamaguti.cohomology import delta, delta_star
    from random_cochains import random_cochain_pair

    a = example_3dim()
    r = adjoint(a)
    failures = 0
    total = 20
    for _ in range(total):
        tau = random_cochain_pair(1, a.dim, r.e, rng)
        is_cocycle = delta(a, r, tau).is_zero() and all(
            c.is_zero() for c in delta_star(a, r, tau)
        )
        if is_cocycle:
            continue  # exceedingly unlikely; a cocycle would legitimately pass
        if not check_axioms(twisted_semidirect(a, r, tau), first_only=True).ok:
            failures += 1
    assert failures >= total - 1


def _shear(f: Matrix, sign: int) -> Matrix:
    """The map (x, v) -> (x, v + sign * f(x)) on g (+) V, for f in C^1 as an e x d matrix."""
    e, d = f.rows, f.cols
    n = d + e

    def entry(i, j):
        if i >= d and j < d:
            return sign * f[i - d, j]
        return int(i == j)

    return Matrix(n, n, [entry(i, j) for i in range(n) for j in range(n)])


# Beyond the corpus: aff(1) ⋉ ad (d = 4), and 3dim and crossproduct-lie in the
# rebased basis of ``test_denominators``, whose coboundaries have scale den**2 != 1.
SHEAR_EXTRA = {
    "aff1-ad": lambda: AFF1_AD,
    "3dim-rebased": lambda: rebased(example_3dim()),
    "crossproduct-lie-rebased": lambda: rebased(cross_product_lie()),
}


@pytest.mark.parametrize("module", ("adjoint", "trivial"))
@pytest.mark.parametrize("name", ("3dim", "crossproduct-lie", "meson3", *SHEAR_EXTRA))
def test_coboundary_shift_of_a_twist_is_the_shear(corpus, name, module):
    """An oracle for B outside the operator code.

    For every basis cocycle tau and a seeded f in C^1, the shear
    (x, v) -> (x, v - f(x)) is a homomorphism from the twist by tau to the
    twist by tau + delta_zero f, the shear with + is not, and delta_zero f
    lies in h23's B.  An f with delta_zero f = 0 is drawn again: both shears
    are then automorphisms of one twist.
    """
    if name in SHEAR_EXTRA:
        a = SHEAR_EXTRA[name]()
        r = adjoint(a)
    else:
        a, r = corpus[name]
    if module == "trivial":
        r = trivial_rep(a, 2)
    res = h23(a, r)
    rng = random.Random(19)
    for v in res.z_basis:
        tau = CochainPair.from_flat(1, a.dim, r.e, list(v))
        f = random_c1(a.dim, r.e, rng)
        while (shift := delta_zero(a, r, f)).is_zero():
            f = random_c1(a.dim, r.e, rng)
        assert res.b_basis.contains(shift.flat())
        shifted = CochainPair.from_flat(1, a.dim, r.e, [x + y for x, y in zip(tau.flat(), shift.flat())])
        source, target = twisted_semidirect(a, r, tau), twisted_semidirect(a, r, shifted)
        assert is_homomorphism(_shear(f, -1), source, target)
        assert not is_homomorphism(_shear(f, 1), source, target)


def test_twisted_semidirect_rejects_wrong_level():
    a = example_3dim()
    r = adjoint(a)
    with pytest.raises(ShapeMismatch):
        twisted_semidirect(a, r, CochainPair.zero(2, a.dim, r.e))
