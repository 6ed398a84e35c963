import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_denominators import SCALES, rebased
from test_derivations import ALGEBRAS as DERIVATION_ALGEBRAS
from test_derivations import loop_is_derivation

from lieyamaguti import (
    check_axioms,
    derivations,
    example_3dim,
    from_leibniz,
    from_lie,
    from_lie_triple,
    from_reductive_pair,
    from_sparse,
    from_tensors,
    inner_derivation,
    is_automorphism,
    is_homomorphism,
    meson,
    zero_algebra,
)
from lieyamaguti.errors import (
    InvalidAlgebra,
    NotALeibnizAlgebra,
    NotALieAlgebra,
    NotReductive,
    ShapeMismatch,
)
from lieyamaguti.fixtures import _CROSS_BINARY, cross_product_lie
from lieyamaguti.linalg import Matrix, vec_add


def rand_vec(d, rng):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d))


# ---------------------------------------------------------------------------
# axiom checking


def test_example_3dim_valid():
    assert check_axioms(example_3dim()).ok


def test_zero_algebra_valid():
    for d in (1, 2, 4):
        assert check_axioms(zero_algebra(d)).ok


def test_meson_family_valid():
    for n in (1, 2, 3):
        assert check_axioms(meson(n)).ok


def test_meson1_all_products_zero():
    m1 = meson(1)
    assert all(x == 0 for x in m1.ternary[0][0][0])


def test_meson2_displayed_products():
    m2 = meson(2)
    assert m2.ternary[0][1][0] == (Fraction(0), Fraction(1))  # {G1,G2,G1} = G2
    assert m2.ternary[0][1][1] == (Fraction(-1), Fraction(0))  # {G1,G2,G2} = -G1


def test_meson3_vanishing_product():
    # {G1,G3,G2} = 0 since k is neither i nor j
    assert all(x == 0 for x in meson(3).ternary[0][2][1])


def test_perturbed_3dim_reports_violation():
    # +1 on the first coordinate of {e1,e2,e1}: breaks LY5 among others
    base = example_3dim()
    a = from_sparse(3, {(0, 1): (0, 0, 1)}, {(0, 1, 0): (1, 0, 1)})
    report = check_axioms(a)
    assert not report.ok
    assert "LY5" in report.violated_axioms()
    assert check_axioms(base).ok


def test_ly2_violation_on_raw_tensor():
    # t[1][2][1] = e1 without the antisymmetric mirror
    d = 3
    t = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    t[0][1][0] = [1, 0, 0]
    report = check_axioms(from_lie_triple(t))
    assert "LY2" in report.violated_axioms()
    tup, defect = report.violations["LY2"][0]
    assert tup == (0, 1, 0)
    assert defect == (Fraction(1), Fraction(0), Fraction(0))


def test_ly1_violation_on_raw_tensor():
    d = 2
    b = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    z = [[[[0, 0] for _ in range(d)] for _ in range(d)] for _ in range(d)]
    report = check_axioms(from_tensors(b, z))
    assert "LY1" in report.violated_axioms()


def test_from_tensors_refuses_tensors_of_other_sizes():
    """A 2x2x2 binary with a 3-dimensional ternary, or a ragged tensor, is refused when it is built."""
    binary = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ShapeMismatch):
        from_tensors(binary, meson(3).ternary)
    with pytest.raises(ShapeMismatch):
        from_tensors([[[0, 0], [0]], [[0, 0], [0, 0]]], [[[[0] * 2] * 2] * 2] * 2)
    with pytest.raises(ShapeMismatch):
        from_tensors(binary, [[[[0] * 2] * 2] * 2, [[[0] * 2] * 2] * 3])
    assert from_tensors(binary, [[[[0] * 2] * 2] * 2] * 2).dim == 2


def test_first_only_matches_full_scan():
    a = from_sparse(3, {(0, 1): (1, 0, 1)}, {(0, 1, 0): (0, 0, 1)})
    full = check_axioms(a)
    fast = check_axioms(a, first_only=True)
    assert not full.ok and not fast.ok
    assert fast.violated_axioms()[0] in full.violated_axioms()


def test_multilinear_completeness_random_vectors(corpus, rng):
    """For valid algebras, LY1..LY6 vanish on random rational vectors."""
    for name, (a, _) in corpus.items():
        for _ in range(25):
            x, y, z, u, v, w = (rand_vec(a.dim, rng) for _ in range(6))
            assert all(q == 0 for q in vec_add(a.bracket(x, y), a.bracket(y, x)))
            assert all(q == 0 for q in vec_add(a.triple(x, y, z), a.triple(y, x, z)))
            ly3 = tuple(Fraction(0) for _ in range(a.dim))
            for p, q, s in ((x, y, z), (y, z, x), (z, x, y)):
                ly3 = vec_add(ly3, vec_add(a.bracket(a.bracket(p, q), s), a.triple(p, q, s)))
            assert all(qq == 0 for qq in ly3)
            ly4 = tuple(Fraction(0) for _ in range(a.dim))
            for p, q, s in ((x, y, z), (y, z, x), (z, x, y)):
                ly4 = vec_add(ly4, a.triple(a.bracket(p, q), s, u))
            assert all(qq == 0 for qq in ly4)
            lhs = a.triple(x, y, a.bracket(u, v))
            rhs = vec_add(a.bracket(a.triple(x, y, u), v), a.bracket(u, a.triple(x, y, v)))
            assert lhs == rhs
            lhs = a.triple(x, y, a.triple(u, v, w))
            rhs = a.triple(a.triple(x, y, u), v, w)
            rhs = vec_add(rhs, a.triple(u, a.triple(x, y, v), w))
            rhs = vec_add(rhs, a.triple(u, v, a.triple(x, y, w)))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# constructors


def test_from_lie_cross_product():
    a = cross_product_lie()
    assert check_axioms(a).ok
    # {e1,e2,e3} = [[e1,e2],e3] = [e3,e3] = 0
    assert all(x == 0 for x in a.ternary[0][1][2])


def test_from_lie_rejects_non_jacobi():
    # antisymmetric 3-dim bracket with [e1,e2] = e3, [e1,e3] = e1: Jacobi fails
    bad = [
        [[0, 0, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
        [[-1, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(NotALieAlgebra) as exc:
        from_lie(bad)
    assert (str(exc.value), exc.value.triple) == ("Jacobi identity fails", (0, 1, 2))


def test_from_lie_rejects_non_antisymmetric():
    bad = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(NotALieAlgebra) as exc:
        from_lie(bad)
    assert (str(exc.value), exc.value.triple) == ("binary tensor is not antisymmetric", (0, 1))


def test_from_lie_is_validated_at_construction():
    """from_lie decides through the algebra's own first-violation scan, so no later guard scans again."""
    a = from_lie(_CROSS_BINARY)
    assert "_first_violation" in vars(a)
    assert a._first_violation.ok


def test_from_lie_abelian_gives_zero_ternary():
    d = 3
    zero = [[[0] * d for _ in range(d)] for _ in range(d)]
    a = from_lie(zero)
    assert all(
        all(x == 0 for x in a.ternary[i][j][k])
        for i, j, k in itertools.product(range(d), repeat=3)
    )


def test_from_lie_heisenberg_central_ternary():
    d = 3
    b = [[[0] * d for _ in range(d)] for _ in range(d)]
    b[0][1] = [0, 0, 1]
    b[1][0] = [0, 0, -1]
    a = from_lie(b)
    assert check_axioms(a).ok
    assert all(
        all(x == 0 for x in a.ternary[i][j][k])
        for i, j, k in itertools.product(range(d), repeat=3)
    )


def test_from_leibniz_antisymmetric_doubles():
    # for an antisymmetric product, a.b - b.a = 2(a.b)
    a = from_leibniz(_CROSS_BINARY)
    assert check_axioms(a).ok
    cross = cross_product_lie()
    for i in range(3):
        for j in range(3):
            assert a.binary[i][j] == tuple(2 * x for x in cross.binary[i][j])
    # ternary = -(a.b).c
    for i, j, k in itertools.product(range(3), repeat=3):
        expect = tuple(-x for x in cross.bracket(cross.binary[i][j], cross.basis_vector(k)))
        assert a.ternary[i][j][k] == expect


def test_from_leibniz_zero_product():
    d = 2
    zero = [[[0] * d for _ in range(d)] for _ in range(d)]
    a = from_leibniz(zero)
    assert check_axioms(a).ok
    assert a.binary == zero_algebra(2).binary


def test_from_leibniz_nilpotent_example():
    # e1.e1 = e2, all else zero: Leibniz holds, induced LY algebra is zero
    d = 2
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    p[0][0] = [0, 1]
    a = from_leibniz(p)
    assert check_axioms(a).ok
    assert a.binary == zero_algebra(2).binary
    assert a.ternary == zero_algebra(2).ternary


def test_from_leibniz_rejects_bad_product():
    d = 2
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    p[0][0] = [1, 0]  # e1.e1 = e1 violates the Leibniz identity
    with pytest.raises(NotALeibnizAlgebra):
        from_leibniz(p)


def test_from_lie_triple_meson_tensor():
    a = from_lie_triple(meson(2).ternary)
    assert check_axioms(a).ok
    assert a.binary == zero_algebra(2).binary


def test_from_lie_triple_zero_tensor():
    d = 2
    z = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    a = from_lie_triple(z)
    assert check_axioms(a).ok


def test_reductive_pair_cross_product():
    lie = cross_product_lie()
    # h = span{e3}, m = span{e1, e2}
    a = from_reductive_pair(lie, [2], [0, 1])
    assert check_axioms(a).ok
    # [e1, e2] = pi_m(e3) = 0 and {e1, e2, e1} = [e3, e1] = e2
    assert all(x == 0 for x in a.binary[0][1])
    assert a.ternary[0][1][0] == (Fraction(0), Fraction(1))


def test_reductive_pair_whole_h_empty_m():
    a = from_reductive_pair(cross_product_lie(), [0, 1, 2], [])
    assert a.dim == 0
    assert check_axioms(a).ok


def test_reductive_pair_rejects_nonreductive_split():
    # h = span{e1, e2}: [e1,e2] = e3 leaves h
    with pytest.raises(NotReductive):
        from_reductive_pair(cross_product_lie(), [0, 1], [2])


def test_reductive_pair_single_h_line_is_reductive():
    # h = span{e1}: <h,h> = 0 and [e1, e2] = e3, [e1, e3] = -e2 stay in m
    a = from_reductive_pair(cross_product_lie(), [0], [1, 2])
    assert a.dim == 2
    assert check_axioms(a).ok


def test_modified_3dim_ternary_to_e2_is_actually_valid():
    """Replacing {e1,e2,e1} = e3 by e2 still satisfies LY1..LY6 (hand
    verified); guards the checker against false positives."""
    a = from_sparse(3, {(0, 1): (0, 0, 1)}, {(0, 1, 0): (0, 1, 0)})
    assert check_axioms(a).ok


def test_constructor_outputs_all_valid(corpus):
    for name, (a, _) in corpus.items():
        assert check_axioms(a).ok, name


# ---------------------------------------------------------------------------
# morphisms and derivations


def test_identity_and_zero_are_homomorphisms():
    a = example_3dim()
    assert is_homomorphism(Matrix.identity(3), a, a)
    assert is_homomorphism(Matrix.zero(3, 3), a, a)


def test_diag_1_b_b_homomorphism():
    a = example_3dim()
    phi = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert is_homomorphism(phi, a, a)
    assert is_automorphism(phi, a)


def test_zero_map_is_not_automorphism():
    a = example_3dim()
    assert not is_automorphism(Matrix.zero(3, 3), a)


def test_non_homomorphism_detected():
    a = example_3dim()
    phi = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not is_homomorphism(phi, a, a)


def test_homomorphism_shape_mismatch():
    a = example_3dim()
    with pytest.raises(ShapeMismatch):
        is_homomorphism(Matrix.identity(2), a, a)


def test_meson2_inclusion_into_meson3_is_a_homomorphism():
    inclusion = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert is_homomorphism(inclusion, meson(2), meson(3))
    assert not is_homomorphism(Matrix.from_rows([[2, 0], [0, 2], [0, 0]]), meson(2), meson(3))
    assert not is_homomorphism(Matrix.from_rows([[1, 0, 0], [0, 1, 0]]), meson(3), meson(2))


def loop_is_homomorphism(phi: Matrix, a, b) -> bool:
    """The basis-tuple loop ``is_homomorphism`` ran before ``algebra._map_defect``, kept unchanged."""
    cols = [phi.col(j) for j in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = phi.matvec(a.binary[i][j])
            rhs = b.bracket(cols[i], cols[j])
            if lhs != rhs:
                return False
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        lhs = phi.matvec(a.ternary[i][j][k])
        rhs = b.triple(cols[i], cols[j], cols[k])
        if lhs != rhs:
            return False
    return True


_WIDE = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
)
_MAP_ALGEBRAS = [meson(n) for n in range(1, 5)] + [
    zero_algebra(2),
    example_3dim(),
    cross_product_lie(),
    rebased(meson(3), SCALES),
    rebased(cross_product_lie(), SCALES),
]


def _orthogonal(draw, n: int) -> list:
    """A signed permutation times a rational rotation in one coordinate plane."""
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
    rot = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    i, j = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    t = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    rot[i][i], rot[i][j], rot[j][i], rot[j][j] = c, -s, s, c
    return [[signs[r] * x for x in rot[perm[r]]] for r in range(n)]


@st.composite
def _maps(draw):
    """(phi, a, b, expected): expected is None where only the oracle decides.

    meson(n) has {x, y, z} = <z, x> y - <z, y> x, so the first m columns of
    an orthogonal n x n matrix map meson(m) into meson(n); scaled by
    lambda != 0, +-1 they do not (the ternary side scales by lambda**3).
    """
    kind = draw(st.sampled_from(["inclusion", "scaled", "abelian", "zero", "random"]))
    if kind in ("inclusion", "scaled"):
        m = draw(st.integers(1 if kind == "inclusion" else 2, 3))
        n = draw(st.integers(max(m, 2), 4))
        q = _orthogonal(draw, n)
        phi = [row[:m] for row in q]
        b = meson(n)
        if n == 3 and draw(st.booleans()):
            b = rebased(b, SCALES)  # the same map in the basis f_i = SCALES[i] e_i
            phi = [[x / SCALES[r] for x in row] for r, row in enumerate(phi)]
        if kind == "scaled":
            lam = draw(st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(3, 5)]))
            phi = [[lam * x for x in row] for row in phi]
        return Matrix.from_rows(phi), meson(m), b, kind == "inclusion"
    if kind == "abelian":
        m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        phi = Matrix(n, m, [draw(_WIDE) for _ in range(n * m)])
        return phi, zero_algebra(m), zero_algebra(n), True
    a, b = draw(st.sampled_from(_MAP_ALGEBRAS)), draw(st.sampled_from(_MAP_ALGEBRAS))
    if kind == "zero":
        return Matrix.zero(b.dim, a.dim), a, b, True
    return Matrix(b.dim, a.dim, [draw(_WIDE) for _ in range(a.dim * b.dim)]), a, b, None


@settings(max_examples=200, deadline=None)
@given(_maps())
def test_is_homomorphism_matches_the_basis_loop(case):
    phi, a, b, expected = case
    got = is_homomorphism(phi, a, b)
    assert got == loop_is_homomorphism(phi, a, b)
    if expected is not None:
        assert got is expected


def test_derivations_abelian_full_space():
    for d in (1, 2, 3):
        assert derivations(zero_algebra(d)).dim == d * d


def test_derivations_satisfy_identities(corpus):
    for name, (a, _) in corpus.items():
        basis = derivations(a)
        for v in basis:
            assert loop_is_derivation(Matrix(a.dim, a.dim, v), a), name


def test_derivations_closed_under_commutator():
    """A theorem that ``derivations`` does not re-prove at run time; rebased copies included."""
    for name, a in DERIVATION_ALGEBRAS.items():
        basis = derivations(a)
        mats = [Matrix(a.dim, a.dim, v) for v in basis]
        for m1 in mats:
            for m2 in mats:
                assert basis.contains((m1 @ m2 - m2 @ m1).entries), name


def test_inner_derivation_of_equal_arguments_is_zero(corpus, rng):
    for name, (a, _) in corpus.items():
        x = rand_vec(a.dim, rng)
        assert inner_derivation(a, x, x).is_zero(), name


def test_inner_derivation_meson2():
    m2 = meson(2)
    d = inner_derivation(m2, m2.basis_vector(0), m2.basis_vector(1))
    assert d.col(0) == (Fraction(0), Fraction(1))  # G1 -> G2
    assert d.col(1) == (Fraction(-1), Fraction(0))  # G2 -> -G1


def test_inner_derivation_example_3dim():
    a = example_3dim()
    d = inner_derivation(a, a.basis_vector(0), a.basis_vector(1))
    assert d.col(0) == (Fraction(0), Fraction(0), Fraction(1))
    assert all(x == 0 for x in d.col(1))
    assert all(x == 0 for x in d.col(2))


def test_inner_derivations_lie_in_derivation_space(corpus, rng):
    for name, (a, _) in corpus.items():
        basis = derivations(a)
        for _ in range(20):
            x, y = rand_vec(a.dim, rng), rand_vec(a.dim, rng)
            assert basis.contains(inner_derivation(a, x, y).entries), name


def test_derivation_of_3dim_contains_inner():
    a = example_3dim()
    basis = derivations(a)
    inner = inner_derivation(a, a.basis_vector(0), a.basis_vector(1))
    assert basis.contains(inner.entries)


def test_from_lie_derivations_contain_lie_derivations():
    """Every derivation of the Lie bracket is a derivation of the induced
    LY structure; check containment of the two solution spaces."""
    lie = cross_product_lie()
    d = lie.dim
    rows = []
    for i in range(d):
        for j in range(d):
            cij = lie.binary[i][j]
            for k in range(d):
                row = [Fraction(0)] * (d * d)
                for s in range(d):
                    row[k * d + s] += cij[s]
                for r in range(d):
                    row[r * d + i] -= lie.binary[r][j][k]
                    row[r * d + j] -= lie.binary[i][r][k]
                rows.append(row)
    lie_ders = Matrix.from_rows(rows).kernel_basis()
    ly_ders = derivations(lie)
    assert lie_ders.dim >= 1
    for v in lie_ders:
        assert ly_ders.contains(v)


def test_derivations_requires_valid_algebra():
    bad = from_sparse(3, {(0, 1): (1, 0, 1)}, {(0, 1, 0): (0, 0, 1)})
    with pytest.raises(InvalidAlgebra):
        derivations(bad)
