import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from lieyamaguti import (
    adjoint,
    check_representation,
    delta,
    delta_star,
    delta_zero,
    derivations,
    example_3dim,
    h1,
    h23,
    h_upper,
    inner_derivation,
    meson,
    trivial_rep,
    zero_algebra,
)
import lieyamaguti.algebra
import lieyamaguti.cohomology
import lieyamaguti.linalg
from lieyamaguti.cohomology import (
    Cochain,
    CochainPair,
    _coboundaries,
    _cochain_groups,
    _cohomology,
    _delta_op,
    _delta_star_op,
    _Operator,
    _shape,
    _space,
    cochain_dim,
    delta_matrix,
    delta_star_matrix,
    delta_zero_matrix,
    transport_defects,
)
from lieyamaguti.errors import CocycleContainmentFailure, ShapeMismatch, SizeCapExceeded
from lieyamaguti.cli import run
from lieyamaguti.fixtures import cross_product_lie, fixture, render
from lieyamaguti.linalg import Matrix, SubspaceBasis, sparse_kernel
from lieyamaguti.representation import check_rlyb7

from random_cochains import eval_vectors, random_c1, random_cochain, random_cochain_pair
from test_denominators import rebased
from test_semidirect_cohomology import AFF1_AD, HEIS_AD


def test_cochain_dim_examples():
    assert cochain_dim(2, 3, 3) == 9
    assert cochain_dim(3, 3, 3) == 27
    assert cochain_dim(2, 1, 5) == 0
    assert cochain_dim(1, 2, 5) == 10
    assert cochain_dim(4, 3, 3) == 27
    assert cochain_dim(5, 3, 3) == 81
    assert cochain_dim(4, 2, 1) == 1
    assert cochain_dim(5, 2, 1) == 2


def test_cochain_antisymmetry_lookup():
    # C^2 over d = 3, e = 2: the e-block of the pair (0, 1) comes first
    c = Cochain(_shape(_cochain_groups(2), 3, 2), [1, 2, 0, 0, 0, 0])
    assert c.eval_basis((0, 1)) == (Fraction(1), Fraction(2))
    assert c.eval_basis((1, 0)) == (Fraction(-1), Fraction(-2))
    assert c.eval_basis((1, 1)) == (Fraction(0), Fraction(0))


def test_cochain_pairwise_antisymmetry_on_vectors(rng):
    """Expanding a cochain multilinearly and repeating a consecutive-pair
    argument gives exactly zero."""
    for n in (2, 3, 4, 5):
        c = random_cochain(n, 3, 2, rng)
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        others = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)) for _ in range(n - 2)
        ]
        for pair_slot in range(n // 2):
            args = list(others)
            args[pair_slot * 2 : pair_slot * 2] = [x, x]
            assert all(q == 0 for q in eval_vectors(c, args))


def test_delta_zero_on_zero_map(corpus):
    for name, (a, r) in corpus.items():
        out = delta_zero(a, r, Matrix.zero(r.e, a.dim))
        assert out.is_zero(), name


def test_delta_zero_trivial_everything(rng):
    a = zero_algebra(2)
    r = trivial_rep(a, 3)
    for _ in range(5):
        assert delta_zero(a, r, random_c1(2, 3, rng)).is_zero()


def test_delta_zero_identity_map_3dim():
    a = example_3dim()
    r = adjoint(a)
    out = delta_zero(a, r, Matrix.identity(3))
    # (delta_I id)(e1, e2) = [e1,e2] - [e2,e1] - [e1,e2] = e3
    assert out.f.eval_basis((0, 1)) == (Fraction(0), Fraction(0), Fraction(1))


def test_delta_vanishes_for_zero_brackets_and_trivial_rep(rng):
    a = zero_algebra(2)
    r = trivial_rep(a, 2)
    for _ in range(3):
        c = random_cochain_pair(1, 2, 2, rng)
        assert delta(a, r, c).is_zero()


def test_delta_squared_zero_p1(corpus, rng):
    for name, (a, r) in corpus.items():
        for _ in range(3):
            c = random_cochain_pair(1, a.dim, r.e, rng)
            assert delta(a, r, delta(a, r, c)).is_zero(), name


def test_delta_star_zero_cochain(corpus):
    for name, (a, r) in corpus.items():
        o3, o4 = delta_star(a, r, CochainPair.zero(1, a.dim, r.e))
        assert o3.is_zero() and o4.is_zero(), name


def test_delta_star_after_delta_zero(corpus, rng):
    for name, (a, r) in corpus.items():
        for _ in range(3):
            f = random_c1(a.dim, r.e, rng)
            o3, o4 = delta_star(a, r, delta_zero(a, r, f))
            assert o3.is_zero() and o4.is_zero(), name


def test_delta_star_vanishes_abelian_trivial_d2(rng):
    # for d = 2 every cyclic sum over a C^3 cochain collapses by the
    # consecutive-pair antisymmetry, so delta_star is identically zero
    a = zero_algebra(2)
    r = trivial_rep(a, 2)
    for _ in range(5):
        c = random_cochain_pair(1, 2, 2, rng)
        o3, o4 = delta_star(a, r, c)
        assert o3.is_zero() and o4.is_zero()


def test_delta_star_requires_p1():
    a = example_3dim()
    r = adjoint(a)
    with pytest.raises(ShapeMismatch):
        delta_star(a, r, CochainPair.zero(2, 3, 3))


def test_h1_abelian_trivial_full_space():
    for d, e in ((2, 1), (3, 2)):
        a = zero_algebra(d)
        dim, basis = h1(a, trivial_rep(a, e))
        assert dim == d * e
        assert basis.dim == dim


def test_h1_equals_derivations(corpus):
    for name, (a, r) in corpus.items():
        dim, _ = h1(a, r)
        assert dim == derivations(a).dim, name


def test_h1_kernel_elements_are_derivation_matrices():
    from test_derivations import loop_is_derivation

    a = example_3dim()
    r = adjoint(a)
    _, basis = h1(a, r)
    for v in basis:
        # flat index is s*e + m for the value f(e_s)_m
        m = Matrix(3, 3, [v[s * 3 + mm] for mm in range(3) for s in range(3)])
        assert loop_is_derivation(m, a)


def test_h23_abelian_trivial_dims():
    a = zero_algebra(2)
    r = trivial_rep(a, 1)
    res = h23(a, r)
    assert (res.dim_z, res.dim_b, res.dim) == (3, 0, 3)


def test_h23_corpus_containment_and_dims(corpus):
    expected = {"3dim": (14, 5, 9), "meson2": (3, 3, 0), "meson3": (7, 6, 1), "crossproduct-lie": (7, 6, 1)}
    for name, (a, r) in corpus.items():
        res = h23(a, r)
        assert (res.dim_z, res.dim_b, res.dim) == expected[name], name
        assert res.delta_squared_zero, name
        for v in res.b_basis:
            assert res.z_basis.contains(v), name


def test_h23_trivial_rep_boundary_formula(rng):
    """With trivial coefficients the coboundary of f is
    (-f([.,.]), -f({.,.,.}))."""
    a = example_3dim()
    r = trivial_rep(a, 2)
    f = random_c1(a.dim, r.e, rng)
    out = delta_zero(a, r, f)
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            assert out.f.eval_basis((i, j)) == tuple(-x for x in f.matvec(a.binary[i][j]))
            for k in range(a.dim):
                assert out.g.eval_basis((i, j, k)) == tuple(
                    -x for x in f.matvec(a.ternary[i][j][k])
                )


def test_h_upper_abelian_trivial():
    a = zero_algebra(2)
    r = trivial_rep(a, 1)
    res = h_upper(a, r, 2)
    assert (res.dim_z, res.dim_b, res.dim) == (3, 0, 3)
    assert res.delta_squared_zero


def test_h_upper_d1_trivial():
    a = zero_algebra(1)
    res = h_upper(a, trivial_rep(a, 1), 2)
    assert res.dim == 0


def test_h_upper_3dim_adjoint_finite():
    a = example_3dim()
    r = adjoint(a)
    res = h_upper(a, r, 2)
    assert res.dim >= 0
    assert res.dim == res.dim_z - res.dim_b
    assert res.delta_squared_zero


def test_h_upper_size_cap():
    a = meson(3)
    r = adjoint(a)
    with pytest.raises(SizeCapExceeded):
        h_upper(a, r, 4, cap=100)



def test_h23_size_cap(monkeypatch):
    """The cap bounds C^5 (3^2 * 3 * 3 = 81 coordinates here) and is checked before assembly."""
    a = meson(3)
    r = adjoint(a)
    assert h23(a, r, cap=81).dim == 1

    def no_assembly(*args):
        raise AssertionError("assembled an operator over the cap")

    for name in ("_delta_assembled", "_delta_star_assembled"):
        monkeypatch.setattr(lieyamaguti.cohomology, name, no_assembly)
    # a fresh algebra holds no operator yet, so an assembly before the cap check would show
    fresh = meson(3)
    for b, s in ((a, r), (fresh, adjoint(fresh))):
        with pytest.raises(SizeCapExceeded, match="81 coordinates, cap is 80"):
            h23(b, s, cap=80)

def test_cap_refuses_a_huge_level_without_building_it(monkeypatch):
    """C^(2p+3) has e * d * C(d, 2)**(p+1) coordinates, counted exactly up to 2**2048."""
    a = example_3dim()
    r = trivial_rep(a, 1)
    with pytest.raises(SizeCapExceeded, match=f"has {3 * 3**2048} coordinates, cap is 50000"):
        h_upper(a, r, 2047)

    def no_shape(*args):
        raise AssertionError("built a cochain shape for a level over the cap")

    monkeypatch.setattr(lieyamaguti.cohomology, "_shape", no_shape)
    for p in (2048, 10**9):
        with pytest.raises(SizeCapExceeded, match=r"more than 2\*\*2048 coordinates, cap is 50000"):
            h_upper(a, r, p)
    # on d = 2 the largest space stays e * d = 2 coordinates at any p
    small = meson(2)
    lieyamaguti.cohomology._check_cap(small, trivial_rep(small, 1), 10**9, 2)


def test_h_upper_rejects_p1():
    a = example_3dim()
    with pytest.raises(ShapeMismatch):
        h_upper(a, adjoint(a), 1)


# SHA-256 of "ROWSxCOLS:" followed by the comma-joined entries of each operator
# matrix.  The delta_zero and delta pins were recorded from an independent
# implementation that applied pointwise coboundary formulas to one unit cochain
# per column.  The delta_star pins were recorded with delta* on its own target
# shapes (3,) and (3, 1) -- no rows for d < 3 -- and are backed by the pointwise
# reference in ``test_delta_star``.  They pin every entry, including the cyclic
# signs of delta*'s blocks.
OPERATOR_DIGESTS = {
    "3dim/adjoint/delta_zero": "b4a2547f0d6474279c5fe1118a90a78431019dc084bd7a3ae1ac45e9c57e23a6",
    "3dim/adjoint/delta_p1": "44f16286660634c89e529ae89374c1cac434a06954635bce9eb7b62558579ab9",
    "3dim/adjoint/delta_p2": "4ff5336df0b6e34b7cbf0de9cd63f4f2375d3f8352b6580cfdf553d5509c959a",
    "3dim/adjoint/delta_star": "b2ad3bcfd25415bfa5a037599f85cd5c50658eb6ea41e662ec61223f8691da98",
    "3dim/trivial1/delta_zero": "0c950dd746069b7ddf6cd556b536c267ebdd2639a7be6ba30a1df574a6e4898b",
    "3dim/trivial1/delta_p1": "6949cb68e380bb083031d74e64c7c6cf746fb7b719008fd4de5a02a663631dc3",
    "3dim/trivial1/delta_p2": "83cb9fb5093107fb451d2420b7ac59363e381c74a08f2d1f3a419416f090a122",
    "3dim/trivial1/delta_star": "94e3b8eba9b722e8dd936d0fd76402809a2a1e94d8f711bb03b266773705efea",
    "3dim/trivial2/delta_zero": "e9bf61a2f86f5b2dfc0b47bc6c11fe8ec2f884d1e6901a90a53899ae7a224ee4",
    "3dim/trivial2/delta_p1": "ad046ffb03dffd887bea5271cd50e29ae574295a6a60d348a8eefd96f0d75a8a",
    "3dim/trivial2/delta_p2": "88c2b14df0c16ea1288da81adda2bae862af65cadbe4444ba468550805f8b94b",
    "3dim/trivial2/delta_star": "292c160805c45d85d1527d11f0b2d7931a272b189983c82ca1d004788c7e1c9d",
    "meson2/adjoint/delta_zero": "35ce366672e128b8140543aea98c5e94d577b0f525b96ca5c16202e687f33b9e",
    "meson2/adjoint/delta_p1": "dc3bc703bd1efbdaef55454dfef75f4b8cbe1c7f038017b7119fee038874359d",
    "meson2/adjoint/delta_p2": "0b9afa92d5846fee7c18d8259d5cc1a81395562fe8df5df34d8b4e9a4509bf92",
    "meson2/adjoint/delta_star": "1a63171a622e5deeb753710620d79eb81495cda9a7bea28c194fda9184e9465b",
    "meson2/trivial1/delta_zero": "15b3926bf928249e05aa910b844c99dd12b464d88c338533c3d010fac0134950",
    "meson2/trivial1/delta_p1": "0ef49ef960106c6ae17e93f289bb007c5d7ff6d02c046d1baaed157daf11678c",
    "meson2/trivial1/delta_p2": "b60e92fa0b456db00e316f932d3d613cbb6e4634c9dda69713185d8c0fb72cd1",
    "meson2/trivial1/delta_star": "fcc8b0e7dfa58f6749255d68d4e6a54b3dfdc55bc8858a5077b5b359c14ed6db",
    "meson2/trivial2/delta_zero": "1afe129f298d0e15667f916cdce95ab37843cfb19c3d7729a2b8333d1d7feee6",
    "meson2/trivial2/delta_p1": "7e0fa2370b690c6f032e543d69b2fef5691c6acdf837d61bf8928bb6196cdfa9",
    "meson2/trivial2/delta_p2": "96a1b862a31c9a7ce155c275e70ab1759d92459bc62660062c4aca95c67f9075",
    "meson2/trivial2/delta_star": "1a63171a622e5deeb753710620d79eb81495cda9a7bea28c194fda9184e9465b",
    "meson3/adjoint/delta_zero": "286f72380d869ae38b158baa385aaca20785187856e0ef7666e5e5b70585a2d4",
    "meson3/adjoint/delta_p1": "b847ae85e3374d652f445d2ff706b2efcbabaab9bb0fb936d464d435fff65217",
    "meson3/adjoint/delta_p2": "987cd7c852f215ac47f4709c89458d754d6c0bfff1091815b2433f5e02da41dc",
    "meson3/adjoint/delta_star": "4263ef8743cfc86eb7a591ebe4b8758709d36077e397cdfa3c856cbcdc0da807",
    "meson3/trivial1/delta_zero": "1eee881c1abeb04462583e8831281107e0e5e8fbfb99f51e6bea60c04190b46a",
    "meson3/trivial1/delta_p1": "e0715e1f74bfd30ad9ffa850b3f8a26accabd431f955561be3e1565b8e1a9b48",
    "meson3/trivial1/delta_p2": "5a5219734e9855690c75f0864a1f7914e33ab26a30f3a6802daebb7f03cf1429",
    "meson3/trivial1/delta_star": "94e3b8eba9b722e8dd936d0fd76402809a2a1e94d8f711bb03b266773705efea",
    "meson3/trivial2/delta_zero": "5e203c5eaebd4028fd7f1cae5cec7c33afbe2d3040cdf727314bb7fccb9ff82d",
    "meson3/trivial2/delta_p1": "e846911e0bcea714435b0aef02ab94c43f9dfaa5d8088a731bebe79bb5546d49",
    "meson3/trivial2/delta_p2": "93152483c8869052d2cdc9b2a8755a7cc9e2b26487e4b25beee6d3907d308381",
    "meson3/trivial2/delta_star": "292c160805c45d85d1527d11f0b2d7931a272b189983c82ca1d004788c7e1c9d",
    "crossproduct-lie/adjoint/delta_zero": "e4fa421d27043fb74cbc8e689bb58636ca90f8b0c4da7b9a196ca9f0a9f846ca",
    "crossproduct-lie/adjoint/delta_p1": "ba61ea4791e0de432cd8278c0fa57c6e5306cd60cb1222c58e64d54d10535ccb",
    "crossproduct-lie/adjoint/delta_p2": "ca14944c7890153388a7131f3f00fb3b719c3890a71dae46cfcece3448cbd4a1",
    "crossproduct-lie/adjoint/delta_star": "db85493fc1ec71910076e614311b6fe9afeb97901314f997ae54ea56b71e53cc",
    "crossproduct-lie/trivial1/delta_zero": "8caa8f8ce0a696eba9b455f5be8d0bc03f68dedfca4a9751cd75127772d55cda",
    "crossproduct-lie/trivial1/delta_p1": "ef7b0a889eb48ba92fa0fa91e5fdcd31bc39a71800c4796389e4d6bd9e246963",
    "crossproduct-lie/trivial1/delta_p2": "5ae9d1834d53acd64aaf3f133e41d1462556355e131342d3d89cde2ff040d9ee",
    "crossproduct-lie/trivial1/delta_star": "94e3b8eba9b722e8dd936d0fd76402809a2a1e94d8f711bb03b266773705efea",
    "crossproduct-lie/trivial2/delta_zero": "3f4f28e0c8ac033c01929d9c95e904581d242b47ea02d87df5df6626c673c548",
    "crossproduct-lie/trivial2/delta_p1": "c6f45ceb14b47be5eb78687546ccbf01dea10aa02d919eebbed3b571cd3166a9",
    "crossproduct-lie/trivial2/delta_p2": "8c7c13ff4def9599b82c331d802f0716f4a3cd6f3c0c936a8f95c6ca54c3497c",
    "crossproduct-lie/trivial2/delta_star": "292c160805c45d85d1527d11f0b2d7931a272b189983c82ca1d004788c7e1c9d",
}


def _digest(m: Matrix) -> str:
    return hashlib.sha256(f"{m.rows}x{m.cols}:{','.join(map(str, m.entries))}".encode()).hexdigest()


@pytest.mark.parametrize("rep", ["adjoint", "trivial1", "trivial2"])
def test_operator_matrices_pinned_entrywise(corpus, rep):
    for name, (a, ad) in corpus.items():
        r = ad if rep == "adjoint" else trivial_rep(a, int(rep[-1]))
        operators = {
            "delta_zero": delta_zero_matrix(a, r),
            "delta_p1": delta_matrix(a, r, 1),
            "delta_p2": delta_matrix(a, r, 2),
            "delta_star": delta_star_matrix(a, r),
        }
        for op, m in operators.items():
            key = f"{name}/{rep}/{op}"
            assert _digest(m) == OPERATOR_DIGESTS[key], key


# SHA-256 of "AMBIENT:[pivots]:" followed by the reduced row echelon basis
# vectors (";"-separated rows of ","-joined entries) of each subspace, recorded
# with dense Fraction Gauss-Jordan elimination of the densified operators.  The
# reduced row echelon form of a subspace is unique, so every elimination must
# reproduce them exactly.  "z_p2" is ker delta_2, the Z of h_upper at p = 2.
SUBSPACE_DIGESTS = {
    "3dim/adjoint/h1": "bc81de90049fdc007829c1b67cf7e9983afd597a1eef2249aa4d295122a04244",
    "3dim/adjoint/z23": "eea80e7ffa2fba0fceba9237db995110bd01a5cf15fa79ccce9cb2fd5b40ce36",
    "3dim/adjoint/b23": "431c8a801e3b35c546e36ce8f2c34a309f84c600c3e04f642d2799e46838f699",
    "3dim/adjoint/z_p2": "fb00ce0e92d06d567473516ea8e5a3697b170b94059dcca1040fd9cb08304a89",
    "meson2/adjoint/h1": "c059f2b7592f643df5eee08b8ba87da59845ee4f58a09949533261f8609e59ff",
    "meson2/adjoint/z23": "53ce833e8cf9fe060113fda2f990508800542a8cf6f5de1aed8faa6a8ca8f05b",
    "meson2/adjoint/b23": "53ce833e8cf9fe060113fda2f990508800542a8cf6f5de1aed8faa6a8ca8f05b",
    "meson2/adjoint/z_p2": "ad9598fa032c6cf0749ec567cfe4595c5733e10a6641a67b74b694752f0fb458",
    "meson3/adjoint/h1": "755545886230b6710abbbca87beaf30916a67dbbdcd3788d6bdbb93d9ab7b3a0",
    "meson3/adjoint/z23": "00b4a3eacde1c23d033eb8f93514071fe34d975f0eef2e7714ee2a7ac296f652",
    "meson3/adjoint/b23": "2ddda05eb76cda5d55d2334720d88937abf777f165e383de02f6424dc838c1db",
    "meson3/adjoint/z_p2": "35da8f897728750b5153d179b1fc3ea25c5e040214a7140ad68ce7de7cec1604",
    "crossproduct-lie/adjoint/h1": "755545886230b6710abbbca87beaf30916a67dbbdcd3788d6bdbb93d9ab7b3a0",
    "crossproduct-lie/adjoint/z23": "9317aa454c6040a26ca38cc907aa3c2d403691ad83c7653b2ff8313d1cae6821",
    "crossproduct-lie/adjoint/b23": "5707b1ad7157733a11f870ca2a2edb44c3ec97a57c8a4c9e38321193631ff13e",
    "crossproduct-lie/adjoint/z_p2": "59d517400e8660c1f65586b163e4b39ad491d99b11bd360f22204747b4e245c6",
    "3dim/trivial1/h1": "38696f42102092d886e0b12f2b5ae90f0b416762906d702183b7b11616fdd1e8",
    "3dim/trivial1/z23": "0de745a02062cf5ead6a0a1cc7d9275dda547ff0c24fab76f54020998b80ac9a",
    "3dim/trivial1/b23": "788cb0d4b42a917d5a2efc6c6f35015167346cff26c0ec41ed3308d040bbc305",
    "3dim/trivial1/z_p2": "fd634f03040b5bf68aeae8ac258c7d4c3d05e39608159e9147be78beccda59f9",
    "meson2/trivial1/h1": "2bed1c23abe9c40923b91e32cf98a01a4a7f5ecec4b839a70922969b9d2aff81",
    "meson2/trivial1/z23": "7a34d76eddb1a4d34026db90ad59ca95b42a95ba5d31328f93780d15f55d595d",
    "meson2/trivial1/b23": "775ea0df5613cc83a2c0e934d62bf165d34e2ece70e536606ae9b0e20d92c917",
    "meson2/trivial1/z_p2": "d99cb1d39cae86f121a40587bd3e12660d68a6dbd49e1d1aa6a580b621008a1f",
    "meson3/trivial1/h1": "8f7a0752441906f0a222ac6edfce281f48bc3ef45bbb2b9cfd1fddc306f88305",
    "meson3/trivial1/z23": "700173a49c4184a6ea2b070297f3617cf6b3eb24d340bdd1c427bb0a4466c0e6",
    "meson3/trivial1/b23": "700173a49c4184a6ea2b070297f3617cf6b3eb24d340bdd1c427bb0a4466c0e6",
    "meson3/trivial1/z_p2": "9fce060a71474ae613d9a8f150362b8db0d5d4f959dc7dc1286e29c46375f494",
    "crossproduct-lie/trivial1/h1": "8f7a0752441906f0a222ac6edfce281f48bc3ef45bbb2b9cfd1fddc306f88305",
    "crossproduct-lie/trivial1/z23": "05e9f70fa7a4db8180815a324c483b938c30faf66612d6f207d538ad7a70aedf",
    "crossproduct-lie/trivial1/b23": "05e9f70fa7a4db8180815a324c483b938c30faf66612d6f207d538ad7a70aedf",
    "crossproduct-lie/trivial1/z_p2": "3b21f1ec4231ed45f1ee1897fc0dc74f4d593cfa89d62cf7a5de359c36ca21e6",
    "3dim/trivial2/h1": "65e809c8c2adf2594481a9bf183bd6ffc3d436118c753982cd7ef7d0eb079148",
    "3dim/trivial2/z23": "d0423880dc7daf96f4c370a5a223b99bb27fb082c1e5d5a836a3fdacc952ca7f",
    "3dim/trivial2/b23": "ddb554a4d582727596b61737933972745b681e863ffb287a158605835a39f06a",
    "3dim/trivial2/z_p2": "526163d0f066238a9f76b8b150c236ae97e170bdc847c620534deeee3547d1fb",
    "meson2/trivial2/h1": "3daea9f5b5695354663030b9cda123852bb75c17eb42c9bba92371081ef020f6",
    "meson2/trivial2/z23": "acf02095ed7a0a5f48b859c4e8804e0cffca57b5026b255413584cac68cac8c0",
    "meson2/trivial2/b23": "26da8db18332ee9806c5a909f5c4fe01f4ef45404de79c6eb34b0ac5bf41d06a",
    "meson2/trivial2/z_p2": "d4c2cc682cc9594aab7908409d88839bdd8cf81338a951479e184d62bfadb01b",
    "meson3/trivial2/h1": "2403ce015ca286d95b084d04a89455e216ad2eed7ce027bb568e166afd7df155",
    "meson3/trivial2/z23": "b2313c2aebe78f56bf1fe35480b6f9b69e2ed28bf636cb85d5cfb1809ce5871f",
    "meson3/trivial2/b23": "b2313c2aebe78f56bf1fe35480b6f9b69e2ed28bf636cb85d5cfb1809ce5871f",
    "meson3/trivial2/z_p2": "cac7a8ae0df8a72199b25bddd00bdfa2a38230ffe21455f157d149be393b0c5c",
    "crossproduct-lie/trivial2/h1": "2403ce015ca286d95b084d04a89455e216ad2eed7ce027bb568e166afd7df155",
    "crossproduct-lie/trivial2/z23": "af945e7f67d0876cb706fccab93e3afdc34d9fb48af3fb2811b656e57730eeab",
    "crossproduct-lie/trivial2/b23": "af945e7f67d0876cb706fccab93e3afdc34d9fb48af3fb2811b656e57730eeab",
    "crossproduct-lie/trivial2/z_p2": "e3b0c9a540ba1c81b19c92e031e8496c497342b89bfdf592c9a1ccc9918264b1",
}


def _basis_digest(basis) -> str:
    pivots = [next(k for k, x in enumerate(v) if x) for v in basis.vectors]
    rows = ";".join(",".join(map(str, v)) for v in basis.vectors)
    return hashlib.sha256(f"{basis.ambient_dim}:{pivots}:{rows}".encode()).hexdigest()


# Pins where the held operators have scale den**2 != 1: 3dim and
# crossproduct-lie in the basis f_i = s_i e_i of ``test_denominators.rebased``,
# whose structure constants have denominator LCM 126 and 4410.  The matrices
# are digested as in OPERATOR_DIGESTS; "applied" is the SHA-256 of delta,
# delta_star and delta_zero on five seeded draws (";"-separated vectors of
# ","-joined entries).  All were recorded from the Fraction-valued assembly
# that the integer one replaced.
REBASED_DIGESTS = {
    "3dim/adjoint/delta_zero": "934bf449687a85f77f5717e88b4ab464e5cfe395928c54d59c4b56397c818d16",
    "3dim/adjoint/delta_p1": "fc310ee0cb82a81faae257a8472a318e7043153d3aa4226eed636b0d6f3ea41f",
    "3dim/adjoint/delta_p2": "23e738edd3eb60a513d88cf615f96388ed49251fafb130d4ab7a2fe0eb4ab07d",
    "3dim/adjoint/delta_star": "44bb780fae4c984ae7d43648dda74f0084d10601f46856c11a51dc500405f691",
    "3dim/adjoint/applied": "7de836cdb3062ae1da456cdd2d32ab76928b33b56a4a8bcbebeec45f1f51e74f",
    "3dim/trivial2/delta_zero": "263c167024d5a35fee2fc2ef77bb652b2a7a5378d7ade05346130d2efd58f5e9",
    "3dim/trivial2/delta_p1": "24ed46ee72aa9d0595515c9e6f58b43b38c8b13debf0b43f8d59e1d5bd33b90e",
    "3dim/trivial2/delta_p2": "fd10fb2759b2fa260fe1c9afa2d2083a6dad4f0146b010fdda2dc666a578bf8a",
    "3dim/trivial2/delta_star": "292c160805c45d85d1527d11f0b2d7931a272b189983c82ca1d004788c7e1c9d",
    "3dim/trivial2/applied": "73c1f3756a111f49043e28f1312563abe0776715064852fdf909f8377ea80c0a",
    "crossproduct-lie/adjoint/delta_zero": "8fcd32510963a7f9561c4efddc342d62bc870716e3927ed137ea84b42830f769",
    "crossproduct-lie/adjoint/delta_p1": "6baab4634514dd7997d3ce62384b02f19bb2c984275a8dc1281762e09529049b",
    "crossproduct-lie/adjoint/delta_p2": "da598e82d25f20a43967793f62f143397e6c9ca8c3ea0e124abcf39e7b096a8e",
    "crossproduct-lie/adjoint/delta_star": "1abac9deefeef1e4e2ddf003e2114b70853a0e34f65ae09c5dce2b9369a2b533",
    "crossproduct-lie/adjoint/applied": "34e05ceab4e18f9a3c616b838f59651a6253da33f078aac5784464a0b5bcb51f",
    "crossproduct-lie/trivial2/delta_zero": "3b96816746c2caf7e9a660d719568f106487f734a7b1b388ce6389a9cdc110b0",
    "crossproduct-lie/trivial2/delta_p1": "c0511739664bbdf923532226e5329d42b0b39a579fc7e0bf06c795548e8158aa",
    "crossproduct-lie/trivial2/delta_p2": "8bd1da8e99416a7475d0a4b2dd6084634ee29e745aca33417b375845b51f7b65",
    "crossproduct-lie/trivial2/delta_star": "292c160805c45d85d1527d11f0b2d7931a272b189983c82ca1d004788c7e1c9d",
    "crossproduct-lie/trivial2/applied": "219d74a65155016551ac2995e365fa1dc8e86da6b6bb354cd3aff8e46cf1330c",
}
REBASED_H23 = {
    "3dim/adjoint/h23": (14, 5),
    "3dim/trivial2/h23": (12, 2),
    "crossproduct-lie/adjoint/h23": (7, 6),
    "crossproduct-lie/trivial2/h23": (6, 6),
}


@pytest.mark.parametrize("rep", ["adjoint", "trivial2"])
@pytest.mark.parametrize("base", [example_3dim(), cross_product_lie()], ids=["3dim", "crossproduct-lie"])
def test_rebased_operators_pinned(base, rep):
    a = rebased(base)
    r = adjoint(a) if rep == "adjoint" else trivial_rep(a, 2)
    key = f"{base.name}/{rep}"
    operators = {
        "delta_zero": delta_zero_matrix(a, r),
        "delta_p1": delta_matrix(a, r, 1),
        "delta_p2": delta_matrix(a, r, 2),
        "delta_star": delta_star_matrix(a, r),
    }
    for op, m in operators.items():
        assert _digest(m) == REBASED_DIGESTS[f"{key}/{op}"], op
    res = h23(a, r)
    assert (res.dim_z, res.dim_b) == REBASED_H23[f"{key}/h23"]
    rng = random.Random(5)
    out = []
    for _ in range(5):
        pair = random_cochain_pair(1, a.dim, r.e, rng)
        f = random_c1(a.dim, r.e, rng)
        out.append(delta(a, r, pair).flat())
        out.extend(c.coeffs for c in delta_star(a, r, pair))
        out.append(delta_zero(a, r, f).flat())
    applied = ";".join(",".join(map(str, v)) for v in out)
    assert hashlib.sha256(applied.encode()).hexdigest() == REBASED_DIGESTS[f"{key}/applied"]
    # every held operator: int entries, none of them 0, over one scale den**2
    den = 126 if base.name == "3dim" else 4410
    for op in (_delta_op(a, r, 0), _delta_op(a, r, 1), _delta_op(a, r, 2), _delta_star_op(a, r)):
        assert op.scale == den**2
        assert all(type(x) is int and x for line in op.lines for _, x in line)


@pytest.mark.parametrize("rep", ["adjoint", "trivial1", "trivial2"])
def test_kernels_and_images_pinned(corpus, rep):
    for name, (a, ad) in corpus.items():
        r = ad if rep == "adjoint" else trivial_rep(a, int(rep[-1]))
        res = h23(a, r)
        bases = {
            "h1": h1(a, r)[1],
            "z23": res.z_basis,
            "b23": res.b_basis,
            "z_p2": delta_matrix(a, r, 2).kernel_basis(),
        }
        for which, basis in bases.items():
            key = f"{name}/{rep}/{which}"
            assert _basis_digest(basis) == SUBSPACE_DIGESTS[key], key


@pytest.mark.parametrize("rep", ["adjoint", "trivial2"])
def test_operator_kernels_and_images_equal_dense_ones(corpus, rep):
    """h_upper's Z and B, read off the sparse operators, equal those of the dense matrices."""
    for name, (a, ad) in corpus.items():
        r = ad if rep == "adjoint" else trivial_rep(a, 2)
        for p in (1, 2):
            op, m = _delta_op(a, r, p), delta_matrix(a, r, p)
            assert sparse_kernel(op.cols, op.lines).vectors == m.kernel_basis().vectors, (name, p)
            columns = SubspaceBasis(m.rows, [m.col(j) for j in range(m.cols)])
            assert op.image().vectors == columns.vectors, (name, p)


@pytest.mark.parametrize(
    "algebra, p, dims",
    [
        ("meson5", 1, (15, 15, 0, 10)),
        ("meson4", 2, (109, 109, 0)),
        ("crossproduct-lie", 2, (29, 29, 0)),
    ],
)
def test_scale_up_dims(algebra, p, dims):
    """Adjoint dims beyond the corpus; meson(4) at p = 2 eliminates a 4320 x 720 operator."""
    a = cross_product_lie() if algebra == "crossproduct-lie" else meson(int(algebra[-1]))
    r = adjoint(a)
    if p == 1:
        res = h23(a, r)
        assert (res.dim_z, res.dim_b, res.dim, h1(a, r)[0]) == dims
    else:
        res = h_upper(a, r, p)
        assert (res.dim_z, res.dim_b, res.dim) == dims
    assert res.delta_squared_zero



def test_groups_never_densify(monkeypatch):
    """Kernels and images go from the sparse operators straight to elimination."""
    a = example_3dim()
    r = adjoint(a)

    def dense_path(*args, **kwargs):
        raise AssertionError("densified on the way to elimination")

    monkeypatch.setattr(lieyamaguti.cohomology._Operator, "dense", dense_path)
    monkeypatch.setattr(Matrix, "rref", dense_path)
    monkeypatch.setattr(Matrix, "kernel_basis", dense_path)
    monkeypatch.setattr(SubspaceBasis, "__init__", dense_path)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert h1(a, r)[0] == 4
    assert h23(a, r).dim == 9
    assert h_upper(a, r, 2).dim == 22
    assert transport_defects(a, r, 1, [(identity, identity)]) == [0]


def test_cochain_zero_test():
    d, e = 3, 2
    zero = CochainPair.zero(1, d, e)
    assert zero.f.is_zero() and zero.g.is_zero() and zero.is_zero()
    flat = zero.flat()
    flat[-1] = Fraction(1, 3)
    last = CochainPair.from_flat(1, d, e, flat)
    assert last.f.is_zero() and not last.g.is_zero() and not last.is_zero()
    # below d = 3 delta* has an empty target, whose cochains are zero
    a = meson(2)
    r = adjoint(a)
    parts = delta_star(a, r, CochainPair.from_flat(1, a.dim, r.e, range(1, 7)))
    assert [(c.coeffs, c.is_zero()) for c in parts] == [((), True), ((), True)]


@pytest.fixture()
def eliminated(monkeypatch):
    """Per ``_cohomology`` call: (rows the elimination read, rows offered in order, stop rank, rank)."""
    calls = []
    eliminate = lieyamaguti.cohomology._eliminate

    def counting(rows, stop):
        rows = list(rows)
        read = []
        pivots = eliminate((read.append(row) or row for row in rows), stop)
        calls.append((len(read), [tuple(row.items()) for row in rows], stop, len(pivots)))
        return pivots

    monkeypatch.setattr(lieyamaguti.cohomology, "_eliminate", counting)
    return calls


def _every_row_eliminated(a, r, p):
    """Z and B of level p by a full elimination of every row out, in held order."""
    into, out = _coboundaries(a, r, p)
    cols = out[0][2].cols
    z = sparse_kernel(cols, itertools.chain.from_iterable(op.lines for _, _, op in out))
    b = into[0][2].image() if into else SubspaceBasis(cols)
    return z, b


def _bound_cases(corpus):
    for name, (a, ad) in corpus.items():
        for p in (0, 1, 2):
            yield f"{name}/adjoint/{p}", a, ad, p
            yield f"{name}/trivial1/{p}", a, trivial_rep(a, 1), p
    for name, a in (("aff1⋉ad", AFF1_AD), ("heis⋉ad", HEIS_AD)):
        for p in (0, 1):
            yield f"{name}/adjoint/{p}", a, adjoint(a), p
            yield f"{name}/trivial1/{p}", a, trivial_rep(a, 1), p
    for base in (example_3dim(), cross_product_lie()):
        a = rebased(base)
        for p in (1, 2):
            yield f"rebased {base.name}/adjoint/{p}", a, adjoint(a), p
            yield f"rebased {base.name}/trivial2/{p}", a, trivial_rep(a, 2), p


def test_rank_bound_keeps_z_and_b(corpus, eliminated):
    """``_cohomology``'s Z and B equal those of a full elimination, on both sides of the rank bound.

    The rows go to the elimination sparse first, ties in held order.
    """
    paths = collections.Counter()
    for key, a, r, p in _bound_cases(corpus):
        res = _cohomology(a, r, p, lieyamaguti.cohomology.DEFAULT_SIZE_CAP)
        z, b = _every_row_eliminated(a, r, p)
        assert (res.z_basis.vectors, res.b_basis.vectors) == (z.vectors, b.vectors), key
        assert res.delta_squared_zero
        read, rows, stop, rank = eliminated[-1]
        held = [line for _, _, op in _coboundaries(a, r, p)[1] for line in op.lines]
        assert rows == sorted(held, key=len), key
        offered = len(rows)
        assert stop == z.ambient_dim - b.dim, key
        if z.dim == b.dim:
            assert rank == stop and res.z_basis is res.b_basis, key
            paths["bound", read < offered] += 1
        else:
            assert read == offered and rank == z.ambient_dim - z.dim, key
            paths["full"] += 1
    # both paths run, and the bound skips rows somewhere
    assert paths["full"] and paths["bound", True]


def test_aff1_semidirect_adjoint_takes_the_full_path(eliminated):
    r = adjoint(AFF1_AD)
    res = h23(AFF1_AD, r)
    assert (res.dim_z, res.dim_b, res.dim) == (19, 11, 8)
    read, rows, stop, rank = eliminated[-1]
    assert read == len(rows) and rank < stop


@pytest.mark.parametrize("name, where", [("meson4", "skipped"), ("meson4", "eliminated"), ("3dim", "eliminated")])
def test_a_corrupted_delta_1_row_fails_containment(name, where):
    """One held delta_1 row no longer kills B: h23 raises, whether the bound skips that row or not.

    meson(4) has Z = B and reaches its rank bound, so the composite check
    catches the row; 3dim has H = 9, one row cannot lift its rank to the
    bound, and the kernel's containment test catches it.
    """
    a = meson(4) if name == "meson4" else example_3dim()
    r = adjoint(a)
    into, out = _coboundaries(a, r, 1)
    d0, d1 = into[0][2], out[0][2]
    lines = [line for _, _, op in out for line in op.lines]
    order = sorted(range(len(lines)), key=lambda i: len(lines[i]))
    read = []
    lieyamaguti.linalg._eliminate((read.append(i) or dict(lines[i]) for i in order), d1.cols - d0.image().dim)
    # meson(4) reaches the bound before the last rows of delta_1
    skipped = [i for i in order if i not in read and i < d1.rows]
    assert bool(skipped) == (name == "meson4")
    # a row whose entry in some column k with a nonzero delta_0 row k is doubled
    victim = next(
        i for i in (reversed(skipped) if where == "skipped" else read)
        if i < d1.rows and any(d0.lines[k] for k, _ in lines[i])
    )
    k = next(k for k, _ in lines[victim] if d0.lines[k])
    corrupted = list(d1.lines)
    corrupted[victim] = tuple((col, 2 * x if col == k else x) for col, x in lines[victim])
    a._operators[id(r)][2][_space(1), _space(2)] = _Operator(d1.cols, tuple(corrupted), d1.scale)
    with pytest.raises(CocycleContainmentFailure):
        h23(a, r)


def test_validation_runs_once_per_entry_point(monkeypatch, rng, tmp_path, capsys):
    """A fresh algebra is validated once across every entry point; a CLI job validates once."""
    calls = []
    check_axioms = lieyamaguti.algebra.check_axioms

    def counting(*args, **kwargs):
        calls.append(1)
        return check_axioms(*args, **kwargs)

    def cli_job(*argv):
        assert run(list(argv)) == 0
        capsys.readouterr()

    monkeypatch.setattr(lieyamaguti.algebra, "check_axioms", counting)
    a = meson(3)
    r = adjoint(a)
    c = random_cochain_pair(1, a.dim, r.e, rng)
    f = random_c1(a.dim, r.e, rng)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    entry_points = {
        "adjoint": lambda: adjoint(a),
        "h1": lambda: h1(a, r),
        "h23": lambda: h23(a, r),
        "h_upper": lambda: h_upper(a, r, 2),
        "delta": lambda: delta(a, r, c),
        "delta_star": lambda: delta_star(a, r, c),
        "delta_zero": lambda: delta_zero(a, r, f),
        "transport_defects": lambda: transport_defects(a, r, 1, [(identity, identity)]),
        "derivations": lambda: derivations(a),
        "inner_derivation": lambda: inner_derivation(a, (1, 0, 0), (0, 1, 0)),
        "check_representation": lambda: check_representation(a, r),
        "check_rlyb7": lambda: check_rlyb7(a, r),
    }
    for call in entry_points.values():
        call()
    assert len(calls) == 1
    # each CLI job loads a fresh algebra and validates it once: a bundle job on load,
    # and its fibre group, adjoint module and transport check reuse that
    path = tmp_path / "meson3.json"
    path.write_text(render(fixture("meson3")), encoding="utf-8")
    circle = tmp_path / "circle.json"
    circle.write_text(render(fixture("circle-bundle")), encoding="utf-8")
    jobs = [("cohomology", str(path), "--p", "1")]
    jobs += [("bundle-cohomology", str(circle), "--which", which) for which in ("h1", "der", "h23", "upper")]
    for argv in jobs:
        calls.clear()
        cli_job(*argv)
        assert len(calls) == 1, argv


def test_cohomology_p1_assembles_delta_zero_once(monkeypatch, tmp_path, capsys):
    """``cohomology --p 1`` reads B^(2,3) and H^1 off one delta_zero operator."""
    path = tmp_path / "3dim.json"
    path.write_text(render(fixture("3dim")), encoding="utf-8")
    built = []
    assemble = lieyamaguti.cohomology._delta_op

    def counting(a, r, p):
        built.append(p)
        return assemble(a, r, p)

    monkeypatch.setattr(lieyamaguti.cohomology, "_delta_op", counting)
    assert run(["cohomology", str(path), "--p", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert built.count(0) == 1
    a = example_3dim()
    r = adjoint(a)
    # rank-nullity: H^1 = ker delta_zero and B^(2,3) = im delta_zero
    assert payload["dimH1"] == cochain_dim(1, a.dim, r.e) - h23(a, r).dim_b == h1(a, r)[0] == 4
