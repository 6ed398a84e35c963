"""A module's stored form against the dense clearing it replaced, entry by entry.

A ``Representation`` holds its nonzero rho, D and theta maps cleared to
integers, and ``_integer_data`` hands them out as they are, rescaled only
when the algebra's denominators raise den.  The reference below keeps the
dense path: e x e ``Matrix`` maps (the adjoint built column by column from
the views ``binary`` and ``ternary``, a trivial module of zero matrices, a
module parsed entry by entry from its JSON), cleared by the LCM of every
denominator of the algebra and the module.  Both must give the same den,
tables and rows on:

- the corpus and products x {adjoint, trivial 1, trivial 2};
- modules loaded from JSON with denominators, whose den is larger or
  smaller than the algebra's;
- ``replace_theta`` perturbations and rebased copies.

The views must equal the matrices handed to the public constructor, the
semidirect and twisted products must equal the dense products slot for slot,
and neither building the adjoint nor ``_integer_data`` may build a Matrix
or clear a dense map.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from test_denominators import SCALES, rebased
from test_map_defect import _twisted
from test_operator_cache import _signed_permutation
from test_product_slots import dense_product

from lieyamaguti import (
    adjoint,
    delta_zero,
    example_3dim,
    meson,
    representation,
    semidirect,
    trivial_rep,
    twisted_semidirect,
)
from lieyamaguti.algebra import integer_tables
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix, denominator_lcm, scaled_sparse
from lieyamaguti.representation import Representation, _integer_data
from lieyamaguti.schemas import frac_from_json, representation_from_json, representation_to_json


def dense_adjoint(a):
    """rho, D and theta of the adjoint module as dense Matrices, built column by column from the views."""
    d, rng = a.dim, range(a.dim)

    def columns(vectors):
        return Matrix(d, d, [v[i] for i in rng for v in vectors])

    rho = tuple(columns([a.binary[i][j] for j in rng]) for i in rng)
    dmap = tuple(tuple(columns([a.ternary[i][j][k] for k in rng]) for j in rng) for i in rng)
    theta = tuple(tuple(columns([a.ternary[k][i][j] for k in rng]) for j in rng) for i in rng)
    return rho, dmap, theta


def dense_trivial(a, e):
    z = Matrix.zero(e, e)
    return (z,) * a.dim, ((z,) * a.dim,) * a.dim, ((z,) * a.dim,) * a.dim


def dense_from_json(obj):
    """The maps of a module file, each parsed entry by entry into a Matrix."""

    def matrix(rows):
        return Matrix.from_rows([[frac_from_json(x) for x in row] for row in rows])

    return (
        tuple(matrix(m) for m in obj["rho"]),
        tuple(tuple(matrix(m) for m in row) for row in obj["D"]),
        tuple(tuple(matrix(m) for m in row) for row in obj["theta"]),
    )


def dense_integer_data(a, rho, dmap, theta):
    """The dense clearing: den over every entry of the algebra and of every map, then each row scaled."""
    mats = [*rho, *(m for row in dmap for m in row), *(m for row in theta for m in row)]
    den, B, T = integer_tables(a, (x for m in mats for x in m.entries))

    def rows(m, scale):
        return [scaled_sparse(m.row(i), scale) for i in range(m.rows)]

    return (
        den,
        B,
        T,
        [rows(m, den) for m in rho],
        [[rows(m, den * den) for m in row] for row in dmap],
        [[rows(m, den * den) for m in row] for row in theta],
    )


def _listed(x):
    """Nested tuples and lists as lists, so two tables compare by their entries alone."""
    return [_listed(y) for y in x] if isinstance(x, (list, tuple)) else x


def assert_same_data(a, r, dense):
    got, expect = _integer_data(a, r), dense_integer_data(a, *dense)
    assert got[0] == expect[0]
    for n, (x, y) in enumerate(zip(got[1:], expect[1:]), 1):
        assert _listed(x) == _listed(y), n
    assert r == Representation(r.e, *dense)
    assert (r.rho, r.dmap, r.theta) == dense


def _algebras():
    cross = cross_product_lie()
    out = {
        "3dim": example_3dim(),
        "meson2": meson(2),
        "meson3": meson(3),
        "meson4": meson(4),
        "crossproduct-lie": cross,
        "3dim-twisted": _twisted(),
        "crossproduct-lie⋉ad": semidirect(cross, adjoint(cross)),
        "3dim-rebased": rebased(example_3dim(), SCALES),
        "crossproduct-lie-rebased": rebased(cross, SCALES),
    }
    rng = random.Random(34)
    for name in ("3dim", "meson3", "crossproduct-lie"):
        out[f"{name}-permuted"] = _signed_permutation(out[name], rng)
    return out


ALGEBRAS = _algebras()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_adjoint_and_trivial_modules_match_the_dense_clearing(name):
    a = ALGEBRAS[name]
    assert_same_data(a, adjoint(a), dense_adjoint(a))
    for e in (1, 2):
        assert_same_data(a, trivial_rep(a, e), dense_trivial(a, e))
    assert trivial_rep(a, 2)._maps == ((), (), ())
    if name.endswith("rebased") or name == "3dim-twisted":
        assert adjoint(a)._den > 1


def _flat(group):
    """The maps of rho (a tuple of Matrices) or of a d x d family, in one list."""
    return [m for x in group for m in (x if isinstance(x, tuple) else (x,))]


def _fractional_module(a, rng, denominators):
    """A module file over a, every map with about half its entries small fractions over ``denominators``."""
    e = 2

    def entry():
        return str(Fraction(rng.randint(-4, 4), rng.choice(denominators))) if rng.random() < 0.5 else "0"

    def block():
        return [[entry() for _ in range(e)] for _ in range(e)]

    d = a.dim
    return {
        "e": e,
        "rho": [block() for _ in range(d)],
        "D": [[block() for _ in range(d)] for _ in range(d)],
        "theta": [[block() for _ in range(d)] for _ in range(d)],
    }


WITH_DENOMINATORS = ["3dim", "crossproduct-lie", "3dim-rebased", "crossproduct-lie-rebased", "3dim-twisted"]


@pytest.mark.parametrize("name", WITH_DENOMINATORS)
def test_json_modules_with_denominators_match_the_dense_clearing(name):
    """The module's den is above, below or coprime to the algebra's, so every rescaling path runs."""
    a = ALGEBRAS[name]
    rng = random.Random(len(name))
    a_den = integer_tables(a)[0]
    kept = set()
    for denominators in ((1,), (2, 3), (11, 13), (3, 7), (11 * a_den,)):
        for _ in range(3):
            obj = _fractional_module(a, rng, denominators)
            r = representation_from_json(obj, a.dim)
            dense = dense_from_json(obj)
            assert r._den == denominator_lcm(x for group in dense for m in _flat(group) for x in m.entries)
            assert_same_data(a, r, dense)
            assert representation_to_json(r) == {"e": 2, **{k: obj[k] for k in ("rho", "D", "theta")}}
            kept.add(_integer_data(a, r)[0] == r._den)
    # an algebra with den 1 never raises the module's; any other does for some of these modules, not all
    assert kept == ({True} if a_den == 1 else {True, False})


def _random_block(e, rng):
    return Matrix(e, e, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 1009))) for _ in range(e * e)])


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_replace_theta_matches_the_dense_replacement(name):
    """Perturb, restore and zero theta blocks; den rises and falls with the blocks it holds."""
    a = ALGEBRAS[name]
    rng = random.Random(name)
    r, dense = adjoint(a), list(dense_adjoint(a))
    d, e = a.dim, a.dim
    for step in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if step % 3 == 2:
            block = dense_adjoint(a)[2][i][j]  # the block the adjoint had
        elif step % 3 == 1:
            block = Matrix.zero(e, e)
        else:
            block = _random_block(e, rng)
        theta = [list(row) for row in dense[2]]
        theta[i][j] = block
        dense[2] = tuple(map(tuple, theta))
        r = r.replace_theta(i, j, block)
        assert_same_data(a, r, tuple(dense))
        assert r._den == denominator_lcm(x for group in dense for m in _flat(group) for x in m.entries)


def test_den_falls_back_when_the_block_that_raised_it_goes():
    a = example_3dim()
    r = adjoint(a)
    raised = r.replace_theta(0, 1, Matrix(3, 3, [Fraction(1, 1009)] + [0] * 8))
    assert raised._den == 1009
    back = raised.replace_theta(0, 1, adjoint(a).theta[0][1])
    assert back == r and back._den == 1 and hash(back) == hash(r)
    assert back._maps == r._maps


def test_views_equal_the_matrices_handed_to_the_constructor():
    rng = random.Random(5)
    for d, e in ((1, 1), (2, 3), (3, 2), (4, 1)):

        def block():
            entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(e * e)]
            return Matrix(e, e, [x if rng.random() < 0.4 else 0 for x in entries])

        rho = tuple(block() for _ in range(d))
        dmap, theta = (tuple(tuple(block() for _ in range(d)) for _ in range(d)) for _ in range(2))
        r = Representation(e, rho, dmap, theta)
        assert (r.e, r.d, r.rho, r.dmap, r.theta) == (e, d, rho, dmap, theta)
        assert r.rho is r.rho  # built once
        z = Matrix.zero(e, e)
        zero = Representation(e, (z,) * d, ((z,) * d,) * d, ((z,) * d,) * d)
        assert zero._maps == ((), (), ()) and zero._den == 1


def test_equal_modules_from_every_path_compare_hash_and_pickle_alike():
    a = example_3dim()
    r = adjoint(a)
    built = Representation(3, *dense_adjoint(a))
    loaded = representation_from_json(representation_to_json(r), 3)
    assert r == built == loaded and len({hash(r), hash(built), hash(loaded)}) == 1
    assert r.theta is not None  # the views are built on r
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert back == r and not {"rho", "dmap", "theta"} & set(vars(back))
        assert back.theta == r.theta
    assert r != trivial_rep(a, 3) and trivial_rep(a, 3) == Representation(3, *dense_trivial(a, 3))


def _products(a, r):
    f = Matrix(r.e, a.dim, [Fraction(n % 5 - 2, 1 + n % 3) for n in range(r.e * a.dim)])
    yield "semidirect", semidirect(a, r), None
    yield "twisted", twisted_semidirect(a, r, delta_zero(a, r, f)), delta_zero(a, r, f)


@pytest.mark.parametrize("name", ["3dim", "meson3", "crossproduct-lie", "3dim-rebased", "3dim-twisted"])
def test_products_equal_the_dense_products_slot_for_slot(name):
    """The products of the stored maps equal those of the dense matrices, read as the parent read them."""
    a = ALGEBRAS[name]
    rng = random.Random(7)
    ad = adjoint(a)
    modules = [
        (ad, dense_adjoint(a)),
        (trivial_rep(a, 2), dense_trivial(a, 2)),
    ]
    block = _random_block(a.dim, rng)
    perturbed = list(dense_adjoint(a))
    theta = [list(row) for row in perturbed[2]]
    theta[1][0] = block
    perturbed[2] = tuple(map(tuple, theta))
    modules.append((ad.replace_theta(1, 0, block), tuple(perturbed)))
    for r, dense in modules:
        reference = SimpleNamespace(e=r.e, rho=dense[0], dmap=dense[1], theta=dense[2])
        for kind, product, tau in _products(a, r):
            expect = dense_product(a, reference, tau, product.name)
            assert product._slots == expect._slots, kind
            assert product.dim == expect.dim, kind


@pytest.fixture()
def counted(monkeypatch):
    """Counts of Matrix builds, and of the clearing calls in ``representation``."""
    counts = {"Matrix": 0, "scaled_sparse": 0, "denominator_lcm": 0}
    init = Matrix.__init__

    def counting_init(self, *args):
        counts["Matrix"] += 1
        init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    for name in ("scaled_sparse", "denominator_lcm"):

        def counting(*args, fn=getattr(representation, name), name=name):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(representation, name, counting)
    return counts


def test_adjoint_builds_no_matrix_and_integer_data_clears_no_dense_map(counted):
    obj = _fractional_module(example_3dim(), random.Random(1), (2, 3))
    loaded = representation_from_json(obj, 3)
    counted["denominator_lcm"] = counted["scaled_sparse"] = 0
    for name in ("3dim", "meson4", "crossproduct-lie", "3dim-rebased"):
        a = copy.copy(ALGEBRAS[name])  # no held adjoint
        assert "_adjoint" not in vars(a)
        modules = [adjoint(a), trivial_rep(a, 2)]
        if a.dim == 3:
            modules.append(loaded)
        for r in modules:
            _integer_data(a, r)
    assert counted == {"Matrix": 0, "scaled_sparse": 0, "denominator_lcm": 0}
    # the dense adjoint, by contrast, is d + 2 d**2 Matrices
    a = example_3dim()
    dense_integer_data(a, *dense_adjoint(a))
    assert counted["Matrix"] == 21


def test_integer_data_rescales_only_when_the_algebra_raises_den():
    a = rebased(example_3dim(), SCALES)
    r = Representation._stored(1, 3, 2, (((0, (((0, 1),),)),), (), ()))  # rho(e_1) = 1/2
    den, *_, rho, _, _ = _integer_data(a, r)
    assert den == 126 and rho[0] == (((0, 63),),)
    plain = example_3dim()
    _, *_, rho, _, _ = _integer_data(plain, r)
    assert rho[0] is r._maps[0][0][1]


def test_json_load_and_constructor_refuse_alike():
    """The shape refusals of the public constructor and of the JSON path are the same messages."""
    a = example_3dim()
    obj = representation_to_json(adjoint(a))
    obj["theta"][2] = obj["theta"][2][:2]
    with pytest.raises(Exception, match="D/theta must be d x d families"):
        representation_from_json(obj, 3)
    obj = representation_to_json(adjoint(a))
    obj["D"][0][0] = [["0", "0"], ["0", "0"]]
    with pytest.raises(Exception, match="expected a 3x3 matrix, got 2x2"):
        representation_from_json(obj, 3)
    obj["D"][0][0] = [["0", "0", "0"], ["0", "0"], ["0", "0", "0"]]
    with pytest.raises(Exception, match="ragged rows"):
        representation_from_json(obj, 3)
    with pytest.raises(Exception, match="D/theta matrices must be e x e"):
        adjoint(a).replace_theta(0, 0, Matrix.zero(2, 2))
    for i, j in itertools.product((3, -4), (0,)):
        with pytest.raises(IndexError):
            adjoint(a).replace_theta(i, j, Matrix.zero(3, 3))
