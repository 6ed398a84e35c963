"""Products hand ``_from_entries`` no all-zero entry, and an algebra's dense views share the zero vector.

``representation._product_algebra`` keeps a slot only when it can be
nonzero, and negates module columns with ``-x``; the dense body it replaced
is kept here unchanged as the reference.  The products must be equal to the
reference's, field by field, with equal slot lists.  An algebra stores its
nonzero slots only; the views ``binary`` and ``ternary`` must equal the dense
tensors that algebras held before, and every zero slot of a view is the
shared ``zero_vector``.
"""

import itertools
import random
from fractions import Fraction

from random_cochains import random_cochain_pair, random_fraction
from test_denominators import rebased

from lieyamaguti import adjoint, algebra, example_3dim, meson, representation, semidirect, twisted_semidirect
from lieyamaguti.algebra import _from_entries, from_sparse
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix, vec_scale, zero_vector
from lieyamaguti.representation import trivial_rep


def dense_product(a, r, tau, name):
    d, e = a.dim, r.e
    zd, ze = zero_vector(d), zero_vector(e)
    b, t = {}, {}
    for i, j in itertools.product(range(d), repeat=2):
        f = tau.f.eval_basis((i, j)) if tau is not None else ze
        b[i, j] = a.binary[i][j] + f
        for k in range(d):
            g = tau.g.eval_basis((i, j, k)) if tau is not None else ze
            t[i, j, k] = a.ternary[i][j][k] + g
        for c in range(e):
            u = r.theta[i][j].col(c)
            t[i, j, d + c] = zd + r.dmap[i][j].col(c)
            t[d + c, i, j] = zd + u
            t[i, d + c, j] = zd + vec_scale(-1, u)
    for i in range(d):
        for c in range(e):
            u = r.rho[i].col(c)
            b[i, d + c] = zd + u
            b[d + c, i] = zd + vec_scale(-1, u)
    return _from_entries(d + e, b, t, name)


def _slot_vectors(a):
    return [*(v for row in a.binary for v in row), *(v for plane in a.ternary for row in plane for v in row)]


def _modules(corpus, rng):
    """Adjoint, trivial and perturbed-theta modules over each corpus algebra."""
    for name, (a, ad) in corpus.items():
        yield name, a, ad
        yield f"{name} trivial", a, trivial_rep(a, 2)
        i, j = rng.randrange(a.dim), rng.randrange(a.dim)
        block = Matrix(a.dim, a.dim, [random_fraction(rng) for _ in range(a.dim * a.dim)])
        yield f"{name} theta{i}{j}", a, ad.replace_theta(i, j, block)


def test_products_equal_the_dense_reference_and_hand_over_no_zero_slot(corpus, monkeypatch):
    handed = []

    def recording(d, binary, ternary, name=""):
        handed.append([*binary.values(), *ternary.values()])
        return _from_entries(d, binary, ternary, name)

    monkeypatch.setattr(representation, "_from_entries", recording)
    rng = random.Random(23)
    for name, a, r in _modules(corpus, rng):
        taus = [None, random_cochain_pair(1, a.dim, r.e, rng)]
        for tau in taus:
            got = semidirect(a, r, "p") if tau is None else twisted_semidirect(a, r, tau, "p")
            assert all(any(v) for v in handed.pop()), (name, tau is None)
            want = dense_product(a, r, tau, "p")
            assert got == want, (name, tau is None)
            assert got._slots == want._slots, (name, tau is None)
            zero = zero_vector(got.dim)
            assert all(v is zero or any(v) for v in _slot_vectors(got)), (name, tau is None)


def test_constructors_lay_every_zero_slot_over_the_shared_zero_vector():
    sparse = from_sparse(3, {(0, 2): (1, 0, Fraction(1, 2))}, {(1, 2, 0): (0, 3, 0)})
    algebras = [example_3dim(), meson(2), meson(4), sparse]
    for a in algebras:
        zero = zero_vector(a.dim)
        assert all(v is zero or any(v) for v in _slot_vectors(a)), a.name


def dense_layout(d, binary, ternary):
    """The dense tensors an algebra held before it stored only its slots.

    Each entry is laid out as it was handed over, every other slot is the
    shared zero vector.
    """
    z, rng = zero_vector(d), range(d)
    b = tuple(tuple(binary.get((i, j), z) for j in rng) for i in rng)
    t = tuple(tuple(tuple(ternary.get((i, j, k), z) for k in rng) for j in rng) for i in rng)
    return b, t


def test_views_equal_the_dense_tensors_and_lay_zero_slots_over_the_shared_zero(monkeypatch):
    """On the corpus, its rebased copies and its adjoint and twisted products.

    Every ``_from_entries`` call is recorded with the dense layout of the
    entries it was handed.  The views must equal that layout, every zero slot
    of a view must be ``zero_vector(d)`` itself, and ``_slots`` must list
    exactly the nonzero coordinates of the layout, slot by slot in index order.
    """
    built = []

    def recording(d, binary, ternary, name=""):
        a = _from_entries(d, binary, ternary, name)
        built.append((a, dense_layout(d, binary, ternary)))
        return a

    for module in (algebra, representation):
        monkeypatch.setattr(module, "_from_entries", recording)
    rng = random.Random(29)
    for a in (example_3dim(), meson(2), meson(3), cross_product_lie()):
        r = adjoint(a)
        rebased(a)
        semidirect(a, r)
        twisted_semidirect(a, r, random_cochain_pair(1, a.dim, r.e, rng))
    monkeypatch.undo()
    assert len(built) >= 16
    for a, (binary, ternary) in built:
        assert (a.binary, a.ternary) == (binary, ternary), a.name
        zero = zero_vector(a.dim)
        assert all(v is zero or any(v) for v in _slot_vectors(a)), a.name
        rng_d = range(a.dim)
        pairs = [((i, j), binary[i][j]) for i in rng_d for j in rng_d]
        triples = [((i, j, k), ternary[i][j][k]) for i in rng_d for j in rng_d for k in rng_d]
        assert a._slots == tuple(
            tuple((idx, tuple((m, c) for m, c in enumerate(v) if c)) for idx, v in group if any(v))
            for group in (pairs, triples)
        ), a.name
