"""Products and mirrors hand ``_from_entries`` no all-zero entry, and ``_slots`` skips the shared zero.

``representation._product_algebra`` keeps a slot only when it can be
nonzero, and negates module columns with ``-x``; the dense body it replaced
is kept here unchanged as the reference.  The products must be equal to the
reference's, field by field, with equal slot lists, and every slot of a
product, of a ``from_sparse`` algebra and of ``meson(n)`` is either the
shared ``zero_vector`` or a nonzero vector.
"""

import itertools
import random
from fractions import Fraction

from random_cochains import random_cochain_pair, random_fraction

from lieyamaguti import example_3dim, meson, semidirect, twisted_semidirect
from lieyamaguti.algebra import _from_entries, from_sparse
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


def test_products_equal_the_dense_reference_and_hand_over_no_zero_slot(corpus):
    rng = random.Random(23)
    for name, a, r in _modules(corpus, rng):
        taus = [None, random_cochain_pair(1, a.dim, r.e, rng)]
        for tau in taus:
            got = semidirect(a, r, "p") if tau is None else twisted_semidirect(a, r, tau, "p")
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


def test_slots_skip_the_shared_zero_without_testing_its_coordinates(monkeypatch):
    """Only the coordinates of slots not laid over the shared zero vector are tested."""
    a = meson(5)
    zero = zero_vector(a.dim)
    expected = sum(len(v) for v in _slot_vectors(a) if v is not zero)
    tested = []
    truth = Fraction.__bool__

    def counting(x):
        tested.append(x)
        return truth(x)

    monkeypatch.setattr(Fraction, "__bool__", counting)
    slots = a._slots
    monkeypatch.undo()
    assert len(tested) == expected < len(_slot_vectors(a)) * a.dim
    assert sum(len(entries) for group in slots for _, entries in group) == sum(
        1 for v in _slot_vectors(a) for x in v if x
    )
