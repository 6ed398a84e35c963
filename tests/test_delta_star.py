"""delta* on its own alternating target, checked against a pointwise reference.

The reference evaluates delta*_I and delta*_II from the formula in the
``cohomology`` module docstring on every ordered basis tuple, reading only
the input cochain's values; it uses neither delta*'s target shape nor its
operator.  It backs the ``*/delta_star`` operator pins of ``test_cohomology``.
"""

import itertools

from lieyamaguti import adjoint, delta_star, trivial_rep
from lieyamaguti.cohomology import CochainPair
from lieyamaguti.linalg import vec_add, vec_scale, vec_sub, zero_vector

from random_cochains import random_cochain_pair
from test_semidirect_cohomology import AFF1_AD, HEIS_AD


def _reference_star(a, r, tau, xs):
    """delta*_I (three indices) or delta*_II (four) of tau on the basis tuple xs.

    Evaluated from the formula in the ``cohomology`` module docstring:
    sum over the cyclic permutations (u, v, w) of (x1, x2, x3) of
    f([u, v], w) - rho(u) f(v, w) + g(u, v, w), or of
    g([u, v], w, x4) + theta(u, x4) f(v, w).
    """
    f, g = tau.f, tau.g
    x1, x2, x3 = xs[:3]
    tail = xs[3:]
    out = zero_vector(r.e)
    for u, v, w in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2)):
        outer = g if tail else f
        for l, c in enumerate(a.binary[u][v]):
            if c:
                out = vec_add(out, vec_scale(c, outer.eval_basis((l, w) + tail)))
        if tail:
            out = vec_add(out, r.theta[u][tail[0]].matvec(f.eval_basis((v, w))))
        else:
            out = vec_sub(out, r.rho[u].matvec(f.eval_basis((v, w))))
            out = vec_add(out, g.eval_basis((u, v, w)))
    return out


def _models(corpus):
    algebras = {name: a for name, (a, _) in corpus.items()} | {"aff1⋉ad": AFF1_AD, "heis⋉ad": HEIS_AD}
    models = {}
    for name, a in algebras.items():
        models[f"{name}/adjoint"] = (a, adjoint(a))
        models[f"{name}/trivial2"] = (a, trivial_rep(a, 2))
    return models


def test_delta_star_matches_the_reference_on_every_ordered_tuple(corpus, rng):
    for name, (a, r) in _models(corpus).items():
        tau = random_cochain_pair(1, a.dim, r.e, rng)
        for value in delta_star(a, r, tau):
            n = value.shape.n
            reference = {
                xs: _reference_star(a, r, tau, xs) for xs in itertools.product(range(a.dim), repeat=n)
            }
            for xs, expect in reference.items():
                assert value.eval_basis(xs) == expect, (name, xs)
                # alternation in (x1, x2, x3); x4 is free
                for perm in itertools.permutations(range(3)):
                    sign = (-1) ** sum(perm[i] > perm[j] for i, j in ((0, 1), (0, 2), (1, 2)))
                    moved = reference[tuple(xs[i] for i in perm) + xs[3:]]
                    assert moved == vec_scale(sign, expect), (name, xs, perm)


def test_delta_star_target_is_empty_below_three_dimensions(corpus):
    a, r = corpus["meson2"]
    first, second = delta_star(a, r, CochainPair.zero(1, a.dim, r.e))
    assert first.coeffs == second.coeffs == ()
