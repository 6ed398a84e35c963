"""Reference coboundaries: one term generator per operator, assembled by ``cohomology._assemble``.

These generators are the formulas of the ``cohomology`` module docstring
written out per target tuple: for each representative target tuple xs they
yield every term (coeff, mat, tup) of the coboundary at xs, with mat None for
the identity, and ``_assemble`` locates each argument tuple in its shape.
The library assembles the same operators by contraction over the nonzero
slots; ``test_coboundary_oracle`` compares the two entrywise.
"""

from lieyamaguti.cohomology import _STAR_TARGET, _assemble, _space
from lieyamaguti.representation import _integer_data


def _weighted(coeff, tup: tuple, slot: int, weights):
    """Terms of h(tup) with the argument in ``slot`` replaced by the sparse vector ``weights``."""
    args = list(tup)
    for l, w in weights:
        args[slot] = l
        yield coeff * w, None, tuple(args)


def delta_terms(data: tuple, xs: tuple):
    """delta_I (f, g) on 2p+2 arguments and delta_II (f, g) on 2p+3 arguments, times den**2.

    ``data`` is ``representation._integer_data`` of the pair: rho and the
    binary bracket carry one factor den and get a second here, D, theta and
    the ternary bracket carry den**2.  At p = 0 every term reads the
    one-argument component, so this is delta_zero on C^1.
    """
    den, binary, ternary, rho, dmap, theta = data
    p = (len(xs) - 2) // 2
    sgn_p = (-1) ** p
    head = xs[: 2 * p]
    if len(xs) == 2 * p + 2:
        x_a, x_b = xs[2 * p :]
        yield sgn_p * den, rho[x_a], head + (x_b,)
        yield -sgn_p * den, rho[x_b], head + (x_a,)
        if weights := binary[x_a][x_b]:
            yield from _weighted(-sgn_p * den, head + (0,), 2 * p, weights)
        ks = range(1, p + 1)
    else:
        x_a, x_b, x_c = xs[2 * p :]
        yield sgn_p, theta[x_b][x_c], head + (x_a,)
        yield -sgn_p, theta[x_a][x_c], head + (x_b,)
        ks = range(1, p + 2)
    for k in ks:
        i, j = xs[2 * k - 2], xs[2 * k - 1]
        reduced = xs[: 2 * k - 2] + xs[2 * k :]
        yield (-1) ** (k + 1), dmap[i][j], reduced
        for pos in range(2 * k, len(xs)):
            if weights := ternary[i][j][xs[pos]]:
                yield from _weighted((-1) ** k, reduced, pos - 2, weights)


def delta_star_terms(data: tuple, xs: tuple):
    """delta* (f, g) on (x1, x2, x3) and (x1, x2, x3, x4) times den**2: cyclic sums over x1, x2, x3."""
    den, binary, _, rho, _, theta = data
    x0, x1, x2 = xs[:3]
    tail = xs[3:]
    for u, v, w in ((x0, x1, x2), (x1, x2, x0), (x2, x0, x1)):
        if weights := binary[u][v]:
            yield from _weighted(den, (0, w) + tail, 0, weights)
        if tail:
            yield 1, theta[u][tail[0]], (v, w)
        else:
            yield -den, rho[u], (v, w)
            yield den * den, None, (u, v, w)


def reference_operator(a, r, key, terms=None):
    """The operator ``key`` (a level p, or "star") of (a, r), assembled from its term generator.

    ``terms`` replaces the generator, for instance with a recording wrapper.
    """
    data = _integer_data(a, r)
    if key == "star":
        src, dst, terms = _space(1), _STAR_TARGET, terms or delta_star_terms
    else:
        src, dst, terms = _space(key), _space(key + 1), terms or delta_terms
    return _assemble(a.dim, r.e, src, dst, terms, data, data[0] ** 2)
