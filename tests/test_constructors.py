"""Every constructor stores exact scalars; product tensors are pinned slot by slot.

``algebra_to_json`` writes only the i < j slots and the validators report
only violated ones, so neither sees a wrong mirror or a wrong D/theta block
of a product over an invalid representation.  The digests below cover every
slot of the full binary and ternary tensors; they were recorded with the
dense tensor code that ``_from_entries`` replaced.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from lieyamaguti import (
    adjoint,
    example_3dim,
    from_leibniz,
    from_lie,
    from_lie_triple,
    from_reductive_pair,
    from_sparse,
    from_tensors,
    meson,
    semidirect,
    trivial_rep,
    twisted_semidirect,
    zero_algebra,
)
from lieyamaguti.fixtures import _CROSS_BINARY, FIXTURES, cross_product_lie, fixture
from lieyamaguti.linalg import Matrix
from lieyamaguti.representation import Representation
from lieyamaguti.schemas import algebra_from_json

from random_cochains import random_cochain_pair


def _coordinates(a):
    for row in a.binary:
        for v in row:
            assert len(v) == a.dim
            yield from v
    for plane in a.ternary:
        for row in plane:
            for v in row:
                assert len(v) == a.dim
                yield from v


def _constructed():
    nilpotent = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    nilpotent[0][0] = [0, 1]
    a, r = example_3dim(), adjoint(example_3dim())
    tau = random_cochain_pair(1, 3, 3, random.Random(5))
    return {
        "zero_algebra": zero_algebra(3),
        "from_tensors": from_tensors([[[0, 1], [2, 0]], [[0, 0], [0, 0]]], meson(2).ternary),
        "from_sparse": from_sparse(3, {(0, 1): (0, 0, 1)}, {(1, 2, 0): (Fraction(1, 2), 0, 0)}),
        "example_3dim": a,
        "from_lie": from_lie(_CROSS_BINARY),
        "from_leibniz": from_leibniz(_CROSS_BINARY),
        "from_leibniz-nilpotent": from_leibniz(nilpotent),
        "from_lie_triple": from_lie_triple([[[[0] * 2] * 2] * 2] * 2),
        "meson": meson(4),
        "from_reductive_pair": from_reductive_pair(cross_product_lie(), [0], [1, 2]),
        **{f"json:{name}": algebra_from_json(fixture(name)) for name in FIXTURES if "bundle" not in name},
        "semidirect": semidirect(a, r),
        "semidirect-trivial": semidirect(cross_product_lie(), trivial_rep(cross_product_lie(), 2)),
        "twisted_semidirect": twisted_semidirect(a, r, tau),
    }


@pytest.mark.parametrize("name", sorted(_constructed()))
def test_constructors_store_fractions(name):
    a = _constructed()[name]
    stray = [type(x).__name__ for x in _coordinates(a) if type(x) is not Fraction]
    assert not stray, f"{name}: {len(stray)} coordinates are not Fractions ({sorted(set(stray))})"


def _digest(a):
    h = hashlib.sha256(f"{a.dim}|".encode())
    for row in a.binary:
        for v in row:
            h.update((",".join(map(str, v)) + ";").encode())
    h.update(b"|")
    for plane in a.ternary:
        for row in plane:
            for v in row:
                h.update((",".join(map(str, v)) + ";").encode())
    return h.hexdigest()


def _block(e, seed):
    rng = random.Random(seed)
    return Matrix(e, e, [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(e * e)])


def _asymmetric_d(r, i, j, seed):
    """D(e_i, e_j) replaced, so D(e_i, e_j) != -D(e_j, e_i) and LY2 fails on the product."""
    dmap = [list(row) for row in r.dmap]
    dmap[i][j] = _block(r.e, seed)
    return Representation(r.e, r.rho, tuple(tuple(row) for row in dmap), r.theta)


def _perturbed_theta(r, i, j, seed):
    return r.replace_theta(i, j, r.theta[i][j] + _block(r.e, seed))


def _invalid_reps():
    a3, cross = example_3dim(), cross_product_lie()
    return {
        "3dim-asymmetric-D": (a3, _asymmetric_d(adjoint(a3), 0, 1, 1), 11),
        "3dim-perturbed-theta": (a3, _perturbed_theta(adjoint(a3), 1, 0, 2), 12),
        "cross-trivial-both": (
            cross,
            _perturbed_theta(_asymmetric_d(trivial_rep(cross, 2), 0, 2, 3), 2, 1, 4),
            13,
        ),
    }


PRODUCT_DIGESTS = {
    ("semidirect", "3dim-asymmetric-D"):
        "9508247f10936ddf27ff637828a298d2e40d07503be1e6aae6b23f901c9747fb",
    ("semidirect", "3dim-perturbed-theta"):
        "a51a6500b503680a3675244a7668be552618dab77733573deb48adf0ae8ccfa2",
    ("semidirect", "cross-trivial-both"):
        "aed8a768ed1c04ea9bed9a0484e67a0e7f72de74b31cdc0dce88f25c3ae41dec",
    ("twisted_semidirect", "3dim-asymmetric-D"):
        "ef5be053ebc4bb77d2400d933ad6ebd8a8a853b8a14f9f2176d29b5033f9f9ce",
    ("twisted_semidirect", "3dim-perturbed-theta"):
        "a26cef2ee0ac43b17dac53d39041b4908b75d0f83aace6588d0199836a14a28c",
    ("twisted_semidirect", "cross-trivial-both"):
        "9c62745b90dcc2291c4d051533d1b47cc73c7eb70fe6a95c659820a463168593",
}


@pytest.mark.parametrize("product, case", sorted(PRODUCT_DIGESTS))
def test_product_tensors_over_invalid_representations(product, case):
    a, r, seed = _invalid_reps()[case]
    if product == "semidirect":
        algebra = semidirect(a, r)
    else:
        algebra = twisted_semidirect(a, r, random_cochain_pair(1, a.dim, r.e, random.Random(seed)))
    assert _digest(algebra) == PRODUCT_DIGESTS[product, case]
