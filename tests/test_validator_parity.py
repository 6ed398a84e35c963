"""Reports of ``check_axioms`` and ``check_representation`` pinned entrywise.

The digests were recorded with the dense ``Fraction`` evaluators that the
sparse integer kernels replaced.  Each covers every violation tuple and exact
defect, in scan order, of a seeded family of inputs:

- the corpus algebras themselves, and aff(1) + Q;
- symmetric perturbations, which keep LY1/LY2 and so take the reduced scan;
- asymmetric perturbations, which break LY1 or LY2 and take the full scan;
- seeded theta-block and D-block replacements on adjoint and trivial
  (e = 2) representations, with RLYB7 included;
- the semidirect products of those replaced representations, and products
  twisted by seeded (2,3)-cochain pairs (6-dim for the 3-dim algebras): the
  inputs of the twist/semidirect oracles.

Perturbation amounts have denominators up to 7, so the common denominator of
most inputs is not 1.  Every family is run with ``first_only`` False and True.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from lieyamaguti import (
    adjoint,
    check_axioms,
    check_representation,
    from_lie,
    from_tensors,
    semidirect,
    trivial_rep,
    twisted_semidirect,
)
from lieyamaguti.algebra import AXIOMS
from lieyamaguti.linalg import Matrix
from lieyamaguti.representation import RLYB_CONDITIONS, Representation

from random_cochains import random_cochain_pair


def _amount(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 7))


def _tensors(a):
    b = [[list(a.binary[i][j]) for j in range(a.dim)] for i in range(a.dim)]
    t = [[[list(a.ternary[i][j][k]) for k in range(a.dim)] for j in range(a.dim)] for i in range(a.dim)]
    return b, t


def _perturbed(a, rng, symmetric):
    """One or two entry changes; symmetric ones keep both antisymmetries."""
    b, t = _tensors(a)
    d = a.dim
    for _ in range(rng.randint(1, 2)):
        q, l = _amount(rng), rng.randrange(d)
        if symmetric:
            i, j = sorted(rng.sample(range(d), 2))
        else:
            i, j = rng.randrange(d), rng.randrange(d)
        if rng.random() < 0.4:
            b[i][j][l] += q
            if symmetric:
                b[j][i][l] -= q
        else:
            k = rng.randrange(d)
            t[i][j][k][l] += q
            if symmetric:
                t[j][i][k][l] -= q
    return from_tensors(b, t, a.name)


def _random_block(e, rng):
    return Matrix(e, e, [Fraction(0) if rng.random() < 0.4 else _amount(rng) for _ in range(e * e)])


def _theta_replaced(r, rng):
    d = len(r.rho)
    return r.replace_theta(rng.randrange(d), rng.randrange(d), _random_block(r.e, rng))


def _dmap_replaced(r, rng):
    """A D block replaced: besides RLYB1-6 this can break the cyclic RLYB7."""
    d = len(r.rho)
    i, j = rng.randrange(d), rng.randrange(d)
    dmap = [list(row) for row in r.dmap]
    dmap[i][j] = _random_block(r.e, rng)
    return Representation(r.e, r.rho, tuple(tuple(row) for row in dmap), r.theta)


def _defect_text(defect):
    if isinstance(defect, Matrix):
        return f"{defect.rows}x{defect.cols}:" + ",".join(map(str, defect.entries))
    return ",".join(map(str, defect))


def _digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        names = RLYB_CONDITIONS if hasattr(rep, "rlyb7_violations") else AXIOMS
        for name in names:
            for tup, defect in rep.violations[name]:
                h.update(f"{name}{tup}={_defect_text(defect)};".encode())
        for tup, defect in getattr(rep, "rlyb7_violations", ()):
            h.update(f"RLYB7{tup}={_defect_text(defect)};".encode())
        h.update(b"|")
    return h.hexdigest()


AXIOM_DIGESTS = {
    ('3dim', False): "27dfac2f1a7a8ad8b684d4bfae6187cc77478ac516a4d44409ee62ae5c751cc5",
    ('crossproduct-lie', False): "b5788bb745d4588610025d1c19a0ef1930b923219dae265358e65d211606cea0",
    ('meson2', False): "b360ba1bd2d128a3e68dd5276c9dafbf23df87aaa7c367cd32a735511e8a36da",
    ('meson3', False): "55f4a29c8af0363c5ca3dd0ac1afb72c940ad82044787b7c5905bdcc3feda8b8",
    ('aff1+line', False): "422d1dfeedfffde5de908ef651d1d4677f26ba8eccb2c74d752047f7a60cab73",
    ('3dim', True): "4b451e629f68616d93b1feba6d88d7fcc435ca593fb8c0ea7722c2c31cbd43b0",
    ('crossproduct-lie', True): "1556b6b0d6653be3c9b8691ac5bf1bd05bb676cacf7e7efc83b404d418509335",
    ('meson2', True): "40245a864f1554748f3786fc2d4860f7f78c6276622745f9d1ea381af810a662",
    ('meson3', True): "36cfefe60084418b85dc73b661dc7e95e0314d1cc97c61b9ea19f3ea18af2d9e",
    ('aff1+line', True): "45001ded4348e23f290d2b0a7ad2a413c783ab3e1010b1fcc265b59ca8cc8c96",
}

REP_DIGESTS = {
    ('3dim', 'adjoint', False): "4ea1c7a7237e1f822e3bfb2fb8122143e4d7632125800cdcde77a9b3ca6b770b",
    ('3dim', 'trivial2', False): "008e3ebbcd93209ea16027fd65715d6e50a282afdd577d05963a81f664dc4626",
    ('crossproduct-lie', 'adjoint', False): "1b79e672dc2532d5556ab057d24dcff64739e43b36572aef1e626fa6ceeef78e",
    ('crossproduct-lie', 'trivial2', False): "853cf287c31d3b4d91153e2f85dd43a4639f11ca4bf6c657da4fbec353cd01a0",
    ('meson2', 'adjoint', False): "ff387cc12cea2e025b50a5325c325e47f30be40e9abebc69e71f06e9ac00d4c8",
    ('meson2', 'trivial2', False): "8077512613407dcc307fcef039d4a73f51ed01a46f0ac8b0cc39aeaaa7674872",
    ('meson3', 'adjoint', False): "3d31a418d4500d80ef36be94a9512189d391170d48482490dbaee535e8ce5e66",
    ('meson3', 'trivial2', False): "9fe7838fd99a89528de36335462f92fd157f0f42e9fc373fabe7f2ba880c8563",
    ('aff1+line', 'adjoint', False): "0521b173db0c955a225faa369572ea9f4d7a87244f3e12da76b323d587df1d2c",
    ('aff1+line', 'trivial2', False): "df5f532e8a728e480a6ed5bd951e86d1119198dee479dfab6906b8b89db69073",
    ('3dim', 'adjoint', True): "4bc3f992dbe9a27fc123ba627020b5b4ad3a741a5d88997e6348aa8dcda6d3d3",
    ('3dim', 'trivial2', True): "9cc8185cff51c358c968b8b63e639126fee8daa06aeab37969adbf959aebd09a",
    ('crossproduct-lie', 'adjoint', True): "c9e814ca6759b2ab91ac4f10b5afb65f0b7d30018e9735659d598f88508108c9",
    ('crossproduct-lie', 'trivial2', True): "c021b5582312e62920dc71dae3e5c75f4e9035b61794b7e14e062e88cd9ebb83",
    ('meson2', 'adjoint', True): "ee6ee7d19b75ba0f1b040d8e55df5ae9b1975ef03aaeee88dd8eee9fa37f36bf",
    ('meson2', 'trivial2', True): "9a6c3d9ada736d9d6f8a123c71a215ddf3f4cf7f0904d22f4baedfeffb40f09c",
    ('meson3', 'adjoint', True): "f115db6d850aae57766f18bd8ce83be8ef4ef41afd70a44ba98ecca0f2c8ee1d",
    ('meson3', 'trivial2', True): "7d5711947e1cbea6ded93a546fdf459515b0c9f62e6f1d9bfb2909bbd77f2ba4",
    ('aff1+line', 'adjoint', True): "83e69c18324a7b497d12d25ffd7825cd3efea63e67a63a990acdd9fad36e4db9",
    ('aff1+line', 'trivial2', True): "d01581dc5978af640a749a2b6ba5013734a3a7308b8b3f8b5455ad58c9033b88",
}

PRODUCT_DIGESTS = {
    ('3dim', 'adjoint', False): "81a92f89d97c396b9ff318cfc72adfc83bd4eade88613af6cca860c98bcf565b",
    ('3dim', 'trivial2', False): "d9bae0c9f094c0576eb7059744bad23a96183df14f3c0c8d6d2fd9a81a8afc9e",
    ('3dim', 'twisted', False): "92fcb8b4d2fc9478a358317ec875aa195e44a8370550179d6b728d19742f9c5c",
    ('meson2', 'adjoint', False): "065e7e6fde0de3115087f2590532098cb5419188fa17fb56ee8ec01f1f79d19b",
    ('meson2', 'trivial2', False): "ab4e3bce0da3b71df80df9e698751e97e1d20259c0f72c83677e2f31fe2edab2",
    ('meson2', 'twisted', False): "823887a2f3941dff543255977512ed4b1ddd0b3daef8cac8192b8d26147868c5",
    ('3dim', 'adjoint', True): "18e9154248ecd8be99bd822bd86570e7f3f03df1fc020737f9a9656ed9118c72",
    ('3dim', 'trivial2', True): "5130ae034399d31094f0d0cc914193d5e4566dc25f89d1a329d2cf5daa629af7",
    ('3dim', 'twisted', True): "5b448b926e388d8d4fba7a59a9d220cbfd96d4ac94b90d723f872b32448bfda2",
    ('meson2', 'adjoint', True): "2dbdccfbcc1f507c68ff3ff39e526a9536e74cc3ca23a83b63cee03e2844b9ef",
    ('meson2', 'trivial2', True): "ea356b340e35c6093bd12d40508fdae2fcc4cc1e413f4a008dacfefdf5700735",
    ('meson2', 'twisted', True): "0e29dedd8c12bb31dede0872050a075e1f7fe4757f969fd5bdc9ec64d76276a3",
}


def _algebras(corpus):
    """The corpus, then aff(1) + Q ([e1, e2] = e1): its bracket lands off the
    diagonal of RLYB7's (bracket, argument) pairs, unlike every corpus algebra."""
    aff = from_lie([[[0, 0, 0], [1, 0, 0], [0, 0, 0]], [[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3], "aff1+line")
    return sorted(corpus.items()) + [("aff1+line", (aff, adjoint(aff)))]


def _algebra_family(a, seed):
    rng = random.Random(seed)
    fam = [a]
    fam += [_perturbed(a, rng, symmetric=True) for _ in range(4)]
    fam += [_perturbed(a, rng, symmetric=False) for _ in range(4)]
    return fam


def _rep_family(a, r, seed):
    rng = random.Random(seed)
    return [r] + [_theta_replaced(r, rng) for _ in range(4)] + [_dmap_replaced(r, rng) for _ in range(2)]


@pytest.mark.parametrize("first_only", [False, True])
def test_axiom_reports_pinned(corpus, first_only):
    for seed, (name, (a, _)) in enumerate(_algebras(corpus)):
        reports = [check_axioms(x, first_only) for x in _algebra_family(a, 100 + seed)]
        assert _digest(reports) == AXIOM_DIGESTS[(name, first_only)], name


@pytest.mark.parametrize("first_only", [False, True])
def test_representation_reports_pinned(corpus, first_only):
    for seed, (name, (a, adj)) in enumerate(_algebras(corpus)):
        for kind, r in (("adjoint", adj), ("trivial2", trivial_rep(a, 2))):
            reports = [check_representation(a, x, first_only) for x in _rep_family(a, r, 200 + seed)]
            assert _digest(reports) == REP_DIGESTS[(name, kind, first_only)], (name, kind)


@pytest.mark.parametrize("first_only", [False, True])
def test_semidirect_product_reports_pinned(corpus, first_only):
    for name in ("3dim", "meson2"):
        a, adj = corpus[name]
        for kind, r in (("adjoint", adj), ("trivial2", trivial_rep(a, 2))):
            reps = _rep_family(a, r, 300)
            reports = [check_axioms(semidirect(a, x), first_only) for x in reps]
            assert _digest(reports) == PRODUCT_DIGESTS[(name, kind, first_only)], (name, kind)
        rng = random.Random(400)
        taus = [random_cochain_pair(1, a.dim, adj.e, rng) for _ in range(3)]
        reports = [check_axioms(twisted_semidirect(a, adj, tau), first_only) for tau in taus]
        assert _digest(reports) == PRODUCT_DIGESTS[(name, "twisted", first_only)], name
