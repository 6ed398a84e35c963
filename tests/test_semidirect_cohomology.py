"""H^(2,3) of semidirect products g ⋉ ad g, where delta* must keep every equation.

delta*_II(f, g)(x1, x2, x3, x4) alternates in (x1, x2, x3) and leaves x4
free, so it is not antisymmetric in (x3, x4).  An operator stored on the
C^3/C^4 pair representatives (x1 < x2, x3 < x4) drops equations, and on these
products it over-counts Z^(2,3): 21 instead of 19 for aff(1) ⋉ ad, 45
instead of 41 for heis ⋉ ad.  The twist oracle confirms every basis vector of
the pinned Z.
"""

import json

from lieyamaguti import (
    adjoint,
    check_axioms,
    from_lie,
    h23,
    semidirect,
    trivial_rep,
    twisted_semidirect,
)
from lieyamaguti.cli import run
from lieyamaguti.cohomology import CochainPair
from lieyamaguti.fixtures import render
from lieyamaguti.schemas import algebra_to_json


def _lie(d, brackets):
    """The LY algebra of the Lie algebra with [e_i, e_j] = v for (i, j): v, i < j (0-based)."""
    b = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), v in brackets.items():
        b[i][j] = list(v)
        b[j][i] = [-x for x in v]
    return from_lie(b)


def _with_adjoint(lie):
    return semidirect(lie, adjoint(lie))


AFF1_AD = _with_adjoint(_lie(2, {(0, 1): (0, 1)}))  # aff(1): [e1, e2] = e2; d = 4
HEIS_AD = _with_adjoint(_lie(3, {(0, 1): (0, 0, 1)}))  # Heisenberg: [e1, e2] = e3; d = 6


def _assert_every_cocycle_twists_validly(a, r, res):
    for v in res.z_basis.vectors:
        tau = CochainPair.from_flat(1, a.dim, r.e, list(v))
        assert check_axioms(twisted_semidirect(a, r, tau)).ok


def test_h23_of_aff1_semidirect_adjoint():
    r = adjoint(AFF1_AD)
    res = h23(AFF1_AD, r)
    assert (res.dim_z, res.dim_b, res.dim) == (19, 11, 8)
    _assert_every_cocycle_twists_validly(AFF1_AD, r, res)


def test_cli_cohomology_of_heis_semidirect_trivial(tmp_path, capsys):
    path = tmp_path / "heis-ad.json"
    path.write_text(render(algebra_to_json(HEIS_AD)), encoding="utf-8")
    assert run(["cohomology", str(path), "--p", "1", "--rep", "trivial"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["dimZ"], payload["dimB"], payload["dimH"]) == (41, 2, 39)
    r = trivial_rep(HEIS_AD, 1)
    _assert_every_cocycle_twists_validly(HEIS_AD, r, h23(HEIS_AD, r))

