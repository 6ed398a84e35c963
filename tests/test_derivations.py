"""``derivations`` and ``is_derivation`` read off delta_zero against the identities they replaced.

With adjoint coefficients the cocycles of delta_zero are exactly the
derivations of the algebra, so ``derivations`` takes the kernel of that one
operator and ``is_derivation`` asks whether it kills a matrix.
``derivation_system`` is the joint linear system of the binary and ternary
derivation identities that ``derivations`` solved before, and
``loop_is_derivation`` the basis-tuple loop ``is_derivation`` ran before;
both are kept here unchanged as oracles.  The reduced echelon basis of a
subspace is unique, so the two bases must be equal vector for vector.  The
``derivations`` CLI reports on the bundled algebra fixtures are pinned by
SHA-256.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from test_denominators import SCALES, rebased

from lieyamaguti import adjoint, derivations, example_3dim, from_lie, is_derivation, meson, semidirect, zero_algebra
from lieyamaguti.algebra import structure_lcm
from lieyamaguti.cli import run
from lieyamaguti.fixtures import cross_product_lie, fixture, render
from lieyamaguti.linalg import Matrix, SubspaceBasis, vec_add


def derivation_system(a) -> SubspaceBasis:
    """Kernel of the derivation identities over the matrix entries; x[r*d + s] is the (r, s) entry."""
    d = a.dim
    rows: list[list[Fraction]] = []
    for i in range(d):
        for j in range(d):
            cij = a.binary[i][j]
            for k in range(d):
                row = [Fraction(0)] * (d * d)
                for s in range(d):
                    if cij[s]:
                        row[k * d + s] += cij[s]
                for r in range(d):
                    if a.binary[r][j][k]:
                        row[r * d + i] -= a.binary[r][j][k]
                    if a.binary[i][r][k]:
                        row[r * d + j] -= a.binary[i][r][k]
                if any(row):
                    rows.append(row)
    for i, j, l in itertools.product(range(d), repeat=3):
        tijl = a.ternary[i][j][l]
        for k in range(d):
            row = [Fraction(0)] * (d * d)
            for s in range(d):
                if tijl[s]:
                    row[k * d + s] += tijl[s]
            for r in range(d):
                if a.ternary[r][j][l][k]:
                    row[r * d + i] -= a.ternary[r][j][l][k]
                if a.ternary[i][r][l][k]:
                    row[r * d + j] -= a.ternary[i][r][l][k]
                if a.ternary[i][j][r][k]:
                    row[r * d + l] -= a.ternary[i][j][r][k]
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[Fraction(0)] * (d * d)]
    return Matrix.from_rows(rows).kernel_basis()


def loop_is_derivation(m: Matrix, a) -> bool:
    """The basis-tuple loop ``is_derivation`` ran before it read delta_zero, kept unchanged."""
    cols = [m.col(j) for j in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = m.matvec(a.binary[i][j])
            rhs = vec_add(a.bracket(cols[i], a.basis_vector(j)), a.bracket(a.basis_vector(i), cols[j]))
            if lhs != rhs:
                return False
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        lhs = m.matvec(a.ternary[i][j][k])
        rhs = a.triple(cols[i], a.basis_vector(j), a.basis_vector(k))
        rhs = vec_add(rhs, a.triple(a.basis_vector(i), cols[j], a.basis_vector(k)))
        rhs = vec_add(rhs, a.triple(a.basis_vector(i), a.basis_vector(j), cols[k]))
        if lhs != rhs:
            return False
    return True


def _lie(d, brackets, name):
    """from_lie of [e_i, e_j] = v for (i, j): v, i < j (0-based)."""
    b = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), v in brackets.items():
        b[i][j] = list(v)
        b[j][i] = [-x for x in v]
    return from_lie(b, name)


AFF1 = _lie(2, {(0, 1): (0, 1)}, "aff1")
HEIS = _lie(3, {(0, 1): (0, 0, 1)}, "heis")
SL2 = _lie(3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}, "sl2")  # (h, e, f)

ALGEBRAS = {
    "3dim": example_3dim(),
    "meson2": meson(2),
    "meson3": meson(3),
    "meson4": meson(4),
    "meson5": meson(5),
    "crossproduct-lie": cross_product_lie(),
    "abelian2": zero_algebra(2),
    "from_lie-aff1": AFF1,
    "from_lie-heis": HEIS,
    "from_lie-sl2": SL2,
    "from_lie-crossproduct": from_lie(cross_product_lie().binary, "so3"),
    "aff1-semidirect-ad": semidirect(AFF1, adjoint(AFF1)),
}
for _name in ("3dim", "meson2", "meson3", "crossproduct-lie", "from_lie-heis", "from_lie-sl2"):
    ALGEBRAS[f"{_name}-rebased"] = rebased(ALGEBRAS[_name], SCALES)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_derivations_equal_the_derivation_system(name):
    a = ALGEBRAS[name]
    basis, expected = derivations(a), derivation_system(a)
    assert basis.vectors == expected.vectors
    assert basis.dim > 0


def test_derivations_do_no_matrix_products(monkeypatch):
    """The kernel is the answer: closure under commutator is a theorem, not re-proved per call."""
    expected = {name: derivation_system(a).vectors for name, a in ALGEBRAS.items()}

    def refused(self, other):
        raise AssertionError("derivations multiplied two matrices")

    monkeypatch.setattr(Matrix, "__matmul__", refused)
    for name, a in ALGEBRAS.items():
        assert derivations(a).vectors == expected[name], name


def _candidates(a, rng):
    """Seeded d x d matrices: three random ones, and each derivation basis vector with one entry moved."""
    d = a.dim

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    out = [Matrix(d, d, [entry() for _ in range(d * d)]) for _ in range(3)]
    for v in derivations(a).vectors:
        moved = list(v)
        moved[rng.randrange(d * d)] += rng.choice((Fraction(1), Fraction(-1, 2), Fraction(2, 3)))
        out.append(Matrix(d, d, moved))
    return out


def test_is_derivation_agrees_with_the_basis_loop():
    """True on every derivation basis vector; on random and perturbed matrices, whatever the loop says.

    The mesons have no binary bracket, so a matrix the loop refuses there
    fails a ternary identity; from_lie-heis refuses some matrices on a
    binary one.  Both loop exits are taken.
    """
    rng = random.Random(20261019)
    refused = set()
    for name, a in sorted(ALGEBRAS.items()):
        for v in derivations(a).vectors:
            m = Matrix(a.dim, a.dim, v)
            assert is_derivation(m, a) and loop_is_derivation(m, a), name
        for m in _candidates(a, rng):
            got = is_derivation(m, a)
            assert got == loop_is_derivation(m, a), name
            if not got:
                refused.add(name)
    assert "abelian2" not in refused
    assert {"meson3", "from_lie-heis", "3dim-rebased", "from_lie-sl2-rebased"} <= refused


def test_rebased_algebras_have_denominators():
    for name, a in ALGEBRAS.items():
        if name.endswith("-rebased"):
            assert structure_lcm(a) > 1, name


# SHA-256 of `lieyamaguti derivations <fixture>`, recorded before derivations
# moved onto delta_zero
DERIVATIONS_REPORT_DIGESTS = {
    "3dim": "779124bcad9eb063fa9fef169b9ed77fa26b0252705ec6799456774f432409ae",
    "abelian2": "e91b6bf13af57dcca809563e6ea062437058c991e3211b29d28f7a9b029ce46d",
    "crossproduct-lie": "6ca435c9b42848c533bbf05800b98a18414b6ac3c7fa45dd980694374481086a",
    "meson2": "c97867e76418f987ab77c33028dd861e3417aed4188ad2398219eed0c22bbe20",
    "meson3": "6ca435c9b42848c533bbf05800b98a18414b6ac3c7fa45dd980694374481086a",
}


@pytest.mark.parametrize("name", sorted(DERIVATIONS_REPORT_DIGESTS))
def test_derivations_report_is_pinned(name, tmp_path):
    src = tmp_path / f"{name}.json"
    src.write_text(render(fixture(name)), encoding="utf-8")
    out = tmp_path / "report.json"
    assert run(["derivations", str(src), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DERIVATIONS_REPORT_DIGESTS[name]
