"""Each coboundary is assembled once per (algebra instance, module object).

An algebra holds its adjoint module and, per module, the operators assembled
for it.  These tests count operator builds (a coboundary, or a transport map
through ``_assemble``), check that a held operator
always equals a fresh assembly (algebras and modules that die and are
replaced, modules derived from others, one module shared by two algebras),
that the held values go with their algebra, and that a held operator cannot
be changed by any caller.
"""

import copy
import gc
import math
import pickle
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest

import lieyamaguti.cohomology
from lieyamaguti import (
    adjoint,
    delta,
    delta_star,
    delta_zero,
    derivations,
    example_3dim,
    from_tensors,
    h1,
    h23,
    h_upper,
    meson,
    trivial_rep,
    zero_algebra,
)
from lieyamaguti.algebra import LYAlgebra
from lieyamaguti.cli import run
from lieyamaguti.cohomology import (
    _check_work,
    _delta_assembled,
    _delta_op,
    _delta_star_assembled,
    _delta_star_op,
    _Operator,
    transport_defects,
)
from lieyamaguti.errors import SizeCapExceeded
from lieyamaguti.fixtures import fixture, render
from lieyamaguti.linalg import Matrix, sparse_kernel
from lieyamaguti.representation import _integer_data

from random_cochains import random_c1, random_cochain_pair


@pytest.fixture()
def assembled(monkeypatch):
    """The operator of every build, in call order: a level p for delta_p, "star", or "transport"."""
    calls = []
    labels = {
        "_delta_assembled": lambda d, e, data, p: p,
        "_delta_star_assembled": lambda *args: "star",
        "_assemble": lambda *args: "transport",
    }
    for name, label in labels.items():

        def counting(*args, build=getattr(lieyamaguti.cohomology, name), label=label):
            calls.append(label(*args))
            return build(*args)

        monkeypatch.setattr(lieyamaguti.cohomology, name, counting)
    return calls


KEYS = (0, 1, "star")


def _fresh(a, r, key):
    """The rows of the operator ``key`` (a level p, or "star"), assembled without the held copy."""
    data = _integer_data(a, r)
    if key == "star":
        return _delta_star_assembled(a.dim, r.e, data).lines
    return _delta_assembled(a.dim, r.e, data, key).lines


def _entries(a, r, key):
    """The rows of the held operator ``key``."""
    op = _delta_star_op(a, r) if key == "star" else _delta_op(a, r, key)
    return op.lines


def test_one_assembly_per_module_and_operator(assembled, rng):
    a = example_3dim()
    r = adjoint(a)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(2):
        delta_zero(a, r, random_c1(3, 3, rng))
        delta(a, r, random_cochain_pair(1, 3, 3, rng))
        delta_star(a, r, random_cochain_pair(1, 3, 3, rng))
        h23(a, r)
        transport_defects(a, r, 1, [])
    # delta_0, delta_1 and delta*, each once
    assert assembled == [0, 1, "star"]
    assembled.clear()
    # transport assembles only its maps: one per space around level 1, per value
    assert transport_defects(a, r, 1, [(identity, identity)]) == [0]
    assert assembled == ["transport"] * 4
    assembled.clear()
    # derivations read h1's operator, on the one adjoint module the algebra holds
    assert adjoint(a) is r
    assert derivations(a).dim == h1(a, r)[0] == 4
    assert assembled == []


@pytest.mark.parametrize("which, argv, calls", [
    ("h1", [], 13),
    ("der", [], 13),
    ("h23", [], 27),
    ("upper", ["--p", "2"], 20),
])
def test_bundle_job_shares_one_module(assembled, tmp_path, capsys, which, argv, calls):
    """The group and the transport check assemble each coboundary once between them.

    ``circle-bundle`` has 6 transition values.  h1 and der: delta_0 plus a
    transport map on C^1 and C^(2,3) per value (1 + 2 * 6); h23: delta_0,
    delta_1 and delta* plus maps on four spaces (3 + 4 * 6); upper --p 2:
    delta_1 and delta_2 plus maps on three spaces (2 + 3 * 6).
    """
    path = tmp_path / "circle.json"
    path.write_text(render(fixture("circle-bundle")), encoding="utf-8")
    assert run(["bundle-cohomology", str(path), "--which", which, *argv]) == 0
    capsys.readouterr()
    assert len(assembled) == calls


def _signed_permutation(a, rng):
    """``a`` in the basis f_i = s_i e_pi(i), for a random permutation pi and signs s_i = +-1."""
    d = a.dim
    perm = rng.sample(range(d), d)
    sign = [rng.choice((1, -1)) for _ in range(d)]

    def rebased(v, *idx):
        """The coordinates of [f_i, f_j] or {f_i, f_j, f_k}, given v = [e_pi(i), e_pi(j)] or {...}."""
        scale = math.prod(sign[i] for i in idx)
        return [scale * sign[k] * v[perm[k]] for k in range(d)]

    rng_d = range(d)
    b = [[rebased(a.binary[perm[i]][perm[j]], i, j) for j in rng_d] for i in rng_d]
    t = [
        [[rebased(a.ternary[perm[i]][perm[j]][perm[k]], i, j, k) for k in rng_d] for j in rng_d]
        for i in rng_d
    ]
    return from_tensors(b, t)


def test_dropped_algebras_never_serve_stale_operators():
    """Hundreds of algebras built and dropped in turn, each with its own held operators.

    Eight rebased copies of 3dim and meson3 (alternating) share no operator.
    An object's id is reused as soon as it dies, and the loop frees each
    algebra, with its adjoint module, before building the next, so a cache
    keyed by bare ids, or by anything that outlives the algebra, serves one
    copy's operators to another here.  The trivial module lives throughout.
    """
    rng = random.Random(16)
    models = (example_3dim(), meson(3))
    copies = [_signed_permutation(models[n % 2], rng) for n in range(8)]
    trivial = trivial_rep(copies[0], 2)

    def operators(a, entries):
        return {(m, key): entries(a, r, key) for m, r in enumerate((adjoint(a), trivial)) for key in KEYS}

    fresh = [operators(c, _fresh) for c in copies]
    for n in range(240):
        c = copies[n % 8]
        a = LYAlgebra(c.dim, c._slots, c.name)
        assert operators(a, _entries) == fresh[n % 8], n
        del a


def test_derived_modules_get_their_own_operators():
    """Modules from ``replace_theta``, each dropped before the next, never share operators."""
    a = example_3dim()
    base = adjoint(a)
    rng = random.Random(7)
    pair = random_cochain_pair(1, 3, 3, rng)
    unchanged = delta(a, base, pair)
    blocks = [base.theta[0][2]] + [Matrix(3, 3, [rng.randint(-3, 3) for _ in range(9)]) for _ in range(5)]
    fresh = [_fresh(a, base.replace_theta(0, 2, block), 1) for block in blocks]
    for n in range(120):
        r = base.replace_theta(0, 2, blocks[n % 6])
        out = delta(a, r, pair)
        assert _entries(a, r, 1) == fresh[n % 6], n
        # theta enters delta_II only
        assert out.f == unchanged.f
        assert (out.g == unchanged.g) == (n % 6 == 0), n
        del r, out
    assert delta(a, base, pair) == unchanged


def test_one_module_with_two_algebras():
    """A module of the right shape for two algebras gets operators per algebra."""
    first, second = example_3dim(), meson(3)
    r = trivial_rep(first, 2)
    ops = {a.name: {key: _entries(a, r, key) for key in (0, 1, 2, "star")} for a in (first, second)}
    assert ops["3dim"] != ops["meson3"]
    for a in (first, second):
        for key in (0, 1, 2, "star"):
            assert ops[a.name][key] == _fresh(a, r, key), (a.name, key)


def test_held_values_go_with_their_algebra():
    """Only the algebra refers to its module and operators, so dropping it frees them at once."""
    a = meson(3)
    r = trivial_rep(a, 1)
    h23(a, r)
    h_upper(a, adjoint(a), 2)
    refs = [weakref.ref(x) for x in (a, r, adjoint(a))]
    gc.disable()
    try:
        del a, r
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_copies_carry_the_constants_only():
    """Pickling or copying an algebra leaves its held module and operators behind."""
    a = example_3dim()
    h23(a, adjoint(a))
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a and "_operators" not in vars(b) and "_adjoint" not in vars(b)
        assert h23(b, adjoint(b)).dim == 9


def test_held_operators_are_read_only():
    a = example_3dim()
    r = adjoint(a)
    d0, d1, star = _delta_op(a, r, 0), _delta_op(a, r, 1), _delta_star_op(a, r)
    for op in (d0, d1, star, d1 @ d0, _Operator(d1.cols, d1.lines + star.lines)):
        assert isinstance(op, _Operator)
        with pytest.raises(TypeError):
            op.lines[0] = ((0, Fraction(1)),)
        with pytest.raises(TypeError):
            op.lines[0][0] = (0, Fraction(1))
        with pytest.raises((TypeError, AttributeError)):
            op.lines.clear()
        with pytest.raises(AttributeError):
            op.lines = ()


def test_operator_methods_leave_entries_unchanged():
    a = example_3dim()
    r = adjoint(a)
    op, star, d0 = _delta_op(a, r, 1), _delta_star_op(a, r), _delta_op(a, r, 0)

    def snapshot():
        return [[list(line) for line in o.lines] for o in (op, star, d0)]

    before = snapshot()
    op.apply([Fraction(1)] * op.cols)
    sparse_kernel(op.cols, op.lines + star.lines)
    op @ d0
    star @ d0
    sparse_kernel(op.cols, op.lines)
    op.image()
    op.dense()
    h23(a, r)
    assert snapshot() == before
    assert _delta_op(a, r, 1) is op


# ---------------------------------------------------------------------------
# the work bound: levels above p = 2 on a small space


def test_work_bound_follows_the_cap():
    """meson(2) with adjoint coefficients: C^(2p+3) has 4 coordinates at every p."""
    _check_work(4, 79, 50_000)  # 4 * 161**3 <= 50000 * 7**3
    with pytest.raises(SizeCapExceeded, match=r"over cap x 7\*\*3 = 17150000"):
        _check_work(4, 80, 50_000)
    # up to p = 2 the coordinate cap alone decides: meson(5) adjoint at p = 2
    _check_work(25_000, 2, 50_000)
    _check_work(50_000, 2, 50_000)


def test_huge_p_on_a_small_algebra_exits_3_before_assembly(monkeypatch, tmp_path, capsys):
    path = tmp_path / "meson2.json"
    path.write_text(render(fixture("meson2")), encoding="utf-8")

    def no_shape(*args):
        raise AssertionError("built a cochain shape for a level over the work bound")

    monkeypatch.setattr(lieyamaguti.cohomology, "_shape", no_shape)
    for p in ("250", "10" * 2000):
        assert run(["cohomology", str(path), "--p", p]) == 3
        report = capsys.readouterr().out
        assert '"status": "error"' in report and "over cap x 7**3 = 17150000" in report


def test_empty_levels_are_bounded_too(monkeypatch):
    """On d = 1 every level above C^1 is 0-dimensional, but still p-sized to build."""
    a = zero_algebra(1)

    def no_shape(*args):
        raise AssertionError("built a cochain shape for a level over the work bound")

    monkeypatch.setattr(lieyamaguti.cohomology, "_shape", no_shape)
    with pytest.raises(SizeCapExceeded):
        h_upper(a, trivial_rep(a, 1), 10**6)


def test_threads_racing_on_one_algebra_get_equal_operators():
    """Threads that race to assemble one held operator each get a value equal to a fresh one."""
    a = example_3dim()
    r = adjoint(a)
    expected = {key: _fresh(a, r, key) for key in KEYS}
    results, errors = [], []

    def worker():
        try:
            results.append({key: _entries(a, r, key) for key in KEYS})
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert results == [expected] * 6
    assert {key: _entries(a, r, key) for key in KEYS} == expected
