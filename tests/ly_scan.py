"""Reference LY1..LY6 evaluator: the tuple scan that ``algebra._ly_defects`` replaced.

It walks every basis tuple of each identity (representative tuples only for
LY3..LY6 when LY1 and LY2 hold) in the scan order documented on
``check_axioms`` and evaluates the identity from its index formula on the
tables of ``integer_tables``.  The library contracts the same defects from
the nonzero slots; ``test_ly_contraction`` compares the two streams.
"""

import itertools


def ly_scan(d: int, B: list, T: list):
    """Yield (axiom, basis tuple, integer defect) for each violated identity, each defect a list of d ints."""
    rng = range(d)
    reduced = True
    for i, j in itertools.product(rng, rng):
        acc = [0] * d
        for n, x in B[i][j] + B[j][i]:
            acc[n] += x
        if any(acc):
            reduced = False
            yield "LY1", (i, j), acc
    for i, j, k in itertools.product(rng, rng, rng):
        acc = [0] * d
        for n, x in T[i][j][k] + T[j][i][k]:
            acc[n] += x
        if any(acc):
            reduced = False
            yield "LY2", (i, j, k), acc

    triples = list(itertools.combinations(rng, 3) if reduced else itertools.product(rng, rng, rng))
    for i, j, k in triples:
        # [[x, y], z] + {x, y, z}, cyclically
        acc = [0] * d
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in B[x][y]:
                for n, v in B[m][z]:
                    acc[n] += c * v
            for n, v in T[x][y][z]:
                acc[n] += v
        if any(acc):
            yield "LY3", (i, j, k), acc
    for (i, j, k), u in itertools.product(triples, rng):
        # {[x, y], z, u}, cyclically in (x, y, z)
        acc = [0] * d
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in B[x][y]:
                for n, v in T[m][z][u]:
                    acc[n] += c * v
        if any(acc):
            yield "LY4", (i, j, k, u), acc
    pairs = list(itertools.combinations(rng, 2) if reduced else itertools.product(rng, rng))
    for (i, j), (u, v) in itertools.product(pairs, pairs):
        # {i, j, [u, v]} - [{i, j, u}, v] - [u, {i, j, v}]
        tij = T[i][j]
        acc = [0] * d
        for m, c in B[u][v]:
            for n, x in tij[m]:
                acc[n] += c * x
        for m, c in tij[u]:
            for n, x in B[m][v]:
                acc[n] -= c * x
        for m, c in tij[v]:
            for n, x in B[u][m]:
                acc[n] -= c * x
        if any(acc):
            yield "LY5", (i, j, u, v), acc
    for (i, j), (u, v), w in itertools.product(pairs, pairs, rng):
        # {i, j, {u, v, w}} - {{i, j, u}, v, w} - {u, {i, j, v}, w} - {u, v, {i, j, w}}
        tij = T[i][j]
        acc = [0] * d
        for m, c in T[u][v][w]:
            for n, x in tij[m]:
                acc[n] += c * x
        for m, c in tij[u]:
            for n, x in T[m][v][w]:
                acc[n] -= c * x
        for m, c in tij[v]:
            for n, x in T[u][m][w]:
                acc[n] -= c * x
        for m, c in tij[w]:
            for n, x in T[u][v][m]:
                acc[n] -= c * x
        if any(acc):
            yield "LY6", (i, j, u, v, w), acc
