"""Integer homology of 2-complexes via Smith normal form.

All arithmetic is exact over Python integers; matrices are kept sparse
(dict of rows) and pivots are chosen with minimal absolute value, which is
what keeps coefficient growth tame during elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import ComplexError, TwoComplex, euler_characteristic

Matrix = list[list[int]]


def _to_sparse(matrix: Matrix):
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    return rows, cols


def _add_row(rows, cols, src: int, dst: int, factor: int) -> None:
    """row[dst] += factor * row[src]"""
    if factor == 0 or src not in rows:
        return
    target = rows.setdefault(dst, {})
    for j, v in rows[src].items():
        w = target.get(j, 0) + factor * v
        if w:
            target[j] = w
            cols.setdefault(j, set()).add(dst)
        elif j in target:
            del target[j]
            cols[j].discard(dst)
    if not target:
        del rows[dst]


def _add_col(rows, cols, src: int, dst: int, factor: int) -> None:
    """col[dst] += factor * col[src]"""
    if factor == 0 or src not in cols:
        return
    for i in list(cols[src]):
        v = rows[i][src]
        w = rows[i].get(dst, 0) + factor * v
        if w:
            rows[i][dst] = w
            cols.setdefault(dst, set()).add(i)
        else:
            if dst in rows[i]:
                del rows[i][dst]
            cols[dst].discard(i)


def smith_normal_form(matrix: Matrix) -> list[int]:
    """Invariant factors (positive, each dividing the next) of an integer
    matrix; their count is the rank."""
    rows, cols = _to_sparse(matrix)
    factors: list[int] = []
    while rows:
        # pivot: smallest absolute value, ties broken by position
        pi, pj = min(
            ((i, j) for i, row in rows.items() for j in row),
            key=lambda ij: (abs(rows[ij[0]][ij[1]]), ij),
        )
        pv = rows[pi][pj]
        reduced = False
        for i in [i for i in cols[pj] if i != pi]:
            q = rows[i][pj] // pv
            _add_row(rows, cols, pi, i, -q)
            if i in rows and pj in rows[i]:
                reduced = True  # remainder smaller than |pv|; re-pick pivot
        if reduced:
            continue
        for j in [j for j in rows[pi] if j != pj]:
            q = rows[pi][j] // pv
            _add_col(rows, cols, pj, j, -q)
            if pi in rows and j in rows[pi]:
                reduced = True
        if reduced:
            continue
        factors.append(abs(pv))
        del rows[pi]
        cols[pj].discard(pi)
    # normalize to a divisibility chain
    changed = True
    while changed:
        changed = False
        for k in range(len(factors) - 1):
            a, b = factors[k], factors[k + 1]
            if b % a:
                g = gcd(a, b)
                factors[k], factors[k + 1] = g, a * b // g
                changed = True
    return factors


@dataclass(frozen=True)
class HomologyProfile:
    betti_0: int
    betti_1: int
    betti_2: int
    torsion_1: tuple[int, ...]  # invariant factors of H1 that exceed 1

    def is_point_like(self) -> bool:
        return self == HomologyProfile(1, 0, 0, ())

    def as_dict(self) -> dict:
        return {
            "betti_0": self.betti_0,
            "betti_1": self.betti_1,
            "betti_2": self.betti_2,
            "torsion_1": list(self.torsion_1),
        }


def boundary_matrices(cx: TwoComplex) -> tuple[Matrix, Matrix]:
    """(d1: vertices x edges, d2: edges x faces) with signed incidence counts."""
    vix = {v: k for k, v in enumerate(cx.vertices)}
    eix = {e.id: k for k, e in enumerate(cx.edges)}
    d1 = [[0] * len(cx.edges) for _ in cx.vertices]
    for j, e in enumerate(cx.edges):
        d1[vix[e.head]][j] += 1
        d1[vix[e.tail]][j] -= 1
    d2 = [[0] * len(cx.faces) for _ in cx.edges]
    for j, face in enumerate(cx.faces):
        for eid, sign in face.boundary:
            d2[eix[eid]][j] += sign
    return d1, d2


def homology(cx: TwoComplex) -> HomologyProfile:
    if not cx.vertices:
        raise ComplexError("homology of the empty complex")
    d1, d2 = boundary_matrices(cx)
    rank1 = len(smith_normal_form(d1))
    factors2 = smith_normal_form(d2)
    rank2 = len(factors2)
    profile = HomologyProfile(
        betti_0=len(cx.vertices) - rank1,
        betti_1=len(cx.edges) - rank1 - rank2,
        betti_2=len(cx.faces) - rank2,
        torsion_1=tuple(f for f in factors2 if f > 1),
    )
    if profile.betti_0 - profile.betti_1 + profile.betti_2 != euler_characteristic(cx):
        raise RuntimeError("Betti numbers contradict the Euler characteristic")
    return profile
