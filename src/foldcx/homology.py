"""Integer homology of 2-complexes via reduction and Smith normal form.

The rank of d1 comes from counting components: it is the number of edges
of the spanning forest of the 1-skeleton (TwoComplex.spanning_forest).
d2 is built sparse (dicts of rows and columns) from the face boundaries;
its unit pivots are eliminated first, which for free edge-face pairs and
one-edge cells costs no fill (the discrete-Morse reduction of Forman,
"Morse theory for cell complexes", 1998; Mischaikow and Nanda, DCG 2013).
That unit pass is the only sparse code: the residual core, almost always
empty, goes through the dense smith_normal_form.  All arithmetic is exact
over Python integers; smith_normal_form chooses pivots with minimal
absolute value, which keeps coefficient growth tame.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .complexes import ComplexError, TwoComplex, euler_characteristic

Matrix = list[list[int]]


def smith_normal_form(matrix: Matrix) -> list[int]:
    """Invariant factors (positive, each dividing the next) of an integer
    matrix; their count is the rank.

    Dense elimination: the pivot is the nonzero entry of least absolute
    value, ties broken by position.  Its column, then its row, is reduced
    modulo the pivot; a nonzero remainder is smaller than the pivot, which
    is then picked again.  A pivot alone in its row and column is a factor,
    and zeroing it retires both lines.
    """
    m = [list(row) for row in matrix]
    factors: list[int] = []
    while True:
        entries = [
            (abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        pivot_row = m[pi]
        pv = pivot_row[pj]
        reduced = False
        for i, row in enumerate(m):
            if i != pi and row[pj]:
                q = row[pj] // pv
                m[i] = row = [x - q * y for x, y in zip(row, pivot_row)]
                reduced = reduced or row[pj] != 0
        if reduced:
            continue
        # column pj is now zero outside the pivot, so the column operations
        # that reduce row pi change row pi alone
        for j, v in enumerate(pivot_row):
            if j != pj and v:
                pivot_row[j] = v % pv
                reduced = reduced or pivot_row[j] != 0
        if reduced:
            continue
        factors.append(abs(pv))
        pivot_row[pj] = 0
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
        return self == POINT_HOMOLOGY

    def as_dict(self) -> dict:
        return {
            "betti_0": self.betti_0,
            "betti_1": self.betti_1,
            "betti_2": self.betti_2,
            "torsion_1": list(self.torsion_1),
        }


POINT_HOMOLOGY = HomologyProfile(1, 0, 0, ())


def _d2_factors(cx: TwoComplex) -> list[int]:
    """Invariant factors of d2 (edges x faces).

    d2 is built sparse, repeated edges of a boundary summed.  Unit pivots
    are eliminated first, by unimodular row operations, which leave
    diag(1, ..., 1) + core; each contributes the invariant factor 1 and
    only the core goes to smith_normal_form.  Lines (rows or columns) are
    taken shortest first from a heap that is refreshed whenever a line
    changes, so a line with a single unit entry, such as a free edge or the
    face of a one-edge relator, is eliminated without fill before any
    other.  In a longer line the unit entry whose crossing line is shortest
    is the pivot.
    """
    eix = {e.id: k for k, e in enumerate(cx.edges)}
    rows: dict[int, dict[int, int]] = {}  # edge -> {face: coefficient}
    cols: dict[int, dict[int, int]] = {}  # face -> {edge: coefficient}
    for j, face in enumerate(cx.faces):
        col: dict[int, int] = {}
        for eid, sign in face.boundary:
            i = eix[eid]
            col[i] = col.get(i, 0) + sign
        for i, v in col.items():
            if v:
                cols.setdefault(j, {})[i] = v
                rows.setdefault(i, {})[j] = v
    lines = (rows, cols)  # a line of kind 0 is a row, of kind 1 a column
    heap = [(len(m[k]), kind, k) for kind, m in enumerate(lines) for k in m]
    heapq.heapify(heap)
    units = 0
    while heap:
        n, kind, k = heapq.heappop(heap)
        line = lines[kind].get(k)
        if line is None or len(line) != n:
            continue  # eliminated or changed since it was pushed
        cross = lines[1 - kind]
        pivots = [(len(cross[x]), x) for x, v in line.items() if v in (1, -1)]
        if not pivots:
            continue
        x = min(pivots)[1]
        r, c = (k, x) if kind == 0 else (x, k)
        units += 1
        for t, j in _eliminate(rows, cols, r, c):
            heapq.heappush(heap, (len(lines[t][j]), t, j))
    core_rows = sorted(rows)
    core_cols = sorted(cols)
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    return [1] * units + smith_normal_form(core)


def _eliminate(rows, cols, r: int, c: int) -> list[tuple[int, int]]:
    """Clear column c with the unit pivot (r, c) by row operations, then
    drop row r and column c.  Returns the lines that changed and survive."""
    pivot_row = rows.pop(r)
    column = cols.pop(c)
    p = pivot_row.pop(c)
    del column[r]
    # row r goes with column c: once the row operations below have cleared
    # column c, the column operations that clear row r touch nothing else
    for j in pivot_row:
        del cols[j][r]
    touched = [(1, j) for j in pivot_row]
    for i, a in column.items():
        row = rows[i]
        del row[c]
        factor = a * p  # row i -= (a / p) * row r, and 1 / p == p
        for j, v in pivot_row.items():
            w = row.get(j, 0) - factor * v
            if w:
                row[j] = w
                cols[j][i] = w
            else:
                del row[j]
                del cols[j][i]
        touched.append((0, i))
    live = []
    for kind, k in touched:
        lines = (rows, cols)[kind]
        if lines[k]:
            live.append((kind, k))
        else:
            del lines[k]
    return live


def homology(cx: TwoComplex) -> HomologyProfile:
    if not cx.vertices:
        raise ComplexError("homology of the empty complex")
    rank1 = len(cx.spanning_forest)
    factors2 = _d2_factors(cx)
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
