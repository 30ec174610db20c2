"""Fundamental groups of 2-complexes and coset enumeration.

pi1_presentation reads a presentation off the spanning tree of a connected
complex, TwoComplex.spanning_forest: one generator per non-tree edge, one
relator per face (its boundary word with tree edges deleted, freely
reduced).

tietze_reduce shrinks a presentation by Tietze transformations before
enumeration: relators are cyclically reduced, and a generator that occurs
once in some relator is solved for and substituted away whenever that does
not lengthen the relators.  The group, and so its order, is unchanged; on
the closed family complexes C(i) it removes all, or all but a few, of the
i + 1 generators.

coset_enumeration is a relator-table-filling (HLT style) Todd-Coxeter
enumeration of the cosets of the trivial subgroup, with immediate
coincidence handling.  It either closes the table, in which case the
number of live cosets is exactly the group order, or gives up when more
cosets than the cap have been defined.  A finished run is always correct;
overflow never is reported as an answer.
"""

from __future__ import annotations

import heapq
from collections import deque

from .complexes import ComplexError, TwoComplex
from .presentations import Letter, Presentation, Word, cyclic_reduce, free_reduce

MAX_COSETS = 100_000  # default cap on the coset table


def pi1_presentation(cx: TwoComplex) -> Presentation:
    if not cx.vertices:
        raise ComplexError("pi1_presentation of the empty complex")
    if not cx.connected:
        raise ComplexError("pi1_presentation needs a connected complex")
    tree = cx.spanning_forest
    gens = tuple(e.id for e in cx.edges if e.id not in tree)
    relators = []
    for face in cx.faces:
        word: Word = tuple(
            (eid, sign) for eid, sign in face.boundary if eid not in tree
        )
        word = free_reduce(word)
        if word:
            relators.append(word)
    return Presentation(gens, tuple(relators))


def _inverse(word: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def tietze_reduce(pres: Presentation) -> Presentation:
    """An equivalent presentation with generators eliminated.

    Relators are freely and cyclically reduced (empty ones dropped).  Then,
    repeatedly, a relator r in which some generator g occurs exactly once
    is solved for g, r is deleted and g's value is substituted into the
    other relators, which are reduced again.  Each step is a Tietze
    transformation, so the group is unchanged.  A step is taken only when
    the total relator length does not grow, that is when
    (other occurrences of g) * (|r| - 2) <= |r|.  The shortest eligible
    relator goes first, ties by index; within it the generator with the
    fewest other occurrences, ties by position.  Eligibility is rechecked
    from a heap refreshed whenever a relator changes or the count of one
    of its generators does, found through a generator -> relators index.
    """
    relators: dict[int, Word] = {}
    for k, word in enumerate(pres.relators):
        word = cyclic_reduce(word)
        if word:
            relators[k] = word
    uses: dict[str, set[int]] = {g: set() for g in pres.generators}
    occurrences = dict.fromkeys(pres.generators, 0)
    for k, word in relators.items():
        for g, _ in word:
            uses[g].add(k)
            occurrences[g] += 1
    heap = [(len(w), k) for k, w in relators.items()]
    heapq.heapify(heap)
    while heap:
        n, k = heapq.heappop(heap)
        word = relators.get(k)
        if word is None or len(word) != n:
            continue  # deleted or rewritten since it was pushed
        once: dict[str, int] = {}
        for p, (g, _) in enumerate(word):
            once[g] = -1 if g in once else p
        candidates = [
            (occurrences[g] - 1, p, g)
            for g, p in once.items()
            if p >= 0 and (occurrences[g] - 1) * (n - 2) <= n
        ]
        if not candidates:
            continue
        _, p, g = min(candidates)
        # r = u g^s v, cyclically g^s (v u) = 1, so g = (v u)^(-s)
        rest = word[p + 1 :] + word[:p]
        value = _inverse(rest) if word[p][1] > 0 else rest
        value_of = {1: value, -1: _inverse(value)}
        del relators[k]
        for h, _ in word:
            occurrences[h] -= 1
            uses[h].discard(k)
        changed = {h for h, _ in word}
        for j in uses.pop(g):
            old = relators.pop(j)
            new: list[Letter] = []
            for letter in old:
                if letter[0] == g:
                    new.extend(value_of[letter[1]])
                else:
                    new.append(letter)
                    occurrences[letter[0]] -= 1
                    uses[letter[0]].discard(j)
                    changed.add(letter[0])
            reduced = cyclic_reduce(tuple(new))
            if reduced:
                relators[j] = reduced
                for h, _ in reduced:
                    occurrences[h] += 1
                    uses[h].add(j)
        # occurrence counts changed for these generators, and every
        # rewritten relator contains one of them: recheck their relators
        changed.discard(g)
        for j in set().union(*(uses[h] for h in changed)):
            heapq.heappush(heap, (len(relators[j]), j))
    # an eliminated generator has left `uses`
    return Presentation(
        tuple(g for g in pres.generators if g in uses),
        tuple(relators[k] for k in sorted(relators)),
    )


def check_max_cosets(max_cosets: int) -> None:
    """Reject a coset cap below one; callers that reach coset enumeration
    only on some inputs check it before any work."""
    if max_cosets < 1:
        raise ComplexError("max_cosets must be at least 1")


def coset_enumeration(pres: Presentation, max_cosets: int = MAX_COSETS) -> int | None:
    """Order of the presented group, or None when the table exceeds the cap.

    Cosets of the trivial subgroup are enumerated, so a closed table has
    one row per group element.
    """
    check_max_cosets(max_cosets)
    ngens = len(pres.generators)
    col = {}
    for k, g in enumerate(pres.generators):
        col[(g, 1)] = 2 * k
        col[(g, -1)] = 2 * k + 1
    ncols = 2 * ngens
    relator_cols = [[col[letter] for letter in w] for w in pres.relators]

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]
    dead = 0

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def define(a: int, x: int) -> int | None:
        if len(table) >= max_cosets:
            return None
        table.append([None] * ncols)
        parent.append(len(table) - 1)
        b = len(table) - 1
        table[a][x] = b
        table[b][x ^ 1] = a
        return b

    def coincidence(a: int, b: int) -> None:
        nonlocal dead
        queue = deque()

        def merge(x: int, y: int) -> None:
            nonlocal dead
            rx, ry = rep(x), rep(y)
            if rx != ry:
                lo, hi = min(rx, ry), max(rx, ry)
                parent[hi] = lo
                dead += 1
                queue.append(hi)

        merge(a, b)
        while queue:
            g = queue.popleft()
            for x in range(ncols):
                d = table[g][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(g), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(a: int, word: list[int]) -> bool:
        """Scan relator `word` at coset a, filling gaps; False on overflow."""
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = rep(table[f][word[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = rep(table[b][word[j] ^ 1])
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return True
            made = define(f, word[i])
            if made is None:
                return False

    # Scan passes repeat until one completes without defining or merging a
    # coset: coincidences can undefine entries of rows scanned earlier, so a
    # single sweep is not enough to certify closure.
    changed = True
    while changed:
        changed = False
        a = 0
        while a < len(table):
            if rep(a) != a:
                a += 1
                continue
            for word in relator_cols:
                before = (len(table), dead)
                if not scan_and_fill(a, word):
                    return None
                if (len(table), dead) != before:
                    changed = True
                if rep(a) != a:
                    break
            if rep(a) == a:
                for x in range(ncols):
                    if table[a][x] is None:
                        if define(a, x) is None:
                            return None
                        changed = True
            a += 1
    for a in range(len(table)):  # closure sanity: complete and consistent
        if rep(a) != a:
            continue
        if any(entry is None for entry in table[a]):
            raise RuntimeError(f"closed coset table has a gap at coset {a}")
        for word in relator_cols:
            b = a
            for x in word:
                b = rep(table[b][x])
            if b != a:
                raise RuntimeError(f"closed coset table breaks a relator at coset {a}")
    return len(table) - dead
