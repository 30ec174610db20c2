"""Group presentations and signed words.

A word is a tuple of letters, each letter a pair (generator, sign) with
sign +1 or -1.  The ASCII syntax uses one lowercase letter per generator
and the corresponding uppercase letter for its inverse, so "baBAA" reads
b a b^-1 a^-1 a^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

Letter = tuple[str, int]
Word = tuple[Letter, ...]


class PresentationError(ValueError):
    """Raised for malformed presentation text or invalid relators."""


def parse_word(text: str, generators: tuple[str, ...]) -> Word:
    letters = []
    for ch in text:
        gen = ch.lower()
        if gen not in generators or not ch.isascii():
            raise PresentationError(f"unknown symbol {ch!r}")
        letters.append((gen, 1 if ch.islower() else -1))
    return tuple(letters)


def format_word(word: Word) -> str:
    return "".join(g if s > 0 else g.upper() for g, s in word)


def is_freely_reduced(word: Word) -> bool:
    return all(
        not (word[k][0] == word[k + 1][0] and word[k][1] == -word[k + 1][1])
        for k in range(len(word) - 1)
    )


def free_reduce(word: Word) -> Word:
    out: list[Letter] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: Word) -> Word:
    """Free reduction followed by cancelling first against last letters."""
    word = free_reduce(word)
    k = 0
    while 2 * k + 1 < len(word) and word[k] == (word[-1 - k][0], -word[-1 - k][1]):
        k += 1
    return word[k : len(word) - k]


def is_proper_power(word: Word) -> bool:
    """True if word = u^k for some k >= 2 (as a plain, non-cyclic word)."""
    n = len(word)
    for period in range(1, n):
        if n % period == 0 and word == word[:period] * (n // period):
            return True
    return False


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: ordered generators and ordered relator words.

    Relators must be nonempty, freely reduced and spelled over the declared
    generators.  Proper powers are legal here (quotients of fundamental
    groups produce them); callers that attach 2-cells along relators reject
    them separately, because a periodic attaching word makes the side
    positions of the cell ambiguous.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        generators = set(self.generators)
        if len(generators) != len(self.generators):
            raise PresentationError("duplicate generator")
        for word in self.relators:
            if not word:
                raise PresentationError("empty relator")
            if not is_freely_reduced(word):
                raise PresentationError(
                    f"relator {format_word(word)!r} is not freely reduced"
                )
            for gen, sign in word:
                if gen not in generators:
                    raise PresentationError(f"unknown generator {gen!r} in relator")
                if sign not in (1, -1):
                    raise PresentationError("letter sign must be +1 or -1")

    def __str__(self) -> str:
        return "{}|{}".format(
            ",".join(self.generators),
            ",".join(format_word(w) for w in self.relators),
        )


def parse_presentation(text: str) -> Presentation:
    """Parse "gens|rel,rel,..." into a Presentation.

    Rejects relators that are proper powers: every presentation parsed here
    may be used as the target of a combinatorial map, where face sides are
    addressed by relator position and a periodic relator would make that
    addressing ambiguous.  Free reduction is checked, never applied.
    """
    head, sep, tail = text.partition("|")
    if not sep:
        raise PresentationError("expected 'generators|relators'")
    generators = tuple(head.split(",")) if head else ()
    for gen in generators:
        if len(gen) != 1 or not "a" <= gen <= "z":
            raise PresentationError(f"generator must be one lowercase letter: {gen!r}")
    relator_texts = tail.split(",") if tail else []
    relators = []
    for rtext in relator_texts:
        word = parse_word(rtext, generators)
        if not word:
            raise PresentationError("empty relator")
        if not is_freely_reduced(word):
            raise PresentationError(f"relator {rtext!r} is not freely reduced")
        if is_proper_power(word):
            raise PresentationError(f"relator {rtext!r} is a proper power")
        relators.append(word)
    return Presentation(generators, tuple(relators))
