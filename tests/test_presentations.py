import pytest

from foldcx.presentations import (
    Presentation,
    PresentationError,
    free_reduce,
    is_freely_reduced,
    is_proper_power,
    parse_presentation,
    parse_word,
)


def test_parse_standard_target():
    p = parse_presentation("a,b|b,baBAA")
    assert p.generators == ("a", "b")
    assert p.relators[0] == (("b", 1),)
    assert p.relators[1] == (("b", 1), ("a", 1), ("b", -1), ("a", -1), ("a", -1))


def test_parse_no_relators():
    p = parse_presentation("a|")
    assert p.generators == ("a",)
    assert p.relators == ()


def test_str_round_trip():
    for text in ("a,b|b,baBAA", "a|", "|", "a,b|abAB"):
        assert str(parse_presentation(text)) == text


def test_not_freely_reduced_rejected():
    with pytest.raises(PresentationError, match="freely reduced"):
        parse_presentation("a|aA")


def test_proper_power_rejected():
    with pytest.raises(PresentationError, match="proper power"):
        parse_presentation("a|aa")
    with pytest.raises(PresentationError, match="proper power"):
        parse_presentation("a,b|abab")


def test_unknown_symbol_rejected():
    with pytest.raises(PresentationError, match="unknown symbol"):
        parse_presentation("a|ab")


@pytest.mark.parametrize(
    "text", ["\u00df|\u1e9e", "\u00e9|\u00c9", "\u0431|"], ids=["sharp-s", "e-acute", "cyrillic"]
)
def test_non_ascii_generator_rejected(text):
    # 'ß' is a lowercase letter to str, but its upper case is 'SS', which
    # would print the inverse as two letters
    with pytest.raises(PresentationError, match="one lowercase letter"):
        parse_presentation(text)


def test_non_ascii_inverse_rejected():
    # the Kelvin sign lowers to 'k' but is not the ASCII inverse 'K'
    with pytest.raises(PresentationError, match="unknown symbol"):
        parse_presentation("k|\u212a")


def test_empty_relator_rejected():
    with pytest.raises(PresentationError):
        Presentation(("a",), ((),))


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b|b,,baBAA", "empty relator"),
        ("a,b|b,", "empty relator"),
        ("a|,", "empty relator"),
        ("a,,b|b", "one lowercase letter: ''"),
    ],
)
def test_an_empty_name_between_commas_is_rejected(text, message):
    # not dropped: "a,b|b,,baBAA" is not "a,b|b,baBAA"
    with pytest.raises(PresentationError, match=message):
        parse_presentation(text)


def test_missing_separator_rejected():
    with pytest.raises(PresentationError):
        parse_presentation("ab")


def test_proper_power_detection():
    gens = ("a", "b")
    assert is_proper_power(parse_word("aa", gens))
    assert is_proper_power(parse_word("ababab", gens))
    assert not is_proper_power(parse_word("ab", gens))
    assert not is_proper_power(parse_word("aab", gens))
    assert not is_proper_power(parse_word("baBAA", gens))


def test_free_reduction_helpers():
    gens = ("a", "b")
    assert not is_freely_reduced(parse_word("abBA", gens))
    assert free_reduce(parse_word("abBA", gens)) == ()
    assert free_reduce(parse_word("abBa", gens)) == (("a", 1), ("a", 1))


def test_presentation_allows_proper_powers_when_built_directly():
    # quotient presentations (for coset enumeration) legitimately carry them
    cyclic = Presentation(("a",), ((("a", 1),) * 3,))
    assert len(cyclic.relators[0]) == 3
