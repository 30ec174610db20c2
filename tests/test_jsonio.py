import json

import pytest

from foldcx.canonical import canonical_form
from foldcx.families import build_C, build_D, kp
from foldcx.jsonio import export_dot, morphism_from_json, morphism_to_json
from helpers import rename


def test_dump_load_identity():
    for f in (kp(), build_D(2), build_C(3), build_C(5, "tilde")):
        text = morphism_to_json(f)
        back = morphism_from_json(text)
        assert back == f


def test_bit_exact_round_trip():
    for f in (kp(), build_D(3), build_C(5)):
        text = morphism_to_json(f)
        assert morphism_to_json(morphism_from_json(text)) == text


def test_document_shape():
    doc = json.loads(morphism_to_json(kp()))
    assert doc["presentation"] == "a,b|b,baBAA"
    assert doc["vertices"] == ["v0"]
    assert {e["id"] for e in doc["edges"]} == {"a", "b"}
    assert doc["faces"][0]["boundary"] == ["+b"]
    assert [f["type"] for f in doc["faces"]] == [0, 1]
    signed = doc["faces"][1]["boundary"]
    assert signed == ["+b", "+a", "-b", "-a", "-a"]


def test_loaded_complex_canonically_equal():
    f = build_C(3)
    assert canonical_form(morphism_from_json(morphism_to_json(f))) == canonical_form(f)


def test_bad_side_string_rejected():
    doc = json.loads(morphism_to_json(kp()))
    doc["faces"][0]["boundary"] = ["b"]
    with pytest.raises(ValueError):
        morphism_from_json(json.dumps(doc))


def test_export_dot_mentions_every_edge():
    f = build_D(1)
    dot = export_dot(f)
    assert dot.startswith("digraph")
    for e in f.complex.edges:
        assert f'"{e.tail}" -> "{e.head}"' in dot
        assert f'id="{e.id}"' in dot


def test_export_dot_escapes_ids():
    # every id of kp gets the suffix ."\ and DOT reads \" and \\ as escapes
    lines = export_dot(rename(kp(), '"\\')).splitlines()
    assert r'  "v0.\"\\";' in lines
    assert r'  "v0.\"\\" -> "v0.\"\\" [label="a" id="a.\"\\"];' in lines
