"""The JSON writer and the per-field matrix kernels of multiplex.io."""

import json
import random
from fractions import Fraction

import pytest

from conftest import assert_canonical

from multiplex import io as mio
from multiplex.io import DocumentError, json_text
from multiplex.linalg import GF, QQ, Matrix


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


EDGE_PAYLOADS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[], {}, [[], [{}]]],
    {"matrix": [[1, "1/2", -3], ["-7/50", 0, 2 ** 200], []]},
    [-1, 0, 10 ** 60, -(10 ** 60), 2 ** 63, -(2 ** 64)],
    {"huge": [[10 ** 80, -(10 ** 80)]], "neg": [[-5]]},
    {"café": "über 中文 \U0001f600",
     "tab\there": "quote \" backslash \\ newline \n cr \r",
     "ctl\x01\x1f": "\x00\x7f ", "": ""},
    [{"ok": True, "failed": False, "detail": None, "checked": 0,
      "failures": [{"location": [1, "A", -2], "detail": ""}]}],
    {"b": 1, "a": 2, "B": 3, "_": 4, "10": 5, "9": 6, "a b": 7},
    "just a string",
    7,
    None,
    True,
    False,
    [True, False, None, 1],
    [[1, 2], [3, True]],
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS, ids=repr)
def test_writer_matches_json_dumps_on_edge_cases(payload):
    assert json_text(payload) == _reference(payload)


def _random_value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.randint(-10 ** 30, 10 ** 30)
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return f"{rng.randint(-99, 99)}/{rng.randint(2, 50)}"
    if kind == 3:
        return "".join(rng.choice("aZ09 \"\\\n\té中/")
                       for _ in range(rng.randint(0, 6)))
    if kind == 4:
        return rng.choice([True, False, None])
    if kind == 5:
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
    if kind == 6:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {"".join(rng.choice("abc,é") for _ in range(rng.randint(0, 3))):
            _random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_json_dumps_on_random_payloads(seed):
    rng = random.Random(3100 + seed)
    payload = {"v": _random_value(rng, 0), "w": _random_value(rng, 0)}
    assert json_text(payload) == _reference(payload)


@pytest.mark.parametrize("payload", [
    1.5, {"x": 0.0}, [Fraction(1, 2)], {1: "int key"}, {None: 1},
    {"s": {1, 2}}, [b"bytes"], {"t": (1, 2)},
], ids=repr)
def test_writer_rejects_other_types(payload):
    with pytest.raises(TypeError):
        json_text(payload)


def test_document_json_is_json_dumps_plus_newline():
    objects = {"x": {"type": "bigraded_map", "src": "A", "dst": "A",
                     "bidegree": [0, 0], "blocks": []}}
    for field in (GF(), QQ):
        text = mio.document_json(field, objects)
        payload = {"schema_version": mio.SCHEMA_VERSION,
                   "field": mio.dump_field(field), "objects": objects}
        assert text == _reference(payload) + "\n"


# -- per-field matrix kernels ---------------------------------------------

def _ref_dump_entry(field, a):
    if field.p or a.denominator == 1:
        return int(a)
    return f"{a.numerator}/{a.denominator}"


def _ref_dump(field, m):
    return [[_ref_dump_entry(field, m[r, c]) for c in range(m.cols)]
            for r in range(m.rows)]


def _ref_parse(field, payload, rows, cols):
    return Matrix(field, rows, cols,
                  [field.parse(v) for row in payload for v in row])


def _rand_qq_entry(rng):
    k = rng.randrange(4)
    if k == 0:
        return Fraction(0)
    if k == 1:
        return Fraction(rng.randint(-10 ** 20, 10 ** 20))
    return Fraction(rng.randint(-99, 99), rng.randint(1, 50))


@pytest.mark.parametrize("field", [GF(32003), GF(2), QQ], ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_matrix_kernels_match_field_dump_and_parse(field, seed):
    rng = random.Random(3200 + seed)
    for rows, cols in [(rng.randint(1, 6), rng.randint(1, 6)), (0, 3),
                       (3, 0), (0, 0)]:
        if field.p:
            data = [rng.choice([0, rng.randrange(field.p)])
                    for _ in range(rows * cols)]
        else:
            data = [_rand_qq_entry(rng) for _ in range(rows * cols)]
        m = Matrix(field, rows, cols, data)
        dumped = mio.dump_matrix(field, m)
        assert dumped == _ref_dump(field, m)
        assert json_text(dumped) == _reference(dumped)
        back = mio.parse_matrix(field, dumped, rows, cols)
        assert back == m == _ref_parse(field, dumped, rows, cols)
        assert_canonical(field, back.data)
        # out-of-range F_p integers and mixed int/string QQ rows
        raw = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(cols)]
               for _ in range(rows)]
        if not field.p and rows and cols:
            raw[0][0] = "3/6"
        assert mio.parse_matrix(field, raw, rows, cols) == \
            _ref_parse(field, raw, rows, cols)


@pytest.mark.parametrize("field, entry", [
    (GF(5), True), (GF(5), "1"), (GF(5), 1.0), (GF(5), None),
    (QQ, False), (QQ, 1.5), (QQ, "1/0"), (QQ, "x"), (QQ, [1]),
    (QQ, "1e99999999"), (QQ, "2E3"),
], ids=repr)
def test_parse_matrix_errors_are_worded_by_field_parse(field, entry):
    payload = [[1, 2], [0, entry]]
    with pytest.raises(DocumentError) as got:
        mio.parse_matrix(field, payload, 2, 2)
    try:
        field.parse(entry)
    except (ValueError, ZeroDivisionError) as exc:
        expected = f"bad matrix entry: {exc}"
    assert str(got.value) == expected
