import json
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

import descmut

from tlmforge.jsontext import MAX_DEPTH, JsonSyntaxError, kind, load_json, parse_json

FIRST_CHAR = {"object": "{", "array": "[", "string": '"', "boolean": "tf", "null": "n",
              "integer": "-0123456789", "number": "-0123456789"}


def walk(value, path=()):
    """(path, value) for a value and everything inside it, the root first."""
    yield path, value
    children = value.items() if type(value) is dict else (
        enumerate(value) if type(value) is list else ())
    for step, child in children:
        yield from walk(child, path + (step,))


def offset_of(text, line, column):
    lines = text.split("\n")
    assert 1 <= column <= len(lines[line - 1])
    return sum(len(s) + 1 for s in lines[:line - 1]) + column - 1


def assert_positions(text):
    """Every path in the value has a (line, column), and it is the offset where
    the token of the value at that path starts."""
    root, positions = parse_json(text)
    decoder = json.JSONDecoder(parse_float=Decimal)  # as parse_json reads a float: exactly
    assert root == decoder.decode(text)
    values = dict(walk(root))
    assert positions.keys() == values.keys()
    for path, value in values.items():
        at = offset_of(text, *positions[path])
        assert text[at] in FIRST_CHAR[kind(value)]
        decoded, _ = decoder.raw_decode(text, at)
        assert decoded == value
        assert type(decoded) is type(value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=20)


@given(json_values, st.sampled_from([None, 0, 1, "\t", " \t "]), st.booleans(), st.booleans())
def test_parse_json_matches_json_loads_with_exact_positions(value, indent, ascii_only, crlf):
    text = json.dumps(value, indent=indent, ensure_ascii=ascii_only)
    if crlf:
        text = text.replace("\n", "\r\n")
    assert_positions(text)


def test_positions_survive_surrogate_pairs_tabs_and_deep_nesting():
    assert_positions('{\r\n\t"k\\ud83d\\ude00": ["\U0001f600", "\\ud83d\\ude00x",\r\n\t\t-1e2]}')
    assert parse_json('"\\ud83d\\ude00"') == ("\U0001f600", {(): (1, 1)})
    assert parse_json('"\\ud800\\u0041"') == ("\ud800A", {(): (1, 1)})
    deep = "1"
    for level in range(200):
        deep = f'[\n\t{deep}]' if level % 2 else '{"k": \r\n %s}' % deep
    assert_positions(deep)


@pytest.mark.parametrize("text, reason, line, column", [
    ('{\r\n\t"a": [1,\r\n\t\t,]}', "unexpected character ','", 3, 3),
    ('["abc', "unterminated string", 1, 6),
    ('{"a": 1,\n "a": 2}', "duplicate key 'a'", 2, 2),
    ("[1, 2\n  3]", "expected ',' or ']' in array", 2, 3),
    ('"\\ud800\\u12"', "truncated \\u escape", 1, 10),
    ('\n\t"\\x"', "bad escape \\x", 2, 4),
    ("  ", "empty document", 1, 3),
    ("[1] x", "trailing data after the document", 1, 5),
    ('{"k" 1}', "expected ':' after key", 1, 6),
    ('"a\nb"', "newline inside string", 1, 3),
    ('["a", "b\rc"]', "newline inside string", 1, 9),
    ('{"k":\n  "a\tb"}', "control character '\\t' inside string", 2, 5),
    ('["\x00"]', "control character '\\x00' inside string", 1, 3),
    ('["ok", "\x1f"]', "control character '\\x1f' inside string", 1, 9),
    ("-", "bad number", 1, 1),
    ("[1,\n]", "unexpected character ']'", 2, 1),
    ('{"a": 1\r\n"b": 2}', "expected ',' or '}' in object", 2, 1),
    ('{"a":', "unexpected end of input", 1, 6),
    ("[", "unexpected end of input", 1, 2),
    ('{"a\\x": 1}', "bad escape \\x", 1, 5),
    ('{"ab', "unterminated string", 1, 5),
    ('{"a\x01": 1}', "control character '\\x01' inside string", 1, 4),
    ('{"\\u12": 1}', "bad \\u escape '12\":'", 1, 5),
    ('{"k":\n "\\ud800\\uzz"}', "bad \\u escape 'zz\"}'", 2, 11),
])
def test_syntax_errors_keep_their_positions(text, reason, line, column):
    with pytest.raises(JsonSyntaxError) as info:
        parse_json(text)
    assert (info.value.reason, info.value.line, info.value.column) == (reason, line, column)


@pytest.mark.parametrize("opener", ["[", '{"k": '])
def test_nesting_is_bounded_at_256_levels(opener):
    closer = "]" if opener == "[" else "}"
    value, positions = parse_json("[" * 256 + "]" * 256)
    assert len(max(positions, key=len)) == 255 and positions[(0,) * 255] == (1, 256)
    text = "\n " + opener * 257 + "1" + closer * 257
    with pytest.raises(JsonSyntaxError) as info:
        parse_json(text)
    assert (info.value.reason, info.value.line, info.value.column) == (
        "nesting deeper than 256", 2, 2 + 256 * len(opener))


@pytest.mark.parametrize("digits", ["-123", " 12 ", "+fff", "1_2a", "١٢٣٤"])
def test_unicode_escape_needs_four_hex_digits(digits):
    with pytest.raises(JsonSyntaxError) as info:
        parse_json('\n  "\\u%s"' % digits)
    assert (info.value.reason, info.value.line, info.value.column) == (
        f"bad \\u escape {digits!r}", 2, 6)


@pytest.mark.parametrize("text,reason,column", [
    ("[1١]", "expected ',' or ']' in array", 3),
    ("[0.٣]", "expected ',' or ']' in array", 3),
    ("[1e١]", "expected ',' or ']' in array", 3),
    ("[١]", "bad number", 2),
])
def test_numbers_take_ascii_digits_only(text, reason, column):
    with pytest.raises(JsonSyntaxError) as info:
        parse_json(text)
    assert (info.value.reason, info.value.line, info.value.column) == (reason, 1, column)


# int() refuses a literal of more digits than this; 0 means no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5000,
                    reason="int() takes a 5000-digit literal on this interpreter")
def test_an_integer_past_the_digit_limit_is_a_syntax_error():
    with pytest.raises(JsonSyntaxError) as info:
        parse_json('{"a":\n  [0, %s]}' % ("9" * 5000))
    assert (info.value.reason, info.value.line, info.value.column) == (
        "integer literal too long", 2, 7)


@pytest.mark.parametrize("literal", [
    "1e1000000000000000000", "-1E-9999999999999999999",
    pytest.param("1.5e" + "9" * 5000, id="a 5000-digit exponent")])
def test_a_float_past_the_exponent_decimal_holds_is_a_syntax_error(literal):
    with pytest.raises(JsonSyntaxError) as info:
        parse_json('{"a":\n  [0, %s]}' % literal)
    assert (info.value.reason, info.value.line, info.value.column) == (
        "number out of range", 2, 7)


# -- the fast read: json.loads, or ValueError where only parse_json can answer --


def shape(value):
    """A value as nested tuples; types and key order kept."""
    if type(value) is dict:
        return "object", [(k, shape(c)) for k, c in value.items()]
    if type(value) is list:
        return "array", [shape(c) for c in value]
    return kind(value), repr(value)  # repr tells -0.0 from 0.0


def assert_fast_read_agrees(text):
    """load_json gives parse_json's value, or raises ValueError exactly where
    parse_json refuses the text, except that it may accept nesting deeper than
    MAX_DEPTH; returns which readers accept the text."""
    try:
        slow, _ = parse_json(text)
    except JsonSyntaxError as exc:
        try:
            fast = load_json(text)
        except ValueError:
            return "neither"
        assert exc.reason == f"nesting deeper than {MAX_DEPTH}"
        assert max(len(path) for path, v in walk(fast) if type(v) in (dict, list)) >= MAX_DEPTH
        return "load_json"
    assert shape(load_json(text)) == shape(slow)
    return "both"


# Characters that make, break or respell JSON tokens, or that only one reader takes.
JSON_NOISE = list('{}[],:"\\/-+.eE019 \t\r\nbfnrtuNIl') + [
    "\ufeff", "\x00", "\x1f", "\u0663", "\ud800", "\\u", "\\ud800", "\\udc00",
    "NaN", "Infinity", "true", "1e400", "9" * 5000]


@st.composite
def edited_texts(draw):
    """A json.dumps text of json_values or a descmut mutation of abs.json,
    with up to three characters or tokens inserted, replaced or deleted."""
    if draw(st.booleans()):
        text = json.dumps(draw(json_values), indent=draw(st.sampled_from([None, 0, 1, "\t"])),
                          ensure_ascii=draw(st.booleans()))
        if draw(st.booleans()):
            text = text.replace("\n", "\r\n")
    else:
        (_, text), = descmut.cases(draw(st.integers(0, 2**32)), 1)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(JSON_NOISE + [""])) + text[
            at + draw(st.integers(0, 2)):]
    return text


@given(edited_texts())
@example('{"a": 1, "b": {"a": 2}}')
def test_the_fast_read_refuses_or_gives_the_same_value(text):
    assert_fast_read_agrees(text)


@pytest.mark.parametrize("text, readers", [
    pytest.param('{"a": 1, "a": 2}', "neither", id="duplicate key"),
    pytest.param('{"a": {"b": [], "b": []}}', "neither", id="nested duplicate key"),
    pytest.param("[NaN]", "neither", id="NaN"),
    pytest.param("[Infinity]", "neither", id="Infinity"),
    pytest.param("[-Infinity]", "neither", id="-Infinity"),
    pytest.param("[" * 256 + "]" * 256, "both", id="256 arrays"),
    pytest.param('{"k": ' * 255 + "[]" + "}" * 255, "both", id="255 objects and an array"),
    # json.loads bounds nesting only by the interpreter's recursion limit, which it
    # reports as a ValueError; a description nests 5 deep, so its builder refuses
    # anything deeper and parse_json then gives the E-SYNTAX message
    pytest.param("[" * 257 + "]" * 257, "load_json", id="257 arrays"),
    pytest.param('{"k": ' * 256 + "[]" + "}" * 256, "load_json", id="256 objects and an array"),
    pytest.param("[" * 100_000 + "]" * 100_000, "neither", id="100000 arrays"),
    pytest.param(" null ", "both", id="null document"),
    pytest.param("\ufeff{}", "neither", id="BOM"),
    # both readers refuse a raw control character in a string (RFC 8259 section 7)
    pytest.param('["a\tb"]', "neither", id="tab in a string"),
    pytest.param('["a\x00b"]', "neither", id="NUL in a string"),
    pytest.param('["a\nb"]', "neither", id="LF in a string"),
    pytest.param('["a\rb"]', "neither", id="CR in a string"),
    pytest.param('["\\ud800", "\\udc00", "\\ud83d\\ude00", "\\ud800\\u0041", "\\ud800\\ud800"]',
                 "both", id="lone and paired surrogate escapes"),
    pytest.param('["\\ud800\\u12"]', "neither", id="truncated low surrogate"),
    # a lone high surrogate escape, then a pair: the pair still makes one character
    pytest.param('["\\ud800\\ud83d\\ude00"]', "both", id="lone high surrogate before a pair"),
    pytest.param("[-0, -0.0, 1E400, -1e400, 0.5e-400]", "both",
                 id="zeros and out-of-range floats"),
    pytest.param("[%s]" % ("9" * 5000), "neither" if 0 < DIGIT_LIMIT < 5000 else "both",
                 id="5000-digit integer"),
    pytest.param("[1e999999999999999999, -1E-999999999999999999]", "both",
                 id="exponents Decimal holds"),
    pytest.param("[1e1000000000000000000]", "neither", id="an exponent past Decimal's"),
    pytest.param("[0.5e-9999999999999999999]", "neither", id="a negative exponent past Decimal's"),
])
def test_the_fast_read_on_edge_cases(text, readers):
    assert assert_fast_read_agrees(text) == readers
