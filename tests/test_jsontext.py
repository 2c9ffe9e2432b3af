import json

import pytest
from hypothesis import given, strategies as st

from tlmforge.jsontext import JsonSyntaxError, parse_json

FIRST_CHAR = {"object": "{", "array": "[", "string": '"', "boolean": "tf", "null": "n",
              "integer": "-0123456789", "number": "-0123456789"}


def to_python(node):
    if node.kind == "object":
        return {k: to_python(v) for k, v in node.value.items()}
    if node.kind == "array":
        return [to_python(v) for v in node.value]
    return node.value


def walk(node):
    yield node
    children = node.value.values() if node.kind == "object" else (
        node.value if node.kind == "array" else ())
    for child in children:
        yield from walk(child)


def offset_of(text, line, column):
    lines = text.split("\n")
    assert 1 <= column <= len(lines[line - 1])
    return sum(len(s) + 1 for s in lines[:line - 1]) + column - 1


def assert_positions(text):
    """Each node's (line, column) is the offset where its own token starts."""
    root = parse_json(text)
    assert to_python(root) == json.loads(text)
    decoder = json.JSONDecoder()
    for node in walk(root):
        at = offset_of(text, node.line, node.column)
        assert text[at] in FIRST_CHAR[node.kind]
        value, _ = decoder.raw_decode(text, at)
        assert value == to_python(node)
        assert type(value) is type(to_python(node))


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
    assert parse_json('"\\ud83d\\ude00"').value == "\U0001f600"
    assert parse_json('"\\ud800\\u0041"').value == "\ud800A"
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
    ("-", "bad number", 1, 1),
    ("[1,\n]", "unexpected character ']'", 2, 1),
    ('{"a": 1\r\n"b": 2}', "expected ',' or '}' in object", 2, 1),
])
def test_syntax_errors_keep_their_positions(text, reason, line, column):
    with pytest.raises(JsonSyntaxError) as info:
        parse_json(text)
    assert (info.value.reason, info.value.line, info.value.column) == (reason, line, column)


@pytest.mark.parametrize("opener", ["[", '{"k": '])
def test_nesting_is_bounded_at_256_levels(opener):
    closer = "]" if opener == "[" else "}"
    assert parse_json("[" * 256 + "]" * 256).value
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
