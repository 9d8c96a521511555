"""Property test of the JSON string quoting against ``json.dumps``.

Kept apart from test_serialize.py so that the rest of the serializer tests
run without hypothesis, the one test dependency that is optional.
"""

import json

import pytest

from catsize.serialize import dumps_json

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=st.text(st.characters(exclude_categories=())))
def test_quoting_equals_json_dumps(text):
    # any code point: controls, lone surrogates and non-BMP characters included
    assert dumps_json(text) == json.dumps(text)
    assert dumps_json({text: None}) == json.dumps({text: None})
