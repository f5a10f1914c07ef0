"""``normalize_name``'s plain dict memo gives the uncached function's
answers, keeps already-normal inputs as themselves, and clears at its
cap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import records
from repro.dns.records import normalize_name


def reference_normalize(name: str) -> str:
    """The function body the memo wraps, without any memo."""
    name = name.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    if not name:
        raise ValueError("empty domain name")
    return name


def _outcome(fn, name):
    try:
        return ("ok", fn(name))
    except ValueError as exc:
        return ("error", str(exc))


labels = st.one_of(
    st.text(alphabet="abcXYZ019-", min_size=1, max_size=8),
    st.text(alphabet="0123456789", min_size=1, max_size=4),
    st.text(alphabet="äöüßİΣéж日本", min_size=1, max_size=4),
    st.text(max_size=6),
)
names = st.builds(
    lambda parts, upper, dot, lead, trail: (
        lead
        + (".".join(parts).upper() if upper else ".".join(parts))
        + ("." if dot else "")
        + trail
    ),
    st.lists(labels, max_size=4),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["", " ", "\t", "\n "]),
    st.sampled_from(["", " ", "\r\n"]),
)


@pytest.fixture()
def fresh_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(records, "_NORMALIZED", memo)
    return memo


@given(names)
@settings(max_examples=400, deadline=None)
def test_matches_uncached_function(name):
    expected = _outcome(reference_normalize, name)
    # Twice: a miss, then (for a valid name) a memo hit.
    assert _outcome(normalize_name, name) == expected
    assert _outcome(normalize_name, name) == expected


@pytest.mark.parametrize("name", ["", " ", ".", " . ", "\t\n"])
def test_raises_on_empty_names(fresh_memo, name):
    with pytest.raises(ValueError):
        normalize_name(name)
    assert name not in fresh_memo


def test_normal_input_is_returned_and_stored_as_itself(fresh_memo):
    name = "".join(["www.", "example", ".com"])
    assert normalize_name(name) is name
    (key, value), = fresh_memo.items()
    assert key is name and value is name
    # A later equal string is answered with the stored object.
    again = "".join(["www.example", ".com"])
    assert again is not name
    assert normalize_name(again) is name


def test_other_inputs_map_to_their_normal_form(fresh_memo):
    assert normalize_name("WWW.Example.COM.") == "www.example.com"
    assert fresh_memo == {"WWW.Example.COM.": "www.example.com"}


def test_clears_at_its_cap(fresh_memo, monkeypatch):
    monkeypatch.setattr(records, "_NORMALIZED_MAX", 3)
    for i in range(3):
        normalize_name(f"host{i}.example.com")
    assert len(fresh_memo) == 3
    assert normalize_name("HOST3.example.com") == "host3.example.com"
    assert fresh_memo == {"HOST3.example.com": "host3.example.com"}
