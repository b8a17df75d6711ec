"""Tests for messages, bit accounting and the EMPTY sentinel."""

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mcb import EMPTY, Message, log2ceil, scalar_bits


class TestMessage:
    def test_fields_accessible(self):
        m = Message("kind", 1, 2.5, "x")
        assert m.kind == "kind"
        assert m.fields == (1, 2.5, "x")
        assert m[0] == 1
        assert len(m) == 3
        assert list(m) == [1, 2.5, "x"]

    def test_equality_and_hash(self):
        assert Message("a", 1) == Message("a", 1)
        assert Message("a", 1) != Message("a", 2)
        assert Message("a", 1) != Message("b", 1)
        assert hash(Message("a", 1)) == hash(Message("a", 1))

    def test_not_equal_to_other_types(self):
        assert Message("a", 1) != (1,)
        assert Message("a") != EMPTY

    def test_repr(self):
        assert "Message" in repr(Message("x", 1))


class TestBitAccounting:
    def test_int_bits_grow_logarithmically(self):
        assert scalar_bits(1) < scalar_bits(1 << 20) < scalar_bits(1 << 40)

    def test_small_values(self):
        assert scalar_bits(0) >= 1
        assert scalar_bits(None) == 1
        assert scalar_bits(True) == 1

    def test_float_is_fixed_width(self):
        assert scalar_bits(3.14) == 64

    def test_string_bits(self):
        assert scalar_bits("ab") == 16

    def test_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            scalar_bits([1, 2])

    def test_message_bit_size_includes_kind(self):
        assert Message("k").bit_size() == 8
        assert Message("k", 1).bit_size() > 8

    def test_negative_int(self):
        assert scalar_bits(-5) == scalar_bits(5)


class _Int(int):
    pass


class _Flag(enum.IntEnum):
    ON = 1 << 40


#: Every scalar kind a field may hold, with the int edges weighted in:
#: zero, negatives, the vector engine's ±2^62 exactness limit and
#: values beyond int64.
_FIELDS = st.one_of(
    st.integers(),
    st.sampled_from([0, -1, 1, 2**62 - 1, 2**62, -(2**62), 2**63, -(2**63),
                     2**64 + 1, -(2**200)]),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.integers().map(_Int),
    st.just(_Flag.ON),
)


class TestBitSizeProperty:
    @given(st.text(max_size=4), st.lists(_FIELDS, max_size=5))
    def test_bit_size_is_kind_plus_scalar_bits(self, kind, fields):
        msg = Message(kind, *fields)
        want = 8 + sum(scalar_bits(f) for f in fields)
        assert msg.bit_size() == want
        assert msg.bit_size() == want  # the cached second call


class TestEmpty:
    def test_singleton(self):
        from repro.mcb.message import _Empty

        assert _Empty() is EMPTY

    def test_falsy(self):
        assert not EMPTY

    def test_repr(self):
        assert repr(EMPTY) == "EMPTY"


class TestLog2Ceil:
    def test_exact_powers(self):
        assert log2ceil(1) == 0
        assert log2ceil(2) == 1
        assert log2ceil(8) == 3

    def test_between_powers(self):
        assert log2ceil(5) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log2ceil(0)
