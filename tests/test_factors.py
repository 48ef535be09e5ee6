from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from conftest import pack, unpack
from relalg import (
    Carrier,
    CarrierMismatch,
    compose,
    converse,
    enumerate_relations,
    identity,
    is_subset,
    left_residual,
    right_residual,
    sym_left_div,
    sym_right_div,
)


def _all(na, nb, src="A", dst="B"):
    return list(enumerate_relations(Carrier(src, na), Carrier(dst, nb)))


def test_left_residual_matches_oracle_exhaustively():
    for r in _all(2, 2):
        for s in _all(2, 2, dst="C"):
            assert unpack(left_residual(r, s)) == o.oleft_residual(unpack(r), unpack(s), 2, 2, 2)


def test_right_residual_matches_oracle_exhaustively():
    for r in _all(2, 2, dst="C"):
        for s in _all(2, 2, src="B", dst="C"):
            assert unpack(right_residual(r, s)) == o.oright_residual(unpack(r), unpack(s), 2, 2, 2)


@settings(max_examples=150)
@given(st.data())
def test_residuals_match_oracle_sampled(data):
    na = data.draw(st.integers(min_value=1, max_value=4))
    nb = data.draw(st.integers(min_value=1, max_value=4))
    nc = data.draw(st.integers(min_value=1, max_value=4))

    def draw_rel(n, m, src, dst):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (n * m)) - 1))
        return pack(n, m, [(k // m, k % m) for k in range(n * m) if (bits >> k) & 1], src=src, dst=dst)

    r = draw_rel(na, nb, "A", "B")
    s = draw_rel(na, nc, "A", "C")
    assert unpack(left_residual(r, s)) == o.oleft_residual(unpack(r), unpack(s), na, nb, nc)
    t = draw_rel(na, nc, "A", "C")
    u = draw_rel(nb, nc, "B", "C")
    assert unpack(right_residual(t, u)) == o.oright_residual(unpack(t), unpack(u), na, nb, nc)


def test_left_residual_is_largest_solution():
    r = pack(2, 2, [(0, 0), (1, 1)])
    s = pack(2, 2, [(0, 0)], dst="C")
    best = left_residual(r, s)
    assert is_subset(compose(r, best), s)
    for t in _all(2, 2, src="B", dst="C"):
        if is_subset(compose(r, t), s):
            assert is_subset(t, best)


def test_sym_right_div_relates_equal_columns():
    for na, nb in product(range(1, 4), repeat=2):
        for r in _all(na, nb):
            cols = {b: frozenset(a for a, b2 in unpack(r) if b2 == b) for b in range(nb)}
            expected = {(b, b2) for b in range(nb) for b2 in range(nb) if cols[b] == cols[b2]}
            assert unpack(sym_right_div(r, r)) == expected, unpack(r)


def test_sym_left_div_relates_equal_rows(block):
    d = sym_left_div(block, block)
    rows = {a: frozenset(b for a2, b in unpack(block) if a2 == a) for a in range(3)}
    expected = {(a, a2) for a in range(3) for a2 in range(3) if rows[a] == rows[a2]}
    assert unpack(d) == expected


def test_sym_divisions_of_identity():
    i = identity(Carrier("A", 3))
    assert sym_right_div(i, i) == i
    assert sym_left_div(i, i) == i


def test_residual_types():
    r = pack(2, 3, [(0, 0)])
    s = pack(2, 4, [(0, 0)], dst="C")
    out = left_residual(r, s)
    assert out.src == Carrier("B", 3) and out.dst == Carrier("C", 4)
    assert converse(out).src == Carrier("C", 4)


def test_residual_carrier_mismatch():
    # each operation names itself, though two pairs of them share their check
    r = pack(2, 3, [(0, 0)])
    s = pack(3, 2, [(0, 0)], src="X", dst="C")
    for op, message in [
        (left_residual, "left_residual: source carriers disagree (A vs X)"),
        (right_residual, "right_residual: target carriers disagree (B vs C)"),
        (sym_right_div, "sym_right_div: source carriers disagree (A vs X)"),
        (sym_left_div, "sym_left_div: target carriers disagree (B vs C)"),
    ]:
        with pytest.raises(CarrierMismatch) as err:
            op(r, s)
        assert str(err.value) == message
