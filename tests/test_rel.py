import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from conftest import failing_laws, homogeneous_relations, pack, relations, run_python, unpack
from relalg import (
    Carrier,
    CarrierMismatch,
    EnumerationLimit,
    Relation,
    RelationFormatError,
    bottom,
    cache_clear,
    complement,
    compose,
    converse,
    core_of,
    coreflexive,
    enumerate_coreflexives,
    enumerate_relations,
    equals,
    from_dict,
    from_pairs,
    identity,
    intersect,
    is_subset,
    ldom,
    left_residual,
    per_ldom,
    per_rdom,
    rdom,
    relation_index,
    right_residual,
    sym_left_div,
    sym_right_div,
    to_dict,
    top,
    union,
)
from relalg import domains, factors, rel
from relalg.rel import relation_at, relation_code


# -- carriers ---------------------------------------------------------------------


def test_carrier_equality_is_nominal():
    assert Carrier("A", 3) == Carrier("A", 3)
    assert Carrier("A", 3) != Carrier("B", 3)
    assert Carrier("A", 3) != Carrier("A", 2)
    assert hash(Carrier("A", 3)) == hash(Carrier("A", 3))


def test_carrier_default_labels():
    assert Carrier("A", 3).labels == ("0", "1", "2")


def test_carrier_custom_labels():
    c = Carrier("People", 2, labels=("ann", "bob"))
    assert c.labels == ("ann", "bob")


def test_carriers_with_the_default_labels_are_one_object():
    # given explicitly or left out, by a pickle or a deep copy: one interned carrier
    c = Carrier("A", 3)
    assert Carrier("A", 3, ["0", "1", "2"]) is c
    assert pickle.loads(pickle.dumps(c)) is c
    assert copy.deepcopy(c) is c
    labelled = Carrier("A", 3, ["x", "y", "z"])
    assert labelled is not c and labelled.labels == ("x", "y", "z")
    assert pickle.loads(pickle.dumps(labelled)) is labelled and copy.deepcopy(labelled) is labelled


def test_carrier_rejects_wrong_label_count():
    with pytest.raises(ValueError):
        Carrier("A", 2, labels=("x",))


def test_carrier_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Carrier("A", 2, labels=("x", "x"))


def test_carrier_rejects_negative_size():
    with pytest.raises(ValueError):
        Carrier("A", -1)


@pytest.mark.parametrize("size,labels,message", [
    (True, None, "size must be a non-negative int, got True"),
    (False, None, "size must be a non-negative int, got False"),
    (2, [1, 2], "labels must be strings, got (1, 2)"),
    (2, ["x", None], "labels must be strings, got ('x', None)"),
    (1, [b"x"], "labels must be strings, got (b'x',)"),
])
def test_carrier_rejects_bool_sizes_and_labels_that_are_not_strings(size, labels, message):
    with pytest.raises(ValueError) as err:
        Carrier("A", size, labels)
    assert str(err.value) == f"carrier 'A': {message}"


# -- construction and access --------------------------------------------------------


def test_from_pairs_and_pairs_round_trip():
    r = pack(2, 3, [(0, 2), (1, 0)])
    assert list(r.pairs()) == [(0, 2), (1, 0)]
    assert (0, 2) in r
    assert (0, 0) not in r
    assert r.bit_count() == 2
    assert bool(r)


def test_from_pairs_rejects_out_of_range():
    a, b = Carrier("A", 2), Carrier("B", 2)
    with pytest.raises(RelationFormatError):
        from_pairs(a, b, [(2, 0)])
    with pytest.raises(RelationFormatError):
        from_pairs(a, b, [(0, -1)])


def test_bottom_is_falsy():
    assert not bottom(Carrier("A", 2), Carrier("B", 2))


def test_coreflexive_constructor():
    p = coreflexive(Carrier("A", 3), [0, 2])
    assert unpack(p) == {(0, 0), (2, 2)}
    with pytest.raises(ValueError):
        coreflexive(Carrier("A", 3), [3])


@pytest.mark.parametrize("build, error, message", [
    (lambda a: relation_at(a, a, 1.0), ValueError, "code 1.0 out of range for a 2x2 relation, or not an int"),
    (lambda a: relation_at(a, a, True), ValueError, "code True out of range for a 2x2 relation, or not an int"),
    (lambda a: coreflexive(a, [True]), ValueError, "member True is not an element of carrier 'A' of size 2"),
    (lambda a: coreflexive(a, [1.5]), ValueError, "member 1.5 is not an element of carrier 'A' of size 2"),
    (lambda a: from_pairs(a, a, [(True, False)]), RelationFormatError,
     "pairs[0]: source index True is not an element of carrier 'A' of size 2"),
], ids=["relation_at-float", "relation_at-bool", "coreflexive-bool", "coreflexive-float", "from_pairs-bool"])
def test_constructors_refuse_a_value_that_is_not_an_int(build, error, message):
    # a bool is an int to Python, and a float may equal one; neither is an element or a code
    with pytest.raises(error) as err:
        build(Carrier("A", 2))
    assert str(err.value) == message


def test_constants():
    a, b = Carrier("A", 2), Carrier("B", 3)
    assert unpack(top(a, b)) == o.otop(2, 3)
    assert unpack(identity(a)) == o.oid(2)
    assert unpack(bottom(a, b)) == frozenset()


# -- operators against the oracle ----------------------------------------------------


def _all_relations(na, nb, src="A", dst="B"):
    return list(enumerate_relations(Carrier(src, na), Carrier(dst, nb)))


def test_compose_matches_oracle_exhaustively_at_size_2():
    for r in _all_relations(2, 2):
        for s in _all_relations(2, 2, src="B", dst="C"):
            assert unpack(compose(r, s)) == o.ocompose(unpack(r), unpack(s))


@settings(max_examples=150)
@given(relations(max_size=4), st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_compose_matches_oracle_sampled(r, bits):
    nb, nc = r.dst.size, 4
    pairs = [(k // nc, k % nc) for k in range(nb * nc) if (bits >> k) & 1]
    s = pack(nb, nc, pairs, src="B", dst="C")
    assert unpack(compose(r, s)) == o.ocompose(unpack(r), unpack(s))


@given(relations())
def test_converse_matches_oracle(r):
    assert unpack(converse(r)) == o.oconverse(unpack(r))
    assert converse(r).src == r.dst and converse(r).dst == r.src


@given(relations(), st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_lattice_ops_match_oracle(r, bits):
    na, nb = r.src.size, r.dst.size
    pairs = [(k // nb, k % nb) for k in range(na * nb) if (bits >> k) & 1]
    s = pack(na, nb, pairs)
    assert unpack(union(r, s)) == unpack(r) | unpack(s)
    assert unpack(intersect(r, s)) == unpack(r) & unpack(s)
    assert is_subset(r, s) == (unpack(r) <= unpack(s))
    assert unpack(complement(r)) == o.otop(na, nb) - unpack(r)
    assert equals(r, s) == (unpack(r) == unpack(s))


def test_operator_sugar():
    r = pack(2, 2, [(0, 0), (0, 1)])
    s = pack(2, 2, [(0, 1)], src="B", dst="C")
    assert unpack(r @ s) == {(0, 1)}
    assert unpack(r & pack(2, 2, [(0, 0)])) == {(0, 0)}
    assert unpack(r | pack(2, 2, [(1, 1)])) == {(0, 0), (0, 1), (1, 1)}
    assert unpack(~r) == {(1, 0), (1, 1)}
    assert pack(2, 2, [(0, 0)]) <= r
    assert pack(2, 2, [(0, 0)]) < r
    assert r >= r and not (r > r)
    assert unpack(r.conv) == {(0, 0), (1, 0)}


def test_mismatched_carriers_raise():
    r = pack(2, 2, [])
    s = pack(3, 3, [], src="C", dst="D")
    with pytest.raises(CarrierMismatch):
        compose(r, s)
    with pytest.raises(CarrierMismatch):
        union(r, s)
    with pytest.raises(CarrierMismatch):
        is_subset(r, s)


# -- dedekind and cone ----------------------------------------------------------------


@settings(max_examples=100)
@given(st.data())
def test_dedekind_check_matches_oracle(data):
    na = data.draw(st.integers(min_value=1, max_value=3))
    nb = data.draw(st.integers(min_value=1, max_value=3))
    nc = data.draw(st.integers(min_value=1, max_value=3))
    def draw_rel(n, m, src, dst):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (n * m)) - 1))
        return pack(n, m, [(k // m, k % m) for k in range(n * m) if (bits >> k) & 1], src=src, dst=dst)

    r = draw_rel(na, nb, "A", "B")
    s = draw_rel(nb, nc, "B", "C")
    t = draw_rel(na, nc, "A", "C")
    ro, so, to_ = unpack(r), unpack(s), unpack(t)
    lhs = o.ocompose(ro, so) & to_
    rhs1 = o.ocompose(ro, so & o.ocompose(o.oconverse(ro), to_))
    rhs2 = o.ocompose(ro & o.ocompose(to_, o.oconverse(so)), so)
    oracle = [law_id for law_id, holds in (("dedekind-modular", lhs <= rhs1), ("dedekind-modular-dual", lhs <= rhs2))
              if not holds]
    assert failing_laws(("dedekind-modular", "dedekind-modular-dual"), r, s, t) == oracle


def test_cone_check():
    for r in (pack(2, 3, [(1, 2)]), pack(2, 3, []), top(Carrier("A", 2), Carrier("B", 2))):
        assert failing_laws(("cone-rule",), r) == [], r


# -- enumeration -----------------------------------------------------------------------


def test_enumerate_relations_counts():
    assert len(_all_relations(2, 2)) == 16
    assert len(_all_relations(3, 3)) == 512
    assert len(list(enumerate_coreflexives(Carrier("A", 3)))) == 8


def test_enumeration_order_matches_relation_code():
    a, b = Carrier("A", 2), Carrier("B", 2)
    for code, r in enumerate(enumerate_relations(a, b)):
        assert relation_code(r) == code
        assert relation_at(a, b, code) == r


def test_relation_constructor_raises_on_malformed_input():
    a, b = Carrier("A", 2), Carrier("B", 2)
    assert Relation(a, b, [0b01, 0b10]) == relation_at(a, b, 0b1001)
    with pytest.raises(ValueError, match="rows"):
        Relation(a, b, [1])
    with pytest.raises(ValueError, match="does not fit"):
        Relation(a, b, [0b100, 0])
    with pytest.raises(ValueError, match="does not fit"):
        Relation(a, b, [-1, 0])
    with pytest.raises(ValueError, match="out of range"):
        relation_at(a, b, 16)
    with pytest.raises(ValueError, match="out of range"):
        relation_at(a, b, -1)


def test_constructor_checks_hold_under_python_O():
    script = (
        "from relalg import Carrier, Relation\n"
        "from relalg.rel import relation_at\n"
        "assert False, 'asserts must be off'\n"
        "a = Carrier('A', 2)\n"
        "for bad in (lambda: Relation(a, a, [1]), lambda: Relation(a, a, [4, 0]),\n"
        "            lambda: relation_at(a, a, 16)):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted malformed input')\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr


def test_enumeration_refuses_large_carriers():
    with pytest.raises(EnumerationLimit):
        list(enumerate_relations(Carrier("A", 5), Carrier("B", 5)))
    assert len(_all_relations(2, 2)) == 16  # small ones still fine


# -- serialization -----------------------------------------------------------------------


@given(relations())
def test_json_round_trip(r):
    again = from_dict(json.loads(json.dumps(to_dict(r))))
    assert again == r
    assert again.src.labels == r.src.labels


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda d: d.pop("src"), "src"),
        (lambda d: d["src"].update(size="two"), "src.size"),
        pytest.param(lambda d: d["src"].update(size=257, labels=None), "src.size", id="src-257"),
        pytest.param(lambda d: d["dst"].update(size=257, labels=None), "dst.size", id="dst-257"),
        (lambda d: d["src"].pop("name"), "src"),
        (lambda d: d.update(pairs=[[0]]), "pairs[0]"),
        (lambda d: d.update(pairs=[[0, 9]]), "pairs[0]"),
        (lambda d: d.update(pairs="nope"), "pairs"),
        (lambda d: d["dst"].update(labels=["x", 3]), "dst.labels"),
        (lambda d: d["dst"].update(labels=["x"]), "dst"),
    ],
)
def test_from_dict_reports_field_paths(mangle, field):
    d = to_dict(pack(2, 2, [(0, 1)]))
    mangle(d)
    with pytest.raises(RelationFormatError) as exc:
        from_dict(d)
    assert exc.value.field == field


def test_from_dict_accepts_the_largest_carriers():
    big = {"name": "A", "size": 256}
    r = from_dict({"src": big, "dst": dict(big, name="B"), "pairs": [[255, 0]]})
    assert (r.src.size, r.dst.size, list(r.pairs())) == (256, 256, [(255, 0)])


def test_from_dict_rejects_non_mapping():
    with pytest.raises(RelationFormatError):
        from_dict([1, 2, 3])


# -- cache plumbing ----------------------------------------------------------------------


def test_cache_clear_keeps_results_correct():
    r = pack(2, 2, [(0, 1), (1, 0)], src="A", dst="A")
    before = compose(r, r)
    cache_clear()
    assert compose(r, r) == before


def test_cache_clear_empties_every_memoized_operation():
    r = pack(2, 2, [(0, 1), (1, 1)], src="A", dst="A")
    ops = {compose: (r, r), converse: (r,), complement: (r,), left_residual: (r, r),
           right_residual: (r, r), sym_left_div: (r, r), sym_right_div: (r, r),
           ldom: (r,), rdom: (r,), per_ldom: (r,), per_rdom: (r,)}
    cached = {getattr(m, name) for m in (rel, factors, domains) for name in dir(m)
              if not name.startswith("_") and hasattr(getattr(m, name), "cache_info")}
    assert cached == set(ops)  # no memoized public operation is left out
    for fn, args in ops.items():
        fn(*args)
    assert all(fn.cache_info().currsize for fn in ops)
    cache_clear()
    assert [fn.__name__ for fn in ops if fn.cache_info().currsize] == []


@given(homogeneous_relations(max_size=3))
def test_compose_is_cached_by_value_not_identity(r):
    twin = pack(r.src.size, r.dst.size, list(r.pairs()), src=r.src.name, dst=r.dst.name)
    assert compose(r, twin) == compose(r, r)


def test_cached_results_carry_the_callers_labels():
    plain, labelled = Carrier("A", 2), Carrier("A", 2, labels=("x", "y"))
    r = from_pairs(plain, plain, [(0, 1), (1, 1)])
    s = from_pairs(labelled, labelled, [(0, 1), (1, 1)])
    compose(r, r)
    relation_index(r)
    plain_dec = core_of(r, "quotient")
    for out in (compose(s, s), relation_index(s).index):
        assert out.src is labelled and out.dst is labelled
        d = to_dict(out)
        assert d["src"]["labels"] == d["dst"]["labels"] == ["x", "y"]
    dec = core_of(s, "quotient")
    for leg, plain_leg in ((dec.lam, plain_dec.lam), (dec.rho, plain_dec.rho)):
        assert leg.dst is labelled and plain_leg.dst is plain
        assert leg.src == plain_leg.src and leg.code == plain_leg.code
    # R≺ has the one class {0,1}, R≻ the one class {1}
    assert [dec.lam.src.labels, plain_dec.lam.src.labels] == [("{x,y}",), ("{0,1}",)]
    assert [dec.rho.src.labels, plain_dec.rho.src.labels] == [("{y}",), ("{1}",)]


def _on(src: Carrier, dst: Carrier) -> Relation:
    """A fixed relation for each matrix size, whatever the carriers' names."""
    return relation_at(src, dst, {4: 0b0110, 6: 0b100011}[src.size * dst.size])


def test_memo_keys_hold_codes_and_sizes_but_no_carrier_names():
    cache_clear()
    a, b, c = Carrier("A", 2), Carrier("B", 3), Carrier("C", 2)
    x, y, z = Carrier("X", 2), Carrier("Y", 3), Carrier("Z", 2)
    first = compose(_on(a, b), _on(b, c))
    hits = compose.cache_info().hits
    second = compose(_on(x, y), _on(y, z))
    assert compose.cache_info().hits == hits + 1
    assert (second.src, second.dst, second.code) == (x, z, first.code)
    with pytest.raises(CarrierMismatch):
        compose(_on(a, b), _on(y, z))
    # (r's carriers, s's carriers, s's carriers that break the shared one)
    shared_source = ((a, b), (a, c), (x, c))
    shared_target = ((a, c), (b, c), (b, z))
    cases = {left_residual: shared_source, sym_right_div: shared_source,
             right_residual: shared_target, sym_left_div: shared_target}
    for op, (rc, sc, bad) in cases.items():
        op(_on(*rc), _on(*sc))
        with pytest.raises(CarrierMismatch):
            op(_on(*rc), _on(*bad))


# -- the int-code kernel against the oracle -------------------------------------------

SMALL = [(n, m) for n in range(3) for m in range(3)]


def test_binary_ops_match_oracle_on_every_pair_up_to_size_2():
    for na, nb in SMALL:
        rs = _all_relations(na, nb)
        for r in rs:
            for s in rs:
                ro, so = unpack(r), unpack(s)
                assert unpack(union(r, s)) == ro | so
                assert unpack(intersect(r, s)) == ro & so
                assert is_subset(r, s) == (ro <= so)
                assert equals(r, s) == (r == s) == (ro == so)
            for nc in range(3):
                for s in _all_relations(nb, nc, src="B", dst="C"):
                    assert unpack(compose(r, s)) == o.ocompose(unpack(r), unpack(s))
                for s in _all_relations(na, nc, dst="C"):
                    got = left_residual(r, s)
                    assert unpack(got) == o.oleft_residual(unpack(r), unpack(s), na, nb, nc)
                    assert (got.src, got.dst) == (r.dst, s.dst)
                for s in _all_relations(nc, nb, src="C"):
                    got = right_residual(r, s)
                    assert unpack(got) == o.oright_residual(unpack(r), unpack(s), na, nc, nb)
                    assert (got.src, got.dst) == (r.src, s.src)


def _unary_ops_match_oracle(r):
    na, nb = r.src.size, r.dst.size
    ro = unpack(r)
    assert unpack(converse(r)) == o.oconverse(ro)
    assert unpack(complement(r)) == o.otop(na, nb) - ro
    assert unpack(ldom(r)) == o.oldom(ro)
    assert unpack(rdom(r)) == o.ordom(ro)
    assert unpack(per_ldom(r)) == o.operldom(ro, na)
    assert unpack(per_rdom(r)) == o.operrdom(ro, nb)


def test_unary_ops_match_oracle_on_every_relation_up_to_size_2():
    for na, nb in SMALL:
        for r in _all_relations(na, nb):
            _unary_ops_match_oracle(r)


def test_every_3x3_relation_round_trips_and_matches_oracle():
    a = Carrier("A", 3)
    for code, r in enumerate(enumerate_relations(a, a)):
        _unary_ops_match_oracle(r)
        assert r.rows == tuple(sum(1 << j for i2, j in r.pairs() if i2 == i) for i in range(3))
        assert relation_code(r) == code
        assert relation_at(a, a, code) == r == Relation(a, a, r.rows)


def test_labels_never_split_equal_relations():
    plain, named = Carrier("A", 2), Carrier("A", 2, labels=("x", "y"))
    assert plain is Carrier("A", 2) and plain is not named
    for code in range(16):
        r, s = relation_at(plain, plain, code), relation_at(named, named, code)
        assert r == s and hash(r) == hash(s)
        assert compose(r, s) == compose(r, r)
    assert relation_at(plain, plain, 5) != relation_at(Carrier("A", 2), Carrier("B", 2), 5)
