import gc

import pytest
from hypothesis import given, settings

import oracles as o
from conftest import pack, relations, unpack
from relalg import (
    Carrier,
    CarrierMismatch,
    IsoWitness,
    SearchSpaceExceeded,
    compose,
    converse,
    enumerate_relations,
    find_isomorphism,
    identity,
    isomorph,
    ldom,
    rdom,
    top,
    verify_witness,
)


def test_self_isomorphism_uses_own_domains(block):
    w = find_isomorphism(block, block)
    assert w is not None
    assert w.phi == ldom(block) and w.psi == rdom(block)
    assert verify_witness(block, block, w)


def test_relabelled_copy_is_isomorphic(block):
    # relabel both carriers by the transposition 0<->2 and move to fresh names
    s = pack(3, 3, [(2, 2), (2, 1), (1, 2), (1, 1), (0, 0)], src="C", dst="D")
    w = find_isomorphism(block, s)
    assert w is not None
    assert verify_witness(block, s, w)
    # the singleton row of block is 2 and of s is 0, so phi must pair them
    assert (2, 0) in unpack(w.phi)


def test_a_search_leaves_no_reference_cycle(block):
    # both searches backtrack: the first pair differs and is isomorphic; the
    # second has equal row and column degrees, but its row of degree 2 meets
    # the column of degree 2 in one relation and not in the other
    s = pack(3, 3, [(2, 2), (2, 1), (1, 2), (1, 1), (0, 0)], src="C", dst="D")
    r2 = pack(3, 3, [(0, 0), (0, 1), (1, 0), (2, 2)])
    s2 = pack(3, 3, [(0, 1), (0, 2), (1, 0), (2, 0)], src="C", dst="D")
    gc.collect()
    gc.disable()
    try:
        assert find_isomorphism(block, s) is not None
        assert find_isomorphism(r2, s2) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_different_bit_counts_are_never_isomorphic():
    r = pack(2, 2, [(0, 0)])
    s = pack(2, 2, [(0, 0), (1, 1)], src="C", dst="D")
    assert find_isomorphism(r, s) is None


def test_same_profile_different_shape():
    # both have two pairs and equal domain sizes, but one is a function
    # on two sources and the other fans out of one source
    r = pack(2, 2, [(0, 0), (1, 1)])
    s = pack(2, 2, [(0, 0), (0, 1)], src="C", dst="D")
    assert find_isomorphism(r, s) is None


def test_pairs_that_differ_in_an_invariant_get_none_before_any_column(monkeypatch):
    # the pair count, the domain sizes and the row degrees are read from the
    # code and its rows; only the column check asks the converse memo
    def no_columns(*args):
        raise AssertionError("the columns were built")

    monkeypatch.setattr(isomorph, "_converse_memo", no_columns)
    differing = {
        "pair count": ([(0, 0)], [(0, 0), (1, 1)]),
        "left domain": ([(0, 0), (0, 1)], [(0, 0), (1, 1)]),
        "right domain": ([(0, 0), (1, 0)], [(0, 0), (1, 1)]),
        "row degrees": ([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)], [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)]),
    }
    for name, (r, s) in differing.items():
        assert find_isomorphism(pack(3, 3, r), pack(3, 3, s, src="C", dst="D")) is None, name


SHAPES = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if n * m <= 6]


@pytest.mark.parametrize("left, right", [(a, b) for a in SHAPES for b in SHAPES],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_exhaustive_small_pairs_agree_with_oracle(left, right):
    rels = list(enumerate_relations(Carrier("A", left[0]), Carrier("B", left[1])))
    others = list(enumerate_relations(Carrier("C", right[0]), Carrier("D", right[1])))
    forms = [o.ocanonical(unpack(s)) for s in others]
    for r in rels:
        want = o.ocanonical(unpack(r))
        for s, form in zip(others, forms):
            w = find_isomorphism(r, s)
            assert (w is not None) == (form == want), (r, s)
            if w is not None:
                assert verify_witness(r, s, w)


@settings(max_examples=60, deadline=None)
@given(relations(max_size=3), relations(max_size=3, src="C", dst="D"))
def test_sampled_3x3_agrees_with_oracle(r, s):
    if r.src.size != s.src.size or r.dst.size != s.dst.size:
        return
    w = find_isomorphism(r, s)
    want = o.oisomorphic(unpack(r), unpack(s), r.src.size, r.dst.size)
    assert (w is not None) == want
    if w is not None:
        assert verify_witness(r, s, w)


def test_witness_verification_rejects_wrong_map(block):
    s = pack(3, 3, [(2, 2), (2, 1), (1, 2), (1, 1), (0, 0)], src="C", dst="D")
    # identity maps satisfy the domain equations here but not the transport one
    bogus = IsoWitness(
        pack(3, 3, [(0, 0), (1, 1), (2, 2)], src="A", dst="C"),
        pack(3, 3, [(0, 0), (1, 1), (2, 2)], src="B", dst="D"),
    )
    assert not verify_witness(block, s, bogus)


def _literal_witness(r, s, w):
    phi, psi = w.phi, w.psi
    return (
        compose(phi, converse(phi)) == ldom(r)
        and compose(converse(phi), phi) == ldom(s)
        and compose(psi, converse(psi)) == rdom(r)
        and compose(converse(psi), psi) == rdom(s)
        and r == compose(compose(phi, s), converse(psi))
        and compose(compose(converse(phi), r), psi) == s
    )


def test_verify_witness_matches_the_literal_equations_for_every_map_pair():
    # every φ, ψ on 2x2, not only the witnesses: a verifier that said True
    # more often than the equations do would fail here
    a, b, c, d = (Carrier(name, 2) for name in "ABCD")
    phis = list(enumerate_relations(a, c))
    psis = list(enumerate_relations(b, d))
    verified = 0
    for r in enumerate_relations(a, b):
        for s in enumerate_relations(c, d):
            for phi in phis:
                for psi in psis:
                    w = IsoWitness(phi, psi)
                    got = verify_witness(r, s, w)
                    assert got == _literal_witness(r, s, w), (r, s, phi, psi)
                    verified += got
    assert verified > 0


def test_witness_type_mismatch_raises(block):
    w = IsoWitness(identity(Carrier("A", 3)), identity(Carrier("A", 3)))
    s = pack(3, 3, [(0, 0)], src="C", dst="D")
    with pytest.raises(CarrierMismatch):
        verify_witness(block, s, w)


def test_search_space_guard():
    r = top(Carrier("A", 9), Carrier("B", 9))
    s = top(Carrier("C", 9), Carrier("D", 9))
    with pytest.raises(SearchSpaceExceeded):
        find_isomorphism(r, s)
    # the refusal comes only where a search remains: both domains have 9
    # points, but the pair counts differ
    shifted = pack(9, 9, [(i, i) for i in range(9)] + [(0, 1)], src="C", dst="D")
    assert find_isomorphism(identity(Carrier("A", 9)), shifted) is None
    # the guard is a limit on domain points, not carrier size
    sparse = pack(9, 9, [(0, 0)])
    sparse2 = pack(9, 9, [(4, 7)], src="C", dst="D")
    w = find_isomorphism(sparse, sparse2)
    assert w is not None and verify_witness(sparse, sparse2, w)


def test_empty_relations_are_isomorphic_across_sizes():
    r = pack(2, 3, [])
    s = pack(4, 2, [], src="C", dst="D")
    w = find_isomorphism(r, s)
    assert w is not None
    assert w.phi.bit_count() == 0 and w.psi.bit_count() == 0
    assert verify_witness(r, s, w)
