import random
from dataclasses import asdict

import pytest
from hypothesis import given

import oracles as o
from conftest import failing_laws, homogeneous_relations, pack, relations, unpack
from relalg import (
    Carrier,
    classify,
    complement,
    compose,
    converse,
    difunctional_characterizations,
    enumerate_pers,
    enumerate_relations,
    identity,
    intersect,
    is_bijection,
    is_core_relation,
    is_coreflexive,
    is_difunctional,
    is_functional,
    is_injective,
    is_per,
    is_rectangle,
    is_square,
    ldom,
    per_characterizations,
    per_ldom,
    per_rdom,
    rdom,
    top,
)
from relalg.rel import _compose_memo, relation_at


def _all(na, nb, src="A", dst="B"):
    return list(enumerate_relations(Carrier(src, na), Carrier(dst, nb)))


# -- the four domain operators against the oracle -------------------------------------


@pytest.mark.parametrize("na,nb", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_domain_operators_match_oracle(na, nb):
    for r in _all(na, nb):
        ro = unpack(r)
        assert unpack(ldom(r)) == o.oldom(ro)
        assert unpack(rdom(r)) == o.ordom(ro)
        assert unpack(per_ldom(r)) == o.operldom(ro, na)
        assert unpack(per_rdom(r)) == o.operrdom(ro, nb)


@given(relations())
def test_per_domains_are_pers_and_least(r):
    lpd, rpd = per_ldom(r), per_rdom(r)
    assert o.ois_per(unpack(lpd)) and o.ois_per(unpack(rpd))
    assert compose(lpd, r) == r
    assert compose(r, rpd) == r


# -- predicates ------------------------------------------------------------------------


def _assert_predicates_match_oracle(r):
    ro, na, nb = unpack(r), r.src.size, r.dst.size
    assert is_functional(r) == o.ois_functional(ro), r
    assert is_injective(r) == o.ois_injective(ro), r
    assert is_difunctional(r) == o.ois_difunctional(ro), r
    assert is_rectangle(r) == o.ois_rectangle(ro, na, nb), r
    assert is_bijection(r) == (o.ois_functional(ro) and o.ois_injective(ro)), r
    if r.src == r.dst:
        assert is_per(r) == o.ois_per(ro), r
        assert is_square(r) == o.ois_square(ro, na), r
    else:
        assert not is_per(r) and not is_square(r), r


def test_predicates_match_oracle_exhaustively():
    # every shape up to 3x3, empty carriers included; square shapes twice,
    # heterogeneous (A~B) and homogeneous (A~A)
    for na in range(4):
        for nb in range(4):
            rels = _all(na, nb) + (_all(na, nb, dst="A") if na == nb else [])
            for r in rels:
                _assert_predicates_match_oracle(r)
    # and a seeded sample of 4x4 relations, read both ways
    a, b = Carrier("A", 4), Carrier("B", 4)
    rng = random.Random(4)
    for _ in range(2000):
        code = rng.getrandbits(16)
        _assert_predicates_match_oracle(relation_at(a, b, code))
        _assert_predicates_match_oracle(relation_at(a, a, code))


def test_coreflexive_predicate_needs_matching_carriers():
    for r in _all(3, 3, dst="A"):
        assert is_coreflexive(r) == o.ois_coreflexive(unpack(r))
    # a heterogeneous relation is never coreflexive, not even the empty one
    assert not is_coreflexive(pack(3, 3, []))


def test_per_predicate_matches_oracle():
    for r in _all(3, 3, dst="A"):
        assert is_per(r) == o.ois_per(unpack(r))


def test_functional_follows_composition_order():
    # one source claiming two targets is fine; two sources sharing a target is not
    assert is_functional(pack(2, 2, [(0, 0), (0, 1)]))
    assert not is_functional(pack(2, 2, [(0, 0), (1, 0)]))
    assert is_injective(pack(2, 2, [(0, 0), (1, 0)]))
    assert not is_injective(pack(2, 2, [(0, 0), (0, 1)]))


def test_square_and_core_relation():
    sq = pack(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], src="A", dst="A")
    assert is_square(sq)
    assert not is_square(pack(2, 2, [(0, 1)], src="A", dst="A"))
    bij = pack(2, 2, [(0, 1), (1, 0)])
    assert is_core_relation(bij)
    # a full block has a non-trivial row class, so it is compressible
    assert not is_core_relation(pack(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]))


def test_is_square_false_for_heterogeneous():
    assert not is_square(pack(2, 3, []))
    assert not is_square(pack(2, 3, [(0, 0)]))


# -- characterization bundles -------------------------------------------------------------


@given(homogeneous_relations(max_size=3))
def test_per_characterizations_agree(q):
    chars = per_characterizations(q)
    assert set(chars) == {
        "symmetric and transitive",
        "R = R°∘R",
        "R = R≺",
        "R = R≻",
    }
    assert len(set(chars.values())) == 1
    assert chars["symmetric and transitive"] == is_per(q)


def test_per_characterizations_reject_heterogeneous():
    with pytest.raises(ValueError):
        per_characterizations(pack(2, 3, []))


@given(relations(max_size=3))
def test_difunctional_characterizations_agree(r):
    chars = difunctional_characterizations(r)
    assert len(chars) == 7
    assert len(set(chars.values())) == 1
    assert chars["R∘R°∘R ⊆ R"] == is_difunctional(r)


# -- classify --------------------------------------------------------------------------


def test_classify_block(block):
    rep = classify(block)
    assert rep.difunctional and not rep.functional and not rep.per
    assert not rep.coreflexive and not rep.rectangle


def test_classify_identity():
    rep = classify(identity(Carrier("A", 2)))
    assert rep.coreflexive and rep.per and rep.bijection and rep.core_relation


@given(relations(max_size=3))
def test_classify_flags_cohere(r):
    rep = classify(r)
    assert rep.bijection == (rep.functional and rep.injective)
    if rep.square:
        assert rep.rectangle


def _literal_flags(r):
    """The nine flags classify reports, each evaluated by its formula as written, point-free."""
    rc, homogeneous = converse(r), r.src == r.dst
    rrc, rcr = compose(r, rc), compose(rc, r)
    left = intersect(identity(r.src), rrc)  # R< = 𝕀 ∩ R∘R°
    right = intersect(identity(r.dst), rcr)  # R> = 𝕀 ∩ R°∘R
    over = complement(compose(complement(r), rc))  # R/R = ¬(¬R∘R°)
    under = complement(compose(rc, complement(r)))  # R\R = ¬(R°∘¬R)
    per_left = compose(intersect(over, converse(over)), left)  # R≺ = (R//R)∘R<
    per_right = compose(right, intersect(under, converse(under)))  # R≻ = R>∘(R\\R)
    functional = rrc <= identity(r.src)  # R∘R° ⊆ 𝕀
    injective = rcr <= identity(r.dst)  # R°∘R ⊆ 𝕀
    rectangle = r == compose(compose(r, top(r.dst, r.src)), r)  # R = R∘⊤∘R
    return {
        "coreflexive": homogeneous and r <= identity(r.src),
        "functional": functional,
        "injective": injective,
        "bijection": functional and injective,
        "per": homogeneous and r == rc and compose(r, r) <= r,
        "difunctional": compose(rrc, r) <= r,
        "rectangle": rectangle,
        "square": homogeneous and rectangle and r == rc,
        "core_relation": left == per_left and right == per_right,
    }


def _small_and_sampled():
    """Every relation of every shape up to 3x3, square shapes on one carrier
    and on two, then a seeded sample of 4x4 ones on one carrier."""
    for na in range(4):
        for nb in range(4):
            yield from _all(na, nb)
            if na == nb:
                yield from _all(na, nb, dst="A")
    a = Carrier("A", 4)
    for code in random.Random(31).sample(range(1 << 16), 256):
        yield relation_at(a, a, code)


def test_classify_flags_are_their_formulas():
    # the flags are decided on rows and codes; each must still be its
    # point-free formula
    for r in _small_and_sampled():
        assert asdict(classify(r)) == _literal_flags(r), r


def test_classify_makes_no_composition():
    before = _compose_memo.cache_info()
    for r in _small_and_sampled():
        classify(r)
    after = _compose_memo.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# -- enumeration of pers -------------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 2), (2, 5), (3, 15), (4, 52), (5, 203)])
def test_enumerate_pers_counts(n, expected):
    # Bell(n+1): sum over subsets of the carrier of the number of partitions of the subset
    pers = list(enumerate_pers(Carrier("A", n)))
    assert len(pers) == expected
    assert len(set(pers)) == expected
    assert all(is_per(p) for p in pers)
    # in code order, as every pool of the law runner is
    assert all(p.code < q.code for p, q in zip(pers, pers[1:]))


def test_enumerate_pers_matches_filter():
    # the symmetric relations that the oracle finds transitive
    for n in range(6):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        halves = ({c for k, c in enumerate(cells) if mask >> k & 1} for mask in range(1 << len(cells)))
        symmetric = (frozenset(half | {(j, i) for i, j in half}) for half in halves)
        brute = {pack(n, n, r, dst="A") for r in symmetric if o.ois_per(r)}
        assert set(enumerate_pers(Carrier("A", n))) == brute


# -- the domain laws of the registry on one instance ---------------------------------------


@given(relations(max_size=3))
def test_domain_law_suite_all_true(r):
    # S = R° on the right of R and the coreflexive p = R> over R's target
    s, p = converse(r), rdom(r)
    assert not failing_laws(
        ("domain-absorption", "domain-converse", "domain-empty", "top-rdom",
         "per-domain-absorption", "per-domain-alt", "per-domain-domains",
         "per-domains-are-pers"),
        r,
    )
    assert not failing_laws(("rdom-least", "rdom-top-char"), r, p)
    assert not failing_laws(("rdom-compose",), r, s)
