import random

import pytest
from hypothesis import given, settings

import oracles as o
from conftest import failing_laws, pack, relations, unpack
from relalg import (
    CORE_MODES,
    Carrier,
    CarrierMismatch,
    CoreDecomposition,
    EnumerationLimit,
    cache_clear,
    candidate_indexes,
    complement,
    compose,
    converse,
    core_of,
    enumerate_pers,
    enumerate_relations,
    from_pairs,
    identity,
    intersect,
    is_bijection,
    is_core_relation,
    is_difunctional,
    is_functional,
    ldom,
    per_index,
    per_ldom,
    per_rdom,
    rdom,
    relation_index,
    splitting,
    top,
    verify_index,
)
from relalg.indexcore import _fixed_pick, _members, _per_classes, _quotient_carrier
from relalg.rel import relation_at


def _all(na, nb, src="A", dst="B"):
    return list(enumerate_relations(Carrier(src, na), Carrier(dst, nb)))


# -- per_index --------------------------------------------------------------------


def test_per_index_of_full_per_min_policy():
    p = top(Carrier("A", 2), Carrier("A", 2))
    assert unpack(per_index(p)) == {(0, 0)}


def test_per_index_of_identity():
    i = identity(Carrier("A", 3))
    assert per_index(i) == i


def test_per_index_of_two_block_per():
    p = pack(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], dst="A")
    assert unpack(per_index(p)) == {(0, 0), (2, 2)}
    assert unpack(per_index(p, policy="max")) == {(1, 1), (2, 2)}


def test_per_index_random_policy_is_seeded():
    p = top(Carrier("A", 3), Carrier("A", 3))
    a = per_index(p, policy="random", seed=11)
    assert a == per_index(p, policy="random", seed=11)
    outcomes = {unpack(per_index(p, policy="random", seed=s)) for s in range(12)}
    assert outcomes <= {frozenset({(i, i)}) for i in range(3)}
    assert len(outcomes) > 1


def test_per_index_rejects_unknown_policy():
    p = identity(Carrier("A", 2))
    with pytest.raises(ValueError):
        per_index(p, policy="fancy")


def test_per_index_refuses_a_heterogeneous_relation():
    with pytest.raises(ValueError) as e:
        per_index(top(Carrier("A", 2), Carrier("B", 2)))
    assert str(e.value) == "per_index: needs a homogeneous relation, got A~B"


def test_per_index_rejects_non_per():
    asym = pack(2, 2, [(0, 1)], dst="A")
    with pytest.raises(ValueError, match="not symmetric"):
        per_index(asym)
    intrans = pack(3, 3, [(0, 1), (1, 0), (1, 2), (2, 1)], dst="A")
    with pytest.raises(ValueError, match="not transitive"):
        per_index(intrans)


def test_per_index_refusals_name_a_literal_witness():
    # the pair a refusal names is the first, in code order, of R ∩ ¬R° when
    # R is not symmetric, else of R∘R ∩ ¬R
    refused = set()
    for n in range(4):
        for p in _all(n, n, dst="A"):
            asym = intersect(p, complement(converse(p)))
            extra = intersect(compose(p, p), complement(p))
            if asym:
                why = f"not symmetric, {next(asym.pairs())} present without its converse"
            elif extra:
                why = f"not transitive, composition adds {next(extra.pairs())}"
            else:
                per_index(p)
                continue
            for refuser in (per_index, splitting):
                with pytest.raises(ValueError) as e:
                    refuser(p)
                assert str(e.value) == f"{refuser.__name__}: not a per — {why}"
            refused.add(why.split(",")[0])
    assert refused == {"not symmetric", "not transitive"}


def test_per_index_against_oracle_for_all_small_pers():
    for n in (1, 2, 3):
        for p in enumerate_pers(Carrier("A", n)):
            allowed = o.oper_indexes(unpack(p), n)
            assert unpack(per_index(p)) in allowed
            assert unpack(per_index(p, policy="max")) in allowed


def test_a_splitting_composed_with_its_converse_is_the_per_index():
    # f∘f° is the coreflexive index itself, under every policy, and the min
    # policy keeps the least member of each class
    for n in (1, 2, 3, 4):
        for p in enumerate_pers(Carrier("A", n)):
            for policy, seed in (("min", 0), ("max", 0), ("random", 7)):
                f = splitting(p, policy, seed)
                assert compose(f, converse(f)) == per_index(p, policy, seed), (unpack(p), policy)
            assert unpack(per_index(p)) == o.oper_min_index(unpack(p)), unpack(p)


# -- relation_index ----------------------------------------------------------------


def test_relation_index_of_full_relation():
    cert = relation_index(top(Carrier("A", 2), Carrier("B", 2)))
    assert unpack(cert.index) == {(0, 0)}
    assert cert.ok


def test_relation_index_of_block(block):
    cert = relation_index(block)
    assert unpack(cert.index) == {(0, 0), (2, 2)}
    assert cert.ok and all(cert.checks.values())


def test_relation_index_of_bijection_is_itself():
    bij = pack(3, 3, [(0, 2), (1, 0), (2, 1)])
    assert relation_index(bij).index == bij


def test_relation_index_certificate_checks_names(block):
    cert = relation_index(block)
    assert set(cert.checks) == {"J ⊆ R", "R≺∘J∘R≻ = R", "J<∘R≺∘J< = J<", "J>∘R≻∘J> = J>"}


@pytest.mark.parametrize("na,nb", [(2, 2), (2, 3)])
def test_relation_index_lands_in_oracle_set(na, nb):
    for r in _all(na, nb):
        allowed = o.oindexes(unpack(r), na, nb)
        for policy in ("min", "max", "random"):
            assert unpack(relation_index(r, policy=policy, seed=5).index) in allowed


@pytest.mark.parametrize("pairs,dst,picks", [
    # one class on each side: the draw names the side's carrier
    ([(i, j) for i in range(3) for j in range(4)], "B", {0: {(1, 0)}, 7: {(0, 1)}}),
    # two classes on each side, heterogeneous and homogeneous carriers
    ([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)], "B",
     {0: {(1, 0), (3, 2)}, 7: {(1, 0), (2, 2)}}),
    ([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)], "A",
     {0: {(1, 1), (3, 3)}, 7: {(1, 1), (2, 2)}}),
])
def test_relation_index_random_picks_are_pinned(pairs, dst, picks):
    na = 1 + max(i for i, _ in pairs)
    nb = 1 + max(j for _, j in pairs)
    r = pack(na, nb, pairs, dst=dst)
    for seed, want in picks.items():
        assert unpack(relation_index(r, policy="random", seed=seed).index) == want


@settings(max_examples=60)
@given(relations(max_size=3))
def test_relation_index_lands_in_oracle_set_sampled(r):
    allowed = o.oindexes(unpack(r), r.src.size, r.dst.size)
    assert unpack(relation_index(r).index) in allowed


# -- verify_index -------------------------------------------------------------------


def test_verify_index_refuses_a_candidate_of_another_type():
    a = Carrier("A", 2)
    with pytest.raises(ValueError) as e:
        verify_index(top(a, Carrier("B", 2)), identity(a))
    assert str(e.value) == "index candidate has type A~A, relation has A~B"


def test_verify_index_on_full_relation_fails_only_sharpness():
    t = top(Carrier("A", 2), Carrier("B", 2))
    cert = verify_index(t, t)
    assert cert.checks["J ⊆ R"]
    assert cert.checks["R≺∘J∘R≻ = R"]
    assert not cert.checks["J<∘R≺∘J< = J<"]
    assert not cert.ok


def _literal_index_checks(r, j):
    lpd, rpd, jl, jr = per_ldom(r), per_rdom(r), ldom(j), rdom(j)
    return {
        "J ⊆ R": unpack(j) <= unpack(r),
        "R≺∘J∘R≻ = R": compose(compose(lpd, j), rpd) == r,
        "J<∘R≺∘J< = J<": compose(compose(jl, lpd), jl) == jl,
        "J>∘R≻∘J> = J>": compose(compose(jr, rpd), jr) == jr,
    }


@pytest.mark.parametrize("na,nb", [(2, 2), (2, 3), (3, 2)])
def test_verify_index_matches_the_literal_equations_on_every_candidate(na, nb):
    # every J, not only the indexes: a certificate that said True more often
    # than the equations do would fail here
    rels = _all(na, nb)
    for r in rels:
        allowed = set(o.oindexes(unpack(r), na, nb))
        for j in rels:
            cert = verify_index(r, j)
            assert list(cert.checks.items()) == list(_literal_index_checks(r, j).items()), (r, j)
            assert cert.ok == (unpack(j) in allowed), (r, j)


def test_verify_index_accepts_every_oracle_index(block):
    for j in o.oindexes(unpack(block), 3, 3):
        assert verify_index(block, pack(3, 3, sorted(j))).ok


def test_candidate_indexes_match_oracle():
    # every relation of at most 9 matrix bits, 3×3, 1×k and k×1 included
    for na, nb in [(na, nb) for na in range(1, 10) for nb in range(1, 10) if na * nb <= 9]:
        for r in _all(na, nb):
            got = [unpack(j) for j in candidate_indexes(r)]
            assert len(got) == len(set(got)) and set(got) == set(o.oindexes(unpack(r), na, nb)), r


@pytest.mark.parametrize("pairs", [
    # 13 pairs: all rows and all columns distinct, so one sandwich of 13 pairs
    [(i, j) for i in range(4) for j in range(4) if (i, j) not in {(0, 0), (1, 1), (2, 2)}],
    # 13 pairs with repeated rows and columns: several transversals
    [(i, j) for i in range(4) for j in range(4) if (i, j) not in {(0, 0), (1, 0), (2, 3)}],
])
def test_candidate_indexes_of_dense_4x4_match_oracle(pairs):
    r = pack(4, 4, pairs)
    want = o.oindexes(unpack(r), 4, 4)
    got = candidate_indexes(r)
    assert [unpack(j) for j in got] == sorted(want, key=lambda j: sum(1 << (4 * a + b) for a, b in j))


def test_candidate_indexes_leave_the_compose_memo_almost_empty():
    # 13 pairs, all rows and all columns distinct: every class has one
    # member, so there is one pair of transversals and one sandwich
    r = pack(4, 4, [(i, j) for i in range(4) for j in range(4) if (i, j) not in {(0, 0), (1, 1), (2, 2)}])
    cache_clear()
    assert candidate_indexes(r) == [r]
    assert compose.cache_info().currsize < 100


def test_candidate_indexes_of_a_relation_with_distinct_rows_and_columns_is_itself():
    # rows and columns of the complement of 𝕀 are pairwise distinct: its
    # only index is itself, all 20 pairs
    r = complement(identity(Carrier("A", 5)))
    assert candidate_indexes(r) == [r]


def test_candidate_indexes_refuses_too_many_transversal_pairs():
    # a per with 17 two-element classes has 2**17 transversals on each side,
    # so 2**34 pairs: refused before any sandwich is composed
    a = Carrier("A", 34)
    p = from_pairs(a, a, [(2 * c + i, 2 * c + j) for c in range(17) for i in range(2) for j in range(2)])
    cache_clear()
    before = compose.cache_info()
    with pytest.raises(EnumerationLimit, match=r"17179869184 pairs .*2\*\*16"):
        candidate_indexes(p)
    assert compose.cache_info() == before


# -- splitting ----------------------------------------------------------------------


def test_splitting_of_full_per():
    p = top(Carrier("A", 2), Carrier("A", 2))
    assert unpack(splitting(p)) == {(0, 0), (0, 1)}


def test_splitting_of_identity():
    i = identity(Carrier("A", 2))
    assert splitting(i) == i


def test_splitting_characterizes_every_small_per():
    for n in (1, 2, 3, 4):
        for p in enumerate_pers(Carrier("A", n)):
            f = splitting(p)
            assert is_functional(f)
            assert compose(converse(f), f) == p
            assert compose(f, converse(f)) == per_index(p)


# -- core_of ------------------------------------------------------------------------


def test_core_same_type_equals_index(block):
    dec = core_of(block, "same-type")
    assert dec.core == relation_index(block).index
    assert all(dec.verify().values())


def test_core_quotient_of_full_relation():
    dec = core_of(top(Carrier("A", 2), Carrier("B", 3)), "quotient")
    assert dec.core.src.size == 1 and dec.core.dst.size == 1
    assert unpack(dec.core) == {(0, 0)}
    assert dec.core.src.labels == ("{0,1}",)
    assert dec.core.dst.labels == ("{0,1,2}",)


def test_core_quotient_of_bijection_keeps_all_pairs():
    bij = pack(3, 3, [(0, 2), (1, 0), (2, 1)])
    dec = core_of(bij, "quotient")
    assert dec.core.src.size == dec.core.dst.size == 3
    assert dec.core.bit_count() == 3


def test_core_of_verifies_in_both_modes_up_to_3x3_and_on_seeded_4x4():
    """core_of raises RuntimeError unless its own equations hold, so the
    registry states them for the same-type core (core-decomposition-valid)
    and only calls the quotient mode (core-quotient-valid). Here both modes
    return, verify, and the same-type core is the index."""
    a, b, rng = Carrier("A", 4), Carrier("B", 4), random.Random(4)
    rs = [r for na in range(1, 4) for nb in range(1, 4) for r in _all(na, nb)]
    rs += [relation_at(a, b, rng.getrandbits(16)) for _ in range(256)]
    for r in rs:
        same = core_of(r, "same-type")
        assert same.core == relation_index(r).index and all(same.verify().values()), r
        assert all(core_of(r, "quotient").verify().values()), r


def test_core_quotient_lives_on_its_legs_carriers():
    """Quotient carriers of one side share a name, so same-size ones are equal
    even when their class labels differ; the core must still be built over
    λ's and ρ's own sources, whatever an earlier composition left cached."""
    for r in _all(3, 3):
        dec = core_of(r, "quotient")
        assert dec.core.src is dec.lam.src and dec.core.dst is dec.rho.src, r


def _literal_core_checks(dec):
    r, lam, rho, c = dec.relation, dec.lam, dec.rho, dec.core
    return {
        "λ°∘λ = R≺": compose(converse(lam), lam) == per_ldom(r),
        "λ∘λ° = λ<": compose(lam, converse(lam)) == ldom(lam),
        "ρ°∘ρ = R≻": compose(converse(rho), rho) == per_rdom(r),
        "ρ∘ρ° = ρ<": compose(rho, converse(rho)) == ldom(rho),
        "C = λ∘R∘ρ°": c == compose(compose(lam, r), converse(rho)),
        "C is a core relation": is_core_relation(c),
        "λ> = R<": rdom(lam) == ldom(r),
        "C< = λ<": ldom(c) == ldom(lam),
        "ρ> = R>": rdom(rho) == rdom(r),
        "C> = ρ<": rdom(c) == ldom(rho),
    }


def _replaced(dec, **parts):
    fields = dict(relation=dec.relation, lam=dec.lam, rho=dec.rho, core=dec.core, mode=dec.mode)
    return CoreDecomposition(**{**fields, **parts})


@pytest.mark.parametrize("mode", ["same-type", "quotient"])
def test_core_verify_matches_the_literal_equations_on_every_replacement(mode):
    failing = 0
    for r in _all(2, 2):
        dec = core_of(r, mode)
        lam, rho, c = dec.lam, dec.rho, dec.core
        variants = (
            [_replaced(dec, lam=x) for x in enumerate_relations(lam.src, lam.dst)]
            + [_replaced(dec, rho=x) for x in enumerate_relations(rho.src, rho.dst)]
            + [_replaced(dec, core=x) for x in enumerate_relations(c.src, c.dst)]
        )
        for d in variants:
            got = d.verify()
            assert list(got.items()) == list(_literal_core_checks(d).items()), d
            failing += not all(got.values())
    assert failing > 0


def test_core_verify_on_foreign_carriers():
    r = pack(2, 2, [(0, 0), (0, 1), (1, 1)])
    dec = core_of(r, "quotient")
    foreign = Carrier("F", 2)
    # a λ that does not end on R's source: λ∘R has no type
    lam = pack(dec.lam.src.size, 2, list(dec.lam.pairs()), src=dec.lam.src.name, dst="F")
    with pytest.raises(CarrierMismatch) as want:
        compose(lam, r)
    with pytest.raises(CarrierMismatch) as got:
        _replaced(dec, lam=lam).verify()
    assert str(got.value) == str(want.value)
    # a ρ that does not end on R's target: R∘ρ° has no type
    rho = pack(dec.rho.src.size, 2, list(dec.rho.pairs()), src=dec.rho.src.name, dst="F")
    with pytest.raises(CarrierMismatch) as want:
        compose(compose(dec.lam, r), converse(rho))
    with pytest.raises(CarrierMismatch) as got:
        _replaced(dec, rho=rho).verify()
    assert str(got.value) == str(want.value)
    # a core on foreign carriers with the right matrix: the carrier decides
    core = pack(dec.core.src.size, dec.core.dst.size, list(dec.core.pairs()), src="F", dst=dec.core.dst.name)
    assert core.src == foreign
    checks = _replaced(dec, core=core).verify()
    assert checks == _literal_core_checks(_replaced(dec, core=core))
    assert not checks["C< = λ<"] and not checks["C = λ∘R∘ρ°"]
    assert checks["C> = ρ<"]


def test_core_rejects_unknown_mode(block):
    with pytest.raises(ValueError):
        core_of(block, "other")


@pytest.mark.parametrize("mode", CORE_MODES)
def test_core_rejects_unknown_policy_in_every_mode(block, mode):
    with pytest.raises(ValueError, match=r"^unknown policy 'nope', expected one of \('min', 'max', 'random'\)$"):
        core_of(block, mode, policy="nope")


def test_core_quotient_class_labels_stay_distinct():
    """Class labels quote member labels that hold a comma, a brace or a double
    quote, so {0} and {1,2} below cannot both read {a,b}."""
    a, b = Carrier("A", 3, ["a,b", "a", "b"]), Carrier("B", 2, ['{"}', "q"])
    dec = core_of(from_pairs(a, b, [(0, 0), (1, 1), (2, 1)]), "quotient")
    assert dec.lam.src.labels == ('{"a,b"}', "{a,b}")
    assert dec.rho.src.labels == ('{"{\\"}"}', "{q}")
    assert all(dec.verify().values())


def _inline_classes(p):
    """The classes of a per as sets, ordered by smallest member."""
    classes = []
    for i in range(p.src.size):
        row = frozenset(j for j in range(p.dst.size) if (i, j) in p)
        if row and row not in classes:
            classes.append(row)
    return classes


def test_per_classes_match_an_inline_partition_on_every_small_per():
    for n in range(5):
        for p in enumerate_pers(Carrier("A", n)):
            got = _per_classes(p.code, n)
            assert isinstance(got, tuple)
            assert [frozenset(_members(mask)) for mask in got] == _inline_classes(p), p


def test_cache_clear_empties_the_partition_memos():
    memos = (_per_classes, _fixed_pick, _quotient_carrier)
    r = pack(2, 2, [(0, 1), (1, 1)])
    relation_index(r)
    core_of(r, "quotient")
    assert all(memo.cache_info().currsize for memo in memos)
    cache_clear()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]


def test_core_decomposition_is_frozen(block):
    dec = core_of(block, "quotient")
    assert isinstance(dec, CoreDecomposition)
    with pytest.raises(AttributeError):
        dec.core = dec.relation  # type: ignore[misc]


# -- the index and core theorems of the registry on one instance ------------------------

CORE_THEOREMS = (
    "relation-index-policies",
    "index-of-itself",
    "index-is-core-relation",
    "index-via-own-domains",
    "index-compose-sandwich",
    "per-sandwich-per",
    "index-ldom-indexes-per",
    "core-decomposition-valid",
    "core-quotient-valid",
    "core-isomorphic-index",
    "indexes-pairwise-isomorphic",
)


def _core_theorems_fail(r):
    assert relation_index(r).index in candidate_indexes(r)
    return failing_laws(CORE_THEOREMS, r)


def test_core_theorem_suite_exhaustive_at_2x2():
    for r in _all(2, 2):
        assert not _core_theorems_fail(r), r


@settings(max_examples=40)
@given(relations(max_size=3))
def test_core_theorem_suite_sampled(r):
    assert not _core_theorems_fail(r)


def test_core_theorem_suite_on_empty_relation():
    assert not _core_theorems_fail(pack(2, 3, []))


def test_every_index_is_the_sandwich_of_its_domains_at_2x2():
    # index-determined-by-domains ranges J over every relation of R's type
    for r in _all(2, 2):
        for j in _all(2, 2):
            assert not failing_laws(["index-determined-by-domains"], r, j), (r, j)


def _difunction_index_laws_fail(r):
    # the bijection law is stated for difunctions only; the others for all R
    laws = ["difunction-index-equiv", "difunctional-strong-domains", "relation-index-policies"]
    if is_difunctional(r):
        laws.append("difunction-index-bijection")
    return failing_laws(laws, r)


def test_difunction_index_suite_on_block(block):
    assert not _difunction_index_laws_fail(block)
    j = relation_index(block).index
    assert is_bijection(j)


def test_difunction_index_of_per_is_coreflexive():
    for p in enumerate_pers(Carrier("A", 3)):
        j = relation_index(p).index
        assert unpack(j) <= set(o.oid(3))


def test_unique_index_of_lower_triangle_is_not_difunctional():
    # this relation is its own only index, and neither is difunctional
    r = pack(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert o.oindexes(unpack(r), 2, 2) == [unpack(r)]
    assert not is_difunctional(r)
    cert = relation_index(r)
    assert cert.index == r
    assert not is_difunctional(cert.index)
    assert not _difunction_index_laws_fail(r)


@given(relations(max_size=3))
def test_difunction_index_suite_everywhere(r):
    assert not _difunction_index_laws_fail(r)
