"""Acceptance suite: one test per shipped guarantee, with wall-clock budgets.

Each criterion is exactly one test, so ``pytest tests/test_acceptance.py -v``
yields one PASSED/FAILED row per criterion; add ``-s`` to also see a one-line
summary (size of the sweep, instance counts, elapsed time) per criterion.
Budgeted criteria clear every memo cache first so timings reflect cold runs.
"""

import functools
import time
from itertools import combinations
from pathlib import Path

import pytest

import oracles as o
from conftest import pack, unpack
from test_models import EXPECTED_COUNTEREXAMPLES, EXPECTED_FLAGS
from relalg import (
    Carrier,
    ModelFormatError,
    all_or_nothing,
    check_axioms,
    compose,
    converse,
    decompose_to_pairs,
    enumerate_pers,
    enumerate_relations,
    find_isomorphism,
    is_bijection,
    is_difunctional,
    is_functional,
    ldom,
    load_model,
    load_bundled,
    pair_rel,
    points,
    recheck,
    relation_index,
    splitting,
    top,
    union_all,
    verify_witness,
)
from relalg import cache_clear
from relalg.laws import REGISTRY, Law, Var, _POOLS, run_suite

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(num, title, budget=None):
    """Wrap a test so it prints `criterion NN PASS/FAIL` and enforces a budget.

    The wrapped body returns a detail string; timing starts from cold caches.
    """

    def deco(fn):
        @functools.wraps(fn)
        def run():
            cache_clear()
            _POOLS.clear()
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException:
                print(f"criterion {num:02d} FAIL  {title}")
                raise
            elapsed = time.perf_counter() - start
            within = budget is None or elapsed < budget
            status = "PASS" if within else "FAIL"
            print(f"criterion {num:02d} {status}  {title}: {detail} [{elapsed:.1f}s]")
            assert within, f"{title}: {elapsed:.1f}s exceeds the {budget}s budget"

        return run

    return deco


def _all(na, nb, src="A", dst="B"):
    return list(enumerate_relations(Carrier(src, na), Carrier(dst, nb)))


def _isomorphic(r, s):
    w = find_isomorphism(r, s)
    return w is not None and verify_witness(r, s, w)


# -- 1, 2: the law suite ------------------------------------------------------


@criterion(1, "size-2 law suite, every law exhaustive", budget=60)
def test_criterion_01_law_suite_exhaustive_at_size_2():
    suite = run_suite(max_size=2, samples=2000, seed=42)
    assert len(suite.reports) == len(REGISTRY) >= 60
    assert all(r.mode == "exhaustive" for r in suite.reports)
    assert all(r.instances > 0 for r in suite.reports)
    assert suite.ok, [r.law_id for r in suite.reports if not r.ok]
    instances = sum(r.instances for r in suite.reports)
    return f"{len(suite.reports)} laws, {instances} instances, 0 failures"


@criterion(2, "size-3 law suite, 2000 samples, seed 42", budget=300)
def test_criterion_02_law_suite_at_size_3():
    suite = run_suite(max_size=3, samples=2000, seed=42)
    assert len(suite.reports) == len(REGISTRY)
    assert suite.ok, [r.law_id for r in suite.reports if not r.ok]
    instances = sum(r.instances for r in suite.reports)
    return f"{len(suite.reports)} laws, {instances} instances, 0 failures"


# -- 3, 4: index soundness and uniqueness up to isomorphism --------------------


@criterion(3, "index certificate + oracle agreement on all 3x3", budget=120)
def test_criterion_03_index_sound_for_every_3x3_relation():
    checked = 0
    for r in _all(3, 3):
        cert = relation_index(r)
        assert cert.ok, (unpack(r), cert.checks)
        assert len(cert.checks) == 4
        assert unpack(cert.index) in o.oindexes(unpack(r), 3, 3), unpack(r)
        checked += 1
    assert checked == 512
    return f"{checked} relations, 4 certificate conditions each, oracle concurs"


@criterion(4, "all brute-forced indexes pairwise isomorphic on 2x3", budget=300)
def test_criterion_04_indexes_pairwise_isomorphic_for_every_2x3_relation():
    relations = 0
    pairs_checked = 0
    for r in _all(2, 3):
        indexes = [pack(2, 3, js) for js in o.oindexes(unpack(r), 2, 3)]
        assert indexes, unpack(r)
        for j, k in combinations(indexes, 2):
            assert _isomorphic(j, k), (unpack(r), unpack(j), unpack(k))
            pairs_checked += 1
        relations += 1
    assert relations == 64
    return f"{relations} relations, {pairs_checked} index pairs, all isomorphic"


# -- 5: difunctions are exactly the relations with bijective index -------------


@criterion(5, "difunctional ⇔ bijective index, equivalence everywhere ≤ 3")
def test_criterion_05_difunctional_relations_have_bijective_indexes():
    total = bijective = 0
    for na in (1, 2, 3):
        for nb in (1, 2, 3):
            for r in _all(na, nb):
                j = relation_index(r).index
                difunctional = is_difunctional(r)
                assert is_difunctional(j) == difunctional, unpack(r)
                if difunctional:
                    assert is_bijection(j), (unpack(r), unpack(j))
                    bijective += 1
                total += 1
    return f"{total} relations, {bijective} difunctions with bijective index"


# -- 6: every per splits as a function composed with its own converse ----------


@criterion(6, "per splittings: f∘f° = f<, f°∘f = P, cores isomorphic")
def test_criterion_06_every_per_up_to_size_4_splits():
    pers = 0
    for n in (1, 2, 3, 4):
        for p in enumerate_pers(Carrier("A", n)):
            fs = [
                splitting(p, "min"),
                splitting(p, "max"),
                splitting(p, "random", seed=7),
                splitting(p, "random", seed=11),
            ]
            for f in fs:
                assert is_functional(f), unpack(p)
                assert compose(f, converse(f)) == ldom(f), unpack(p)
                assert compose(converse(f), f) == p, unpack(p)
            cores = [compose(f, converse(f)) for f in fs]
            for c, d in combinations(cores, 2):
                assert _isomorphic(c, d), (unpack(p), unpack(c), unpack(d))
            pers += 1
    assert pers == 2 + 5 + 15 + 52
    return f"{pers} pers, 4 splittings each, all index coreflexives isomorphic"


# -- 7: pair decomposition is a homomorphism; relations are pair sets ----------


@criterion(7, "pair decomposition respects ∘ and °; 2^(|A|·|B|) count")
def test_criterion_07_pair_decomposition_correspondence():
    A, B, C = Carrier("A", 2), Carrier("B", 2), Carrier("C", 2)
    # converse: decomposing r° yields exactly the converses of r's pairs
    for r in enumerate_relations(A, B):
        dec = decompose_to_pairs(r)
        for a, b in dec:
            assert converse(pair_rel(a, b)) == pair_rel(b, a)
        via_flip = {unpack(pair_rel(b, a)) for a, b in dec}
        direct = {unpack(pair_rel(a, b)) for a, b in decompose_to_pairs(converse(r))}
        assert via_flip == direct, unpack(r)
    # composition: r∘s is the union of the pairwise composites
    composites = 0
    for r in enumerate_relations(A, B):
        for s in enumerate_relations(B, C):
            via_pairs = union_all(
                (
                    compose(pair_rel(a, b), pair_rel(c, d))
                    for a, b in decompose_to_pairs(r)
                    for c, d in decompose_to_pairs(s)
                ),
                A,
                C,
            )
            assert via_pairs == compose(r, s), (unpack(r), unpack(s))
            composites += 1
    assert composites == 256
    # counting: the relation lattice is the powerset of the pairs of ⊤
    counts = []
    for na in (1, 2, 3):
        for nb in (1, 2, 3):
            full = top(Carrier("A", na), Carrier("B", nb))
            n_rels = sum(1 for _ in _all(na, nb))
            assert n_rels == 2 ** (na * nb) == 2 ** len(decompose_to_pairs(full))
            counts.append(n_rels)
    return f"256 composites match, counts {counts} all powers of two"


# -- 8: squeezing between two points gives all or nothing ----------------------


@criterion(8, "all-or-nothing outcome vs bit membership, all sizes ≤ 3")
def test_criterion_08_all_or_nothing_everywhere():
    outcomes = 0
    for na in (1, 2, 3):
        for nb in (1, 2, 3):
            src, dst = Carrier("A", na), Carrier("B", nb)
            pts_a, pts_b = points(src), points(dst)
            for r in enumerate_relations(src, dst):
                bits = unpack(r)
                for i, a in enumerate(pts_a):
                    for j, b in enumerate(pts_b):
                        want = "full" if (i, j) in bits else "bottom"
                        assert all_or_nothing(r, a, b) == want, (bits, i, j)
                        outcomes += 1
    return f"{outcomes} (R, a, b) outcomes, zero disagreements"


# -- 9: the qualitative axiom matrix of the bundled finite models ---------------


@criterion(9, "axiom matrix over the bundled models, every ✗ re-refuted", budget=60)
def test_criterion_09_axiom_matrix_exact():
    verdicts = refuted = 0
    for name, expected in EXPECTED_FLAGS.items():
        model = load_bundled(name)
        report = check_axioms(model)
        flags = report.flags()
        for axiom, want in expected.items():
            assert flags[axiom] == want, (name, axiom)
            verdicts += 1
        # among them the annotated witnesses: no index for ⊤ in three_element,
        # a collapsed cone at a in four_element_point, no index for E in desharnais13
        assert report.counterexamples == EXPECTED_COUNTEREXAMPLES[name], name
        for axiom, ce in report.counterexamples.items():
            assert recheck(model, axiom, ce), (name, axiom, ce)
            refuted += 1
    return f"{verdicts} verdicts exact, {refuted} stored counterexamples re-refuted"


# -- 10: the harness itself flags planted defects -------------------------------


@criterion(10, "planted law failure and corrupt model each caught once")
def test_criterion_10_harness_self_test():
    bogus = Law(
        id="zz-planted-compose-commutes",
        statement="R∘S = S∘R",
        vars=(Var("relation", "A", "A"), Var("relation", "A", "A")),
        check=lambda args, cs: compose(args[0], args[1]) == compose(args[1], args[0]),
    )
    registry = dict(REGISTRY)
    registry[bogus.id] = bogus
    suite = run_suite(max_size=2, samples=10, seed=3, registry=registry)
    failing = [r for r in suite.reports if not r.ok]
    assert [r.law_id for r in failing] == [bogus.id]
    assert len(failing[0].failures) == 1
    ce = failing[0].failures[0]
    # minimal: composition commutes on one element, and a refutation needs a
    # bit in each argument, so {A: 2} with one pair per relation is the floor
    assert ce.sizes == {"A": 2}
    assert [r.bit_count() for r in ce.args] == [1, 1]
    assert not bogus.check(ce.args, {"A": ce.args[0].src})

    with pytest.raises(ModelFormatError) as err:
        load_model(FIXTURES / "broken_assoc.json")
    assert err.value.category == "associativity"
    assert "(a, a, top)" in str(err.value)
    return "one shrunk law counterexample; one associativity diagnostic at (a, a, top)"
