import gc
import json
import random
import re
from fnmatch import filter as fnmatch_filter, fnmatch
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest

import oracles as o
from conftest import pack, run_python, unpack
from relalg import (
    _MEMOIZED, Carrier, EnumerationLimit, Relation, cache_clear, complement, compose, converse, from_dict, indexcore,
    isomorph, laws, top,
)
from relalg.rel import _compose_memo, relation_at
from relalg.terms import Formula
from relalg.laws import (
    KIND_VALIDATORS,
    OUT_OF_SCOPE,
    REGISTRY,
    Law,
    Var,
    _pool,
    build_manifest,
    run_law,
    run_suite,
    shrink,
)


def test_registry_is_big_enough_and_well_formed():
    assert len(REGISTRY) >= 60
    for law_id, law in REGISTRY.items():
        assert law.id == law_id
        assert law.statement.strip()
        assert law.cost >= 1
        assert law.vars or law.extra_tvs, law_id  # something to quantify over
        for v in law.vars:
            assert v.kind in KIND_VALIDATORS, (law_id, v.kind)


def test_manifest_stays_in_sync_with_registry():
    manifest = build_manifest()
    assert manifest["law_count"] == len(REGISTRY)
    assert set(manifest["laws"]) == set(REGISTRY)
    for law_id, entry in manifest["laws"].items():
        law = REGISTRY[law_id]
        assert entry["statement"] == law.statement
        assert entry["cost"] == law.cost
        assert len(entry["variables"]) == len(law.vars)
    assert manifest["out_of_scope"] == [dict(e) for e in OUT_OF_SCOPE]
    assert len(manifest["out_of_scope"]) == 4
    json.dumps(manifest)  # must be serializable as-is


def test_only_a_python_check_carries_a_cost_weight():
    # a statement's scan is priced from the statement (Formula.runs), so its
    # instances weigh 1 against the budget; a Python check keeps its weight
    python = {
        "classify-consistent": 4, "core-if-iso": 64,
        "core-isomorphic-index": 6, "core-quotient-valid": 6, "indexes-pairwise-isomorphic": 64,
        "iso-domain-transport": 64, "iso-search-sound": 64, "iso-to-coreflexive-bijection": 64,
        "relation-count": 64, "relation-index-policies": 8,
    }
    costs = {law_id: entry["cost"] for law_id, entry in build_manifest()["laws"].items()}
    assert {law_id: costs[law_id] for law_id in python} == python
    statements = {law_id for law_id, law in REGISTRY.items() if isinstance(law.check, Formula)}
    assert statements == set(REGISTRY) - set(python)
    assert {costs[law_id] for law_id in statements} == {1}


def test_the_readme_lists_exactly_the_python_laws():
    # the README's list of the laws that keep a Python check, each with its reason
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("They stay Python checks", 1)[1].split("`laws --manifest`", 1)[0]
    named = re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", listed)
    python = {law_id for law_id, law in REGISTRY.items() if not isinstance(law.check, Formula)}
    assert sorted(named) == sorted(python)


def test_pool_contents_match_kind_predicates():
    c = Carrier("A", 2)
    assert len(_pool("relation", c, c)) == 16
    assert len(_pool("coreflexive", c, c)) == 4
    assert len(_pool("per", c, c)) == 5
    assert len(_pool("point", c, c)) == 2
    difunctional = [code for code in _pool("relation", c, c) if o.ois_difunctional(unpack(relation_at(c, c, code)))]
    assert list(_pool("difunction", c, c)) == difunctional
    for kind, validator in KIND_VALIDATORS.items():
        for code in _pool(kind, c, c):
            assert validator(relation_at(c, c, code)), (kind, code)


SHAPES_UP_TO_4 = [(n, m) for n in range(1, 5) for m in range(1, 5)]


def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _closed_form(kind: str, n: int, m: int) -> int:
    if kind == "functional":
        return (n + 1) ** m
    return sum(_stirling2(n + 1, k + 1) * _stirling2(m + 1, k + 1) * factorial(k) for k in range(min(n, m) + 1))


@pytest.mark.parametrize("n,m", SHAPES_UP_TO_4)
@pytest.mark.parametrize("kind", ["difunction", "functional"])
def test_native_pools_equal_the_filtered_pools(kind, n, m):
    src, dst = Carrier("A", n), Carrier("B", m)
    got = _pool(kind, src, dst)
    valid = KIND_VALIDATORS[kind]
    assert list(got) == [code for code in range(1 << n * m) if valid(relation_at(src, dst, code))]
    assert len(got) == _closed_form(kind, n, m)
    assert all(a < b for a, b in zip(got, got[1:]))
    if n * m <= 9:
        oracle = o.ois_difunctional if kind == "difunction" else o.ois_functional
        assert list(got) == [code for code in range(1 << n * m) if oracle(unpack(relation_at(src, dst, code)))]


def test_native_pool_sizes_match_the_closed_forms():
    assert [_closed_form("difunction", n, n) for n in range(1, 5)] == [2, 12, 128, 2100]
    assert sum(_closed_form("difunction", n, m) for n, m in SHAPES_UP_TO_4) == 3490
    assert sum(_closed_form("functional", n, m) for n, m in SHAPES_UP_TO_4) == 1270


@pytest.mark.parametrize("kind", ["difunction", "functional"])
def test_native_pools_keep_the_enumeration_bound(monkeypatch, kind):
    monkeypatch.setattr(laws, "_POOLS", {})
    for n, m in ((5, 4), (4, 5)):
        with pytest.raises(EnumerationLimit, match="matrix bits"):
            _pool(kind, Carrier("A", n), Carrier("B", m))


def _live_relations() -> int:
    gc.collect()
    return sum(type(x) is Relation for x in gc.get_objects())


def test_pools_hold_codes_not_relations(monkeypatch):
    # a 4x4 pool kept as Relation objects is 65 536 objects the cyclic
    # collector walks on every full collection of a run
    monkeypatch.setattr(laws, "_POOLS", {})
    a4, b4 = Carrier("A", 4), Carrier("B", 4)
    before = _live_relations()
    pools = [_pool("relation", a4, b4), _pool("difunction", a4, b4)]
    assert _live_relations() - before < 1000
    assert len(pools[0]) == 1 << 16 and 0 < len(pools[1]) < 1 << 16
    with pytest.raises(EnumerationLimit):
        _pool("relation", Carrier("A", 5), b4)


def test_pool_building_leaves_the_kernel_caches_empty(monkeypatch):
    # the restricted pools are generated or read off rows, so no composite is
    # left behind in a cache; the validators answer from rows too
    monkeypatch.setattr(laws, "_POOLS", {})
    cache_clear()
    a3, b3, a4 = Carrier("A", 3), Carrier("B", 3), Carrier("A", 4)
    assert _pool("difunction", a3, b3) and _pool("functional", a3, b3)
    assert _pool("per", a4, a4)
    two_blocks = pack(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], dst="A")
    for validator in KIND_VALIDATORS.values():
        validator(two_blocks)
    assert [fn.cache_info().currsize for fn in (compose, converse, complement)] == [0, 0, 0]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_pools_are_never_empty(size):
    """run_law relies on this: no size tuple is skipped for lack of instances."""
    c = Carrier("A", size)
    assert [kind for kind in KIND_VALIDATORS if not _pool(kind, c, c)] == []


def test_input_checks_hold_under_python_O():
    script = (
        "from relalg import Carrier\n"
        "from relalg.domains import enumerate_pers\n"
        "from relalg.laws import _pool\n"
        "assert False, 'asserts must be off'\n"
        "a, b = Carrier('A', 2), Carrier('B', 2)\n"
        "bad = [lambda: next(enumerate_pers(Carrier('A', 6)))]\n"
        "bad += [lambda kind=kind: _pool(kind, a, b) for kind in ('coreflexive', 'per', 'point')]\n"
        "bad += [lambda kind=kind, n=n, m=m: _pool(kind, Carrier('A', n), Carrier('B', m))\n"
        "        for kind in ('difunction', 'functional') for n, m in ((5, 4), (4, 5))]\n"
        "for call in bad:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('accepted malformed input')\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr


def test_size_two_suite_is_green_and_fully_exhaustive():
    suite = run_suite(max_size=2, samples=10, seed=0)
    assert suite.ok
    assert len(suite.reports) == len(REGISTRY)
    assert all(r.mode == "exhaustive" for r in suite.reports)
    assert all(r.instances > 0 for r in suite.reports)


def test_suite_reports_come_in_id_order():
    suite = run_suite(max_size=1, samples=5, seed=0)
    ids = [r.law_id for r in suite.reports]
    assert ids == sorted(ids)


def test_sampled_runs_are_deterministic():
    a = run_suite(max_size=3, samples=150, seed=9, law_filter="dedekind-*")
    b = run_suite(max_size=3, samples=150, seed=9, law_filter="dedekind-*")
    assert a.to_dict() == b.to_dict()
    assert {r.law_id for r in a.reports} == {"dedekind-modular", "dedekind-modular-dual"}


def test_heavy_law_mixes_modes_at_size_three():
    report = run_law(REGISTRY["dedekind-modular"], max_size=3, samples=50, seed=1)
    assert report.mode == "mixed"
    assert report.ok


def test_decompose_compose_is_exhaustive_at_size_three():
    # all 2^18 instances of its 3x3x3 tuple fit the default budget of 10^7 instances
    report = run_law(REGISTRY["decompose-compose"], max_size=3, samples=2000, seed=42)
    assert (report.mode, report.instances, report.ok) == ("exhaustive", sum(
        2 ** (b * (a + c)) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)), True)


def test_every_term_tuple_within_the_budget_is_enumerated_at_criterion_2_settings(monkeypatch):
    """The nine term laws with size-3 tuples of more than one plane and at
    most EXHAUSTIVE_BUDGET instances: under the default settings every tuple
    within the budget is enumerated, however many operations its statement
    runs."""
    heavy = ["compose-assoc", "compose-join-left", "compose-join-right", "meet-compose-sub", "dedekind-modular",
             "dedekind-modular-dual", "left-residual-galois", "right-residual-galois", "pair-irreducible"]
    seen = {}
    batches = laws._batches

    def recording(law, carriers, typed, pools, rng, samples):
        sizes = tuple(c.size for c in carriers.values())
        seen[law.id, sizes] = (prod(len(p) for p in pools), "exhaustive" if rng is None else "sampled")
        return batches(law, carriers, typed, pools, rng, samples)

    monkeypatch.setattr(laws, "_batches", recording)
    for law_id in heavy:
        law = REGISTRY[law_id]
        assert isinstance(law.check, Formula) and run_law(law, 3, 2000, 42).ok
        assert sum(key[0] == law_id for key in seen) == 3 ** len(law.type_vars())
    within = {key: mode for key, (space, mode) in seen.items() if space <= laws.EXHAUSTIVE_BUDGET}
    assert set(within.values()) == {"exhaustive"}
    # each law has a tuple within the budget that takes more than one plane
    assert {key[0] for key in within if seen[key][0] > laws.PLANE_BITS} == set(heavy)


def test_pair_irreducible_is_exhaustive_at_size_three():
    # R, S : A~B and the points a of A and b of B: 4^(|A||B|) |A| |B| instances a tuple
    report = run_law(REGISTRY["pair-irreducible"], 3, 2000, 42)
    assert (report.mode, report.instances, report.ok) == ("exhaustive", sum(
        2 ** (2 * a * b) * a * b for a, b in product((1, 2, 3), repeat=2)), True)


def test_decompose_compose_leaves_the_compose_memo_alone():
    # its Python check composed every pair of pairs through the memo; the
    # statement composes points on planes
    before = _compose_memo.cache_info()
    report = run_law(REGISTRY["decompose-compose"], 4, 10, 31, 1)
    after = _compose_memo.cache_info()
    assert report.ok and report.instances > 0
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _evicted() -> dict:
    """The memos that dropped an entry, or are full, with their cache_info."""
    infos = {fn.__name__: fn.cache_info() for fn in _MEMOIZED}
    return {name: i for name, i in infos.items() if not i.misses == i.currsize < i.maxsize}


def test_the_memos_hold_a_size_three_suite_without_evicting():
    # the settings of perfbench's laws-size3
    cache_clear()
    assert run_suite(max_size=3, samples=128, seed=31, budget=4000).ok
    assert _evicted() == {}


def test_the_memos_hold_a_size_four_suite_without_evicting():
    # the settings of perfbench's laws-size4, which leaves the most per_ldom codes
    cache_clear()
    assert run_suite(max_size=4, samples=10, seed=31, budget=1).ok
    assert converse.cache_info().currsize > 550
    assert _evicted() == {}


def test_spaces_within_the_sample_count_are_enumerated():
    # relation-count has no variables: one instance per size tuple, however
    # heavy, and drawing it 10 times would only repeat it
    report = run_law(REGISTRY["relation-count"], max_size=2, samples=10, budget=1)
    assert (report.mode, report.instances, report.ok) == ("exhaustive", 4, True)
    # one relation variable under a Python check: 2 + 4 + 4 instances
    # enumerated, 10 of the 16 2x2 relations drawn
    law = REGISTRY["classify-consistent"]
    assert not isinstance(law.check, Formula) and law.vars == (Var("relation", "A", "B"),)
    report = run_law(law, max_size=2, samples=10, budget=1)
    assert (report.mode, report.instances) == ("mixed", 20)
    # a term law with no variables: its draws cost nothing, so only the
    # sample count enumerates its one instance per size tuple
    law = REGISTRY["converse-constants"]
    assert isinstance(law.check, Formula) and law.vars == ()
    report = run_law(law, max_size=2, samples=1, budget=0)
    assert (report.mode, report.instances, report.ok) == ("exhaustive", 4, True)


def test_a_term_tuple_whose_scan_costs_no_more_than_its_draws_is_enumerated():
    """meet-join-absorption on R, S : A~B at max_size=3: the 3x3 tuple has 2^18
    instances, past the budget, so it is enumerated exactly from the least
    sample count whose estimated draws, samples * 2 variables * DRAW_COST
    and one batch of `samples` instances, cost no less than the estimated
    scan of one batch of 2^18 instances."""
    law = REGISTRY["meet-join-absorption"]
    assert isinstance(law.check, Formula) and len(law.vars) == 2 and law.vars[0] == law.vars[1]
    named, space = {"A": 3, "B": 3}, 1 << 18
    assert space <= laws.PLANE_BITS

    def priced(bits):  # a batch-wide plane is c times the batch's width
        runs = law.check.runs(named).items()
        return sum(n * p * (1 + c * (bits if wide else 1) / laws.SLICE_BITS) for (p, c, wide), n in runs)

    scan = priced(space)
    least = next(s for s in range(1, space) if scan <= s * 2 * laws.DRAW_COST + priced(s))
    assert 128 < least < space // 64
    spaces = sum(1 << 2 * a * b for a, b in product((1, 2, 3), repeat=2))
    report = run_law(law, max_size=3, samples=least, budget=1)
    assert (report.mode, report.instances, report.ok) == ("exhaustive", spaces, True)
    # one sample fewer: the 3x3 tuple is drawn, every smaller one still enumerated
    report = run_law(law, max_size=3, samples=least - 1, budget=1)
    assert (report.mode, report.instances, report.ok) == ("mixed", spaces - space + least - 1, True)


def test_the_estimate_picks_the_pinned_modes_at_laws_size3_settings(monkeypatch):
    """The modes the estimate gives a fixed set of tuples at perfbench's
    laws-size3 settings (samples=128, budget=4000), and run_law takes the
    mode the rule names on every tuple. The two enumerated tuples scan about
    3x faster than they draw (BENCH_cost.json); 3x3 meet-join-absorption
    draws about 3x faster than it scans."""
    pinned = {
        ("compose-assoc", (1, 3, 3, 1)): "exhaustive",  # 32,768 instances
        ("compose-assoc", (3, 3, 3, 1)): "sampled",
        ("dedekind-modular", (3, 3, 3)): "sampled",
        ("dedekind-modular", (2, 3, 3)): "sampled",
        ("pair-irreducible", (3, 2)): "exhaustive",  # 24,576 instances
        ("meet-join-absorption", (3, 3)): "sampled",  # 2^18 instances
    }
    seen = {}
    batches = laws._batches

    def recording(law, carriers, typed, pools, rng, samples):
        sizes = tuple(c.size for c in carriers.values())
        space = prod(len(p) for p in pools)
        rule = (space * law.cost <= 4000 or space <= samples
                or laws._scan_pays(law, {tv: c.size for tv, c in carriers.items()}, pools, samples))
        assert rule == (rng is None), (law.id, sizes)
        seen[law.id, sizes] = "exhaustive" if rng is None else "sampled"
        return batches(law, carriers, typed, pools, rng, samples)

    monkeypatch.setattr(laws, "_batches", recording)
    for law_id in sorted({law_id for law_id, _ in pinned}):
        assert run_law(REGISTRY[law_id], max_size=3, samples=128, seed=31, budget=4000).ok
    assert {key: seen[key] for key in pinned} == pinned


def test_a_three_variable_term_law_samples_its_largest_size_three_tuple(monkeypatch):
    scanned = {}
    batches = laws._batches

    def recording(law, carriers, typed, pools, rng, samples):
        scanned[tuple(c.size for c in carriers.values())] = "exhaustive" if rng is None else "sampled"
        return batches(law, carriers, typed, pools, rng, samples)

    monkeypatch.setattr(laws, "_batches", recording)
    law = REGISTRY["dedekind-modular"]
    assert len(law.vars) == 3
    report = run_law(law, max_size=3, samples=128, seed=31, budget=4000)
    assert (report.mode, report.ok) == ("mixed", True)
    assert len(scanned) == 27
    assert scanned[(1, 1, 1)] == "exhaustive" and scanned[(3, 3, 3)] == "sampled"


def test_a_python_law_keeps_the_rule_without_the_sliced_clause(monkeypatch):
    """The estimate reads only term laws: a Python law's report is the same
    whether the estimate would enumerate every tuple or none, and it is
    never asked, while a term law over the same variable takes the modes
    the estimate names."""
    law = REGISTRY["classify-consistent"]
    term = REGISTRY["converse-involution"]
    assert law.vars == term.vars and not isinstance(law.check, Formula)
    settings = dict(max_size=3, samples=10, seed=3, budget=1)
    python = run_law(law, **settings).to_dict()
    assert python["mode"] == "mixed" and python["instances"] == 2 + 4 + 8 + 4 + 8 + 10 * 4
    # the estimate enumerates every tuple of the term law at these settings
    reports = {None: run_law(term, **settings).to_dict()}
    for pays in (False, True):
        asked = []
        monkeypatch.setattr(laws, "_scan_pays", lambda *args, pays=pays: asked.append(args[0].id) or pays)
        assert run_law(law, **settings).to_dict() == python and asked == []
        reports[pays] = run_law(term, **settings).to_dict()
        assert set(asked) == {term.id}
    assert reports[False]["mode"] == "mixed" and reports[False]["instances"] == python["instances"]
    assert reports[True]["mode"] == "exhaustive" and reports[True]["instances"] == 2 + 4 + 8 + 4 + 16 + 64 + 8 + 64 + 512
    assert reports[None] == reports[True]


def test_sampled_draws_are_pinned():
    """A sampled size tuple checks exactly the draws randrange makes from
    random.Random(f"{seed}:{law.id}:{sizes}"), one per argument per instance
    in order (the sliced scan is pinned in test_terms)."""
    seen = []
    recording = Law(
        id="zz-recording",
        statement="R = R",
        vars=(Var("relation", "A", "B"), Var("coreflexive", "A", "A")),
        check=lambda args, cs: seen.append(tuple(r.code for r in args)) or True,
    )
    report = run_law(recording, max_size=2, samples=3, seed=11, budget=1)
    assert report.mode == "sampled"
    want = []
    for sizes in product((1, 2), repeat=2):
        a, b = Carrier("A", sizes[0]), Carrier("B", sizes[1])
        pools = [_pool("relation", a, b), _pool("coreflexive", a, a)]
        rng = random.Random(f"11:zz-recording:{sizes}")
        want += [tuple(pool[rng.randrange(len(pool))] for pool in pools) for _ in range(3)]
    assert report.instances == len(want) == 12
    assert seen == want


def test_run_suite_rejects_silly_sizes():
    with pytest.raises(ValueError, match="max_size"):
        run_suite(max_size=0)
    with pytest.raises(ValueError, match="max_size"):
        run_suite(max_size=5)
    # run_law alone too: no size tuple would check nothing and report ok
    with pytest.raises(ValueError, match="max_size"):
        run_law(REGISTRY["compose-assoc"], max_size=0)
    with pytest.raises(ValueError, match="max_size"):
        run_law(REGISTRY["compose-assoc"], max_size=5)
    with pytest.raises(ValueError, match="samples"):
        run_law(REGISTRY["cone-rule"], samples=0)


def test_law_filter_globs():
    suite = run_suite(max_size=1, samples=5, law_filter="*residual*")
    assert suite.reports
    assert all("residual" in r.law_id for r in suite.reports)
    with pytest.raises(ValueError, match="no law matches"):
        run_suite(max_size=1, samples=5, law_filter="no-such-law-*")


@pytest.mark.parametrize(
    "pattern", ["*index*", "residual-*", "[cd]*", "per-?ndex-equiv", *sorted(REGISTRY)]
)
def test_law_filter_selects_what_fnmatch_matches_per_id(pattern):
    # stand-ins with the registry's ids and a check that always holds, so
    # only the selection costs anything
    stubs = {i: Law(i, "stub", (Var("relation", "A", "A"),), lambda args, cs: True) for i in REGISTRY}
    want = [i for i in sorted(REGISTRY) if fnmatch(i, pattern)]
    assert want
    suite = run_suite(max_size=1, samples=1, law_filter=pattern, registry=stubs)
    assert [r.law_id for r in suite.reports] == want
    with pytest.raises(ValueError, match=r"no law matches the filter 'no-such-law-\*'"):
        run_suite(max_size=1, samples=1, law_filter="no-such-law-*", registry=stubs)


def test_a_plain_id_is_looked_up_and_a_glob_is_matched(monkeypatch):
    """A filter with none of * ? [ selects the id equal to it, or nothing,
    without compiling a pattern; any other filter goes through fnmatch."""
    stubs = {i: Law(i, "stub", (Var("relation", "A", "A"),), lambda args, cs: True) for i in REGISTRY}
    globbed = []
    monkeypatch.setattr(laws.fnmatch, "filter", lambda names, pat: globbed.append(pat) or fnmatch_filter(names, pat))
    for law_id in ("compose-assoc", "index-of-itself", "zz-no-such-law", "compose-assoc ", "Compose-assoc"):
        want = [i for i in sorted(REGISTRY) if fnmatch(i, law_id)]
        assert want == ([law_id] if law_id in REGISTRY else [])
        if want:
            suite = run_suite(max_size=1, samples=1, law_filter=law_id, registry=stubs)
            assert [r.law_id for r in suite.reports] == want
        else:
            with pytest.raises(ValueError, match="no law matches"):
                run_suite(max_size=1, samples=1, law_filter=law_id, registry=stubs)
    assert globbed == []
    for pattern in ("compose-asso?", "compose-[a]ssoc", "*-assoc"):
        suite = run_suite(max_size=1, samples=1, law_filter=pattern, registry=stubs)
        assert [r.law_id for r in suite.reports] == ["compose-assoc"]
    assert globbed == ["compose-asso?", "compose-[a]ssoc", "*-assoc"]


# -- deliberate falsification (the harness must be able to fail) --------------------


def _locally_minimal(law, ce):
    """Every one-step reduction of the counterexample passes or leaves the kind."""
    carriers = {tv: Carrier(tv, n) for tv, n in ce.sizes.items()}

    def fails(cs, args):
        return all(
            KIND_VALIDATORS[v.kind](r) for v, r in zip(law.vars, args)
        ) and not law.check(args, cs)

    assert fails(carriers, ce.args), "stored counterexample must still fail"
    from relalg.laws import _drop_element
    from relalg.rel import Relation

    for k, r in enumerate(ce.args):
        for i, j in r.pairs():
            rows = list(r.rows)
            rows[i] &= ~(1 << j)
            cand = ce.args[:k] + (Relation(r.src, r.dst, rows),) + ce.args[k + 1:]
            assert not fails(carriers, cand), f"pair ({i},{j}) of arg {k} was removable"
    for tv, carrier in carriers.items():
        for e in range(carrier.size):
            smaller = Carrier(tv, carrier.size - 1)
            cand_list = []
            for r in ce.args:
                nr = _drop_element(r, carrier, smaller, e)
                if nr is None:
                    break
                cand_list.append(nr)
            else:
                cs = dict(carriers)
                cs[tv] = smaller
                assert not fails(cs, tuple(cand_list)), f"element {e} of {tv} was droppable"


_COMMUTES = Law(
    id="zz-bogus-compose-commutes",
    statement="R∘S = S∘R",
    vars=(Var("relation", "A", "A"), Var("relation", "A", "A")),
    check=lambda args, cs: compose(args[0], args[1]) == compose(args[1], args[0]),
)
_TOP_ABSORBS = Law(
    id="zz-bogus-top-absorbs",
    statement="⊤∘R = R",
    vars=(Var("relation", "A", "B"),),
    check=lambda args, cs: compose(top(cs["A"], cs["A"]), args[0]) == args[0],
)


def _first_failure(law, max_size, registry):
    suite = run_suite(max_size=max_size, samples=10, seed=3, registry=registry)
    failing = [r for r in suite.reports if not r.ok]
    assert [r.law_id for r in failing] == [law.id]
    assert len(failing[0].failures) == 1
    return failing[0].failures[0]


def test_falsified_law_fails_exactly_once_with_minimal_counterexample():
    ce = _first_failure(_COMMUTES, 2, {**REGISTRY, _COMMUTES.id: _COMMUTES})
    # composition on a 1-element carrier commutes, so 2 is the least size,
    # and one bit per argument is as small as a refutation gets
    assert ce.sizes == {"A": 2}
    assert sum(r.bit_count() for r in ce.args) == 2
    _locally_minimal(_COMMUTES, ce)


def test_second_falsified_law_shrinks_heterogeneously():
    ce = _first_failure(_TOP_ABSORBS, 3, {_TOP_ABSORBS.id: _TOP_ABSORBS})
    # needs two sources (one related, one not) and a single target bit
    assert ce.sizes == {"A": 2, "B": 1}
    assert [r.bit_count() for r in ce.args] == [1]
    _locally_minimal(_TOP_ABSORBS, ce)


def _carrier(name, size):
    return {"name": name, "size": size, "labels": [str(i) for i in range(size)]}


def test_shrunk_counterexamples_are_pinned():
    """The exact shrunk instances, homogeneous and heterogeneous: a change to
    the order in which shrink tries its reductions shows up here."""
    A = _carrier("A", 2)
    ce = _first_failure(_COMMUTES, 2, {_COMMUTES.id: _COMMUTES})
    assert ce.to_dict() == {
        "law": "zz-bogus-compose-commutes",
        "carriers": {"A": 2},
        "args": [{"src": A, "dst": A, "pairs": [[0, 0]]}, {"src": A, "dst": A, "pairs": [[0, 1]]}],
    }
    ce = _first_failure(_TOP_ABSORBS, 3, {_TOP_ABSORBS.id: _TOP_ABSORBS})
    assert ce.to_dict() == {
        "law": "zz-bogus-top-absorbs",
        "carriers": {"A": 2, "B": 1},
        "args": [{"src": A, "dst": _carrier("B", 1), "pairs": [[0, 0]]}],
    }


def test_counterexample_serializes_and_round_trips():
    bogus = Law(
        id="zz-bogus",
        statement="R = R°",
        vars=(Var("relation", "A", "A"),),
        check=lambda args, cs: args[0] == converse(args[0]),
    )
    report = run_law(bogus, max_size=2, samples=10, seed=0)
    assert not report.ok
    payload = json.loads(json.dumps(report.to_dict()))
    (ce,) = payload["failures"]
    rebuilt = [from_dict(d) for d in ce["args"]]
    assert [unpack(r) for r in rebuilt] == [unpack(r) for r in report.failures[0].args]


def test_a_refused_isomorphism_search_fails_the_law_loudly(monkeypatch):
    """A search refused past isomorph.MAX_POINTS raises out of the law's
    check: it is never a pass. The identities on two elements pass every
    invariant, so only the search could settle them."""
    law = REGISTRY["iso-to-coreflexive-bijection"]
    a, b, c = Carrier("A", 2), Carrier("B", 2), Carrier("C", 2)
    args = (pack(2, 2, [(0, 0), (1, 1)]), pack(2, 2, [(0, 0), (1, 1)], src="C", dst="C"))
    assert law.check(args, {"A": a, "B": b, "C": c})
    monkeypatch.setattr(isomorph, "MAX_POINTS", 1)
    with pytest.raises(isomorph.SearchSpaceExceeded):
        law.check(args, {"A": a, "B": b, "C": c})


def test_a_failed_certificate_is_a_shrunk_counterexample(monkeypatch):
    """core_of raises RuntimeError unless its decomposition verifies, and
    core-quotient-valid only calls it: with the certificate broken on every
    relation of two or more pairs, the law reports one shrunk counterexample,
    which fails again on replay, instead of ending the run."""
    verify = indexcore.CoreDecomposition.verify

    def broken(dec):
        return {**verify(dec), "C = λ∘R∘ρ°": dec.relation.bit_count() < 2}

    monkeypatch.setattr(indexcore.CoreDecomposition, "verify", broken)
    law = REGISTRY["core-quotient-valid"]
    report = run_law(law, 3, 50, 1)
    (ce,) = report.failures
    assert ce.sizes == {"A": 1, "B": 2} and [r.bit_count() for r in ce.args] == [2]
    # shrink replays it: it must fail, and no smaller instance does
    assert shrink(law, {tv: Carrier(tv, n) for tv, n in ce.sizes.items()}, ce.args) == ce


def test_a_refusal_inside_a_check_ends_the_run(monkeypatch):
    # a refused input is no verdict: unlike a failed certificate, it propagates
    monkeypatch.setattr(isomorph, "MAX_POINTS", 1)
    with pytest.raises(isomorph.SearchSpaceExceeded):
        run_law(REGISTRY["iso-to-coreflexive-bijection"], 2, 10, 1)


def test_shrink_insists_on_a_failing_start():
    truth = Law(
        id="zz-always-true",
        statement="R = R",
        vars=(Var("relation", "A", "A"),),
        check=lambda args, cs: True,
    )
    c = Carrier("A", 2)
    with pytest.raises(ValueError, match="failing instance"):
        shrink(truth, {"A": c}, (top(c, c),))
