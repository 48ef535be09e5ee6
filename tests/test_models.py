import dataclasses
import json
import math
import random
from collections import Counter
from itertools import product
from pathlib import Path
from typing import Iterator

import pytest

from conftest import run_python
from oracles import OAXIOMS, olattice, omonoid
from relalg import cache_clear, models
from relalg.models import (
    _VIOLATIONS,
    AbstractModel,
    AxiomReport,
    BUNDLED_NAMES,
    ModelFormatError,
    bundled_models,
    check_axioms,
    load_bundled,
    load_model,
    model_to_dict,
    product_model,
    recheck,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Independent copy of the expected verdict matrix. test_models and the package
# each carry one; a change to either without the other is a failure.
EXPECTED_FLAGS = {
    "one_element": dict(lattice=True, monoid=True, converse=True, dedekind=True,
                        cone=True, choice=True, all_or_nothing=True,
                        extensional=True, universal_choice=True),
    "two_element": dict(lattice=True, monoid=True, converse=True, dedekind=True,
                        cone=True, choice=True, all_or_nothing=True,
                        extensional=True, universal_choice=True),
    "three_element": dict(lattice=True, monoid=True, converse=True, dedekind=True,
                          cone=True, choice=False, all_or_nothing=False,
                          extensional=True, universal_choice=True),
    "three_element_unit_top": dict(lattice=True, monoid=True, converse=True,
                                   dedekind=True, cone=False, choice=True,
                                   all_or_nothing=True, extensional=False,
                                   universal_choice=True),
    "four_element_point": dict(lattice=True, monoid=True, converse=True,
                               dedekind=True, cone=False, choice=False,
                               all_or_nothing=True, extensional=False,
                               universal_choice=True),
    "desharnais13": dict(lattice=True, monoid=True, converse=True, dedekind=True,
                         cone=True, choice=False, all_or_nothing=True,
                         extensional=False, universal_choice=True),
    "product_two_two": dict(lattice=True, monoid=True, converse=True, dedekind=True,
                            cone=False, choice=True, all_or_nothing=True,
                            extensional=True, universal_choice=True),
}


def test_bundled_names_and_sizes():
    assert BUNDLED_NAMES == tuple(EXPECTED_FLAGS)
    sizes = {name: len(load_bundled(name).elements) for name in BUNDLED_NAMES}
    assert sizes == {
        "one_element": 1,
        "two_element": 2,
        "three_element": 3,
        "three_element_unit_top": 3,
        "four_element_point": 4,
        "desharnais13": 13,
        "product_two_two": 4,
    }


def test_one_element_collapses_constants():
    m = load_bundled("one_element")
    assert m.bot == m.ident == m.top


def test_three_element_unit_top_identifies_id_with_top():
    m = load_bundled("three_element_unit_top")
    assert m.ident == m.top


@pytest.mark.parametrize("name", list(EXPECTED_FLAGS))
def test_axiom_matrix(name):
    rep = check_axioms(load_bundled(name))
    assert rep.flags() == EXPECTED_FLAGS[name]
    assert set(rep.counterexamples) == {a for a, v in EXPECTED_FLAGS[name].items() if not v}


def test_shipped_expectations_agree_with_matrix():
    for bm in bundled_models():
        assert bm.expected.flags() == EXPECTED_FLAGS[bm.name]
        assert check_axioms(bm.model).counterexamples == bm.expected.counterexamples


@pytest.mark.parametrize("name", list(EXPECTED_FLAGS))
def test_stored_counterexamples_still_refute(name):
    m = load_bundled(name)
    rep = check_axioms(m)
    for axiom, ce in rep.counterexamples.items():
        assert recheck(m, axiom, ce), (axiom, ce)


def test_recheck_unknown_axiom():
    m = load_bundled("two_element")
    with pytest.raises(ValueError, match="unknown axiom"):
        recheck(m, "completeness", ("top",))


def test_recheck_is_negative_on_healthy_instances():
    m = load_bundled("two_element")
    assert not recheck(m, "cone", ("top",))
    assert not recheck(m, "dedekind", ("top", "top", "top"))


# two_element is bot < top with top = 𝕀; each change below breaks one
# structural law, which load_model would refuse, so the models are built directly
@pytest.mark.parametrize(
    "axiom,changes,tag",
    [
        ("lattice", dict(bot=1), "bounds"),
        ("monoid", dict(comp=((0, 0), (0, 0))), "unit"),
        ("converse", dict(conv=(1, 0)), "identity"),
    ],
    ids=["lattice", "monoid", "converse"],
)
def test_structural_axiom_counterexamples_replay(axiom, changes, tag):
    healthy = load_bundled("two_element")
    broken = dataclasses.replace(healthy, **changes)
    rep = check_axioms(broken)
    assert not rep.flags()[axiom]
    ce = rep.counterexamples[axiom]
    assert ce[0] == tag
    assert recheck(broken, axiom, ce)
    assert not recheck(healthy, axiom, ce)


def test_report_flags_and_ok():
    rep = check_axioms(load_bundled("three_element"))
    assert tuple(rep.flags()) == AxiomReport.AXIOMS
    assert not rep.ok
    assert check_axioms(load_bundled("two_element")).ok


# -- bundled models are loaded once per process ----------------------------------


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_a_bundled_model_is_loaded_once_and_shared(name):
    assert load_bundled(name) is load_bundled(name)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_a_copy_computes_the_masks_load_model_presets(name):
    # one layout, element j at bit j, whether load_model presets the masks
    # or a copy computes them from its leq rows
    m = load_bundled(name)
    copy = dataclasses.replace(m)
    assert "_masks" in m.__dict__ and "_masks" not in copy.__dict__
    assert copy._masks == m._masks


def test_cache_clear_reloads_equal_bundled_models():
    before = [load_bundled(name) for name in BUNDLED_NAMES]
    cache_clear()
    assert load_bundled.cache_info().currsize == 0
    after = [load_bundled(name) for name in BUNDLED_NAMES]
    assert all(a is not b and a == b for a, b in zip(after, before))


@pytest.mark.parametrize("name", [name for name in BUNDLED_NAMES if name != "one_element"])
def test_a_broken_copy_of_a_shared_model_leaves_it_intact(name):
    m = load_bundled(name)
    check_axioms(m)  # fills the shared model's cached facts
    # every composite is ⊤: 𝕀 is no unit, so a copy that read the shared
    # model's cached rows would pass the monoid laws
    broken = dataclasses.replace(m, comp=tuple((m.top,) * len(row) for row in m.comp))
    assert not check_axioms(broken).flags()["monoid"]
    assert load_bundled(name) is m
    rep, expected = check_axioms(m), models._EXPECTED[name]
    assert rep.flags() == expected["flags"] and rep.counterexamples == expected["counterexamples"]


def test_an_unknown_bundled_name_is_refused_and_not_held():
    load_bundled("two_element")
    held = load_bundled.cache_info().currsize
    with pytest.raises(KeyError, match="no bundled model 'no_such_model'"):
        load_bundled("no_such_model")
    assert load_bundled.cache_info().currsize == held


# -- the 13-element algebra -------------------------------------------------------


def test_desharnais13_structure():
    m = load_bundled("desharnais13")
    e = m.elements
    assert len(e) == 13
    conv_names = {e[i]: e[m.conv[i]] for i in range(13)}
    assert conv_names["b"] == "c" and conv_names["c"] == "b"
    assert conv_names["b+id"] == "id+c" and conv_names["b+E"] == "E+c"
    assert all(conv_names[x] == x for x in ("bot", "a", "id", "E", "b+c", "b+id+c", "top"))
    assert [e[x] for x in m.points()] == ["a"]
    assert [e[x] for x in m.coreflexives()] == ["bot", "a", "id"]
    assert [e[x] for x in m.pers()] == ["bot", "a", "id", "E", "top"]


def test_desharnais13_E_has_no_index_but_top_does():
    m = load_bundled("desharnais13")
    assert m.index_of_per(m.idx("E")) is None
    assert m.elements[m.index_of_per(m.idx("top"))] == "a"


def test_desharnais13_generators():
    m = load_bundled("desharnais13")
    a, e_, top = m.idx("a"), m.idx("E"), m.top
    assert m.elements[m.comp[a][top]] == "b"
    assert m.elements[m.comp[top][a]] == "c"
    assert m.comp[a][e_] == a and m.comp[e_][a] == a


def _join_irreducibles(m: AbstractModel) -> list[int]:
    out = []
    for x in range(len(m.elements)):
        if x == m.bot:
            continue
        below = [y for y in range(len(m.elements)) if m.leq[y][x] and y != x]
        if all(m.joins[p][q] != x for p in below for q in below):
            out.append(x)
    return out


def test_desharnais13_composition_table_is_forced():
    """Rebuild the composition table by backtracking from first principles.

    Unknowns are the products of join-irreducible elements (everything else
    follows by join-distributivity). Constraints: 𝕀 unit, monotonicity,
    a ⊆ 𝕀 ⊆ E squeezing, converse contravariance, associativity, the cone
    rule, b = a∘⊤ and c = ⊤∘a, and all-or-nothing at the point a. Exactly one
    table survives, and it is the one shipped in the data file.
    """
    m = load_bundled("desharnais13")
    n = len(m.elements)
    A, B, C, ID, E = (m.idx(k) for k in ("a", "b", "c", "id", "E"))

    irr = _join_irreducibles(m)
    assert sorted(m.elements[i] for i in irr) == ["E", "a", "b", "c", "id"]
    irr_below = {x: [i for i in irr if m.leq[i][x]] for x in range(n)}
    for x in range(n):
        assert m.join_all(irr_below[x]) == x  # every element is a join of irreducibles

    def ext(t, x, y):
        out = m.bot
        for i in irr_below[x]:
            for j in irr_below[y]:
                out = m.joins[out][t[(i, j)]]
        return out

    def static_dom(i, j):
        vs = range(n)
        if (m.conv[j], m.conv[i]) == (i, j):
            vs = [v for v in vs if m.conv[v] == v]
        if i == A:
            vs = [v for v in vs if m.leq[v][j]]
        if j == A:
            vs = [v for v in vs if m.leq[v][i]]
        if i == E:
            vs = [v for v in vs if m.leq[j][v]]
        if j == E:
            vs = [v for v in vs if m.leq[i][v]]
        return list(vs)

    cells = [(i, j) for i in irr for j in irr if i != ID and j != ID]
    # a-row and a-column first (the generator equations prune those hard);
    # converse mirrors adjacent so they are derived, not searched
    order, seen = [], set()
    for cell in sorted(cells, key=lambda p: (p[0] != A and p[1] != A, p)):
        if cell in seen:
            continue
        order.append(cell)
        seen.add(cell)
        mirror = (m.conv[cell[1]], m.conv[cell[0]])
        if mirror != cell and mirror not in seen:
            order.append(mirror)
            seen.add(mirror)

    dom = {cell: static_dom(*cell) for cell in cells}

    def monotone_ok(t, cell, v):
        i, j = cell
        for other, v2 in t.items():
            if m.leq[other[0]][i] and m.leq[other[1]][j] and not m.leq[v2][v]:
                return False
            if m.leq[i][other[0]] and m.leq[j][other[1]] and not m.leq[v][v2]:
                return False
        return True

    def full_checks(t):
        for i in irr:
            for j in irr:
                if m.conv[t[(i, j)]] != t[(m.conv[j], m.conv[i])]:
                    return False
                if ext(t, i, j) != t[(i, j)]:
                    return False
        g = [[ext(t, x, y) for y in range(n)] for x in range(n)]
        for x in range(n):
            if x != m.bot and g[g[m.top][x]][m.top] != m.top:
                return False
        if g[A][m.top] != B or g[m.top][A] != C:
            return False
        atop_a = g[g[A][m.top]][A]
        for r in range(n):
            sq = g[g[A][r]][A]
            if sq != m.bot and sq != atop_a:
                return False
        for x in range(n):
            gx = g[x]
            for y in range(n):
                gxy = g[gx[y]]
                gy = g[y]
                for z in range(n):
                    if gxy[z] != gx[gy[z]]:
                        return False
        return True

    solutions = []

    def backtrack(t, k):
        if k == len(order):
            if full_checks(t):
                solutions.append(dict(t))
            return
        cell = order[k]
        i, j = cell
        mirror = (m.conv[j], m.conv[i])
        if mirror in t:
            v = m.conv[t[mirror]]
            if v in dom[cell] and monotone_ok(t, cell, v):
                t[cell] = v
                backtrack(t, k + 1)
                del t[cell]
            return
        for v in dom[cell]:
            if not monotone_ok(t, cell, v):
                continue
            t[cell] = v
            row_a = [t.get((A, jj)) for jj in irr]
            if all(x is not None for x in row_a) and m.join_all(row_a) != B:
                del t[cell]
                continue
            col_a = [t.get((ii, A)) for ii in irr]
            if all(x is not None for x in col_a) and m.join_all(col_a) != C:
                del t[cell]
                continue
            backtrack(t, k + 1)
            del t[cell]

    start = {(ID, j): j for j in irr}
    start.update({(i, ID): i for i in irr})
    backtrack(start, 0)

    assert len(solutions) == 1
    sol = solutions[0]
    assert all(m.comp[i][j] == sol[(i, j)] for i in irr for j in irr)


# -- the violation generators against the scalar oracles ---------------------------


def _set_comp(m: AbstractModel, x: str, y: str, value: str) -> AbstractModel:
    comp = [list(row) for row in m.comp]
    comp[m.idx(x)][m.idx(y)] = m.idx(value)
    return dataclasses.replace(m, comp=tuple(map(tuple, comp)))


def _swap_comp(m: AbstractModel, first: tuple[str, str], second: tuple[str, str]) -> AbstractModel:
    (x1, y1), (x2, y2) = first, second
    m1 = _set_comp(m, x1, y1, m.elements[m.comp[m.idx(x2)][m.idx(y2)]])
    return _set_comp(m1, x2, y2, m.elements[m.comp[m.idx(x1)][m.idx(y1)]])


def _m3() -> AbstractModel:
    """The diamond M3 (⊥ < x, y, z < ⊤) with meet as composition and ⊤ as unit:
    the lattice is not distributive, so neither is composition over joins."""
    n = 5
    below = {0: {0}, 1: {0, 1}, 2: {0, 2}, 3: {0, 3}, 4: set(range(5))}
    leq = tuple(tuple(i in below[j] for j in range(n)) for i in range(n))
    meets = tuple(tuple(i if i == j or j == 4 else j if i == 4 else 0 for j in range(n)) for i in range(n))
    joins = tuple(tuple(i if i == j or j == 0 else j if i == 0 else 4 for j in range(n)) for i in range(n))
    return AbstractModel(name="m3", elements=("bot", "x", "y", "z", "top"), leq=leq, comp=meets,
                         conv=tuple(range(n)), ident=4, top=4, bot=0, joins=joins, meets=meets)


def _lattice_model(name: str, elements: tuple[str, ...], leq: list[list[bool]]) -> AbstractModel | None:
    """The bounded lattice with this order, with meet as composition and its
    greatest element as unit like _m3, or None if the order lacks a join or a
    meet or its first element is not least and its last greatest. Joins and
    meets are found by brute force over the bounds of each pair."""
    n = len(elements)
    if not (all(leq[0]) and all(row[-1] for row in leq)):
        return None

    def extremum(bounds: list[int], below: bool) -> int | None:
        best = [b for b in bounds if all(leq[c][b] if below else leq[b][c] for c in bounds)]
        return best[0] if best else None

    joins = [[extremum([k for k in range(n) if leq[i][k] and leq[j][k]], False) for j in range(n)] for i in range(n)]
    meets = [[extremum([k for k in range(n) if leq[k][i] and leq[k][j]], True) for j in range(n)] for i in range(n)]
    if any(None in row for row in joins + meets):
        return None
    meets = tuple(map(tuple, meets))
    return AbstractModel(name=name, elements=elements, leq=tuple(map(tuple, leq)), comp=meets,
                         conv=tuple(range(n)), ident=n - 1, top=n - 1, bot=0,
                         joins=tuple(map(tuple, joins)), meets=meets)


def _n5() -> AbstractModel:
    """The pentagon N5 (⊥ < a < c < ⊤ and ⊥ < b < ⊤): not distributive."""
    below = {0: {0}, 1: {0, 1}, 2: {0, 1, 2}, 3: {0, 3}, 4: set(range(5))}
    leq = [[i in below[j] for j in range(5)] for i in range(5)]
    return _lattice_model("n5", ("bot", "a", "c", "b", "top"), leq)


def _bounded_lattices(most: int) -> Iterator[AbstractModel]:
    """Every lattice on the elements 0, …, n-1 for n ≤ most with 0 least and
    n-1 greatest, labelled: each partial order of the n-2 elements between,
    by brute force over their pairs."""
    for n in range(1, most + 1):
        inner = range(1, n - 1)
        cells = [(i, j) for i in inner for j in inner if i < j]
        for kinds in product(range(3), repeat=len(cells)):  # incomparable, i < j or j < i
            leq = [[i == j or i == 0 or j == n - 1 for j in range(n)] for i in range(n)]
            for (i, j), kind in zip(cells, kinds):
                leq[i][j], leq[j][i] = kind == 1, kind == 2
            if all(leq[i][k] or not (leq[i][j] and leq[j][k]) for i in inner for j in inner for k in inner):
                m = _lattice_model(f"lattice{n}", tuple(f"e{i}" for i in range(n)), leq)
                if m is not None:
                    yield m


def _conv_fixing(m: AbstractModel, x: str) -> AbstractModel:
    conv = list(m.conv)
    conv[m.idx(x)] = m.idx(x)
    return dataclasses.replace(m, conv=tuple(conv))


_PRODUCTS = [
    ("two_element", "three_element"),
    ("three_element", "three_element_unit_top"),
    ("four_element_point", "three_element"),
    ("three_element_unit_top", "four_element_point"),
    ("desharnais13", "two_element"),
]

# name -> (build, the axiom whose violation list must not be empty)
_BROKEN = {
    "permuted-comp": (lambda: _swap_comp(load_bundled("desharnais13"), ("a", "top"), ("b", "c")), "monoid"),
    "non-associative": (lambda: _set_comp(load_bundled("desharnais13"), "E", "E", "id"), "monoid"),
    "non-distributive": (_m3, "lattice"),
    "pentagon": (_n5, "lattice"),
    "bad-converse": (lambda: _conv_fixing(load_bundled("desharnais13"), "b"), "converse"),
}


def _swap_joins(m: AbstractModel, first: tuple[str, str], second: tuple[str, str]) -> AbstractModel:
    joins = [list(row) for row in m.joins]
    (i1, j1), (i2, j2) = [(m.idx(x), m.idx(y)) for x, y in (first, second)]
    joins[i1][j1], joins[i2][j2] = joins[i2][j2], joins[i1][j1]
    return dataclasses.replace(m, joins=tuple(map(tuple, joins)))


# (field, seed) of each _perturbed copy; comp changes are where the reduced
# monoid decision has to find the fault, so they get the most seeds
_PERTURBATIONS = [(field, seed) for field in ("comp", "joins", "meets", "conv", "leq")
                  for seed in range(20 if field == "comp" else 3)]


def _perturbed(field: str, seed: int) -> AbstractModel:
    """desharnais13 × two_element with one cell of one table changed at random."""
    m = product_model(load_bundled("desharnais13"), load_bundled("two_element"))
    rng = random.Random(f"{field}:{seed}")
    n = len(m.elements)
    i, j = rng.randrange(n), rng.randrange(n)
    if field == "conv":
        conv = list(m.conv)
        conv[i] = rng.choice([v for v in range(n) if v != conv[i]])
        return dataclasses.replace(m, conv=tuple(conv))
    table = [list(row) for row in getattr(m, field)]
    if field == "leq":
        table[i][j] = not table[i][j]
    else:
        table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
    return dataclasses.replace(m, **{field: tuple(map(tuple, table))})


# name -> (build, the axiom whose violation list must not be empty, whether
# the copy keeps its join-irreducibles), for the reduced decisions: the law is
# decided on the join-irreducibles first, and the full search runs after that
# finds a fault or when the join-irreducibles cannot be vouched for
_REDUCED = {
    # joins[a][b] is no longer the lub of a and b
    "swapped-joins": (lambda: _swap_joins(load_bundled("desharnais13"), ("a", "b"), ("a", "c")), "lattice", False),
    # b+id and id+c are both joins of two smaller elements
    "reducible-comp": (lambda: _set_comp(load_bundled("desharnais13"), "b+id", "id+c", "b+id"), "monoid", True),
    # contravariant and monotone, but of order three: only the involution law fails
    "cyclic-converse": (lambda: dataclasses.replace(
        product_model(load_bundled("two_element"), load_bundled("product_two_two")),
        conv=(0, 2, 4, 6, 1, 3, 5, 7)), "converse", True),
    # not monotone; Dedekind fails only where r or s is join-reducible, so the
    # reduced Dedekind decision must not be trusted without the converse law
    "swapped-converse": (lambda: dataclasses.replace(load_bundled("product_two_two"), conv=(3, 1, 2, 0)),
                         "dedekind", True),
}


def _differential_cases():
    for name in BUNDLED_NAMES:
        yield pytest.param(lambda name=name: load_bundled(name), None, id=name)
    for f1, f2 in _PRODUCTS:
        build = lambda f1=f1, f2=f2: product_model(load_bundled(f1), load_bundled(f2))
        yield pytest.param(build, None, id=f"{f1}x{f2}")
    for name, (build, broken) in _BROKEN.items():
        yield pytest.param(build, broken, id=name)
    for name, (build, broken, _) in _REDUCED.items():
        yield pytest.param(build, broken, id=name)
    for field, seed in _PERTURBATIONS:
        yield pytest.param(lambda field=field, seed=seed: _perturbed(field, seed), None, id=f"{field}-{seed}")


@pytest.mark.parametrize("build,broken", _differential_cases())
def test_violation_generators_match_scalar_oracles(build, broken):
    """Every generator yields the full ordered list of the oracle's instances."""
    m = build()
    assert tuple(_VIOLATIONS) == tuple(OAXIOMS)
    for axiom, violations in _VIOLATIONS.items():
        assert list(violations(m)) == list(OAXIOMS[axiom](m)), axiom
    if broken is not None:
        assert list(OAXIOMS[broken](m)), f"the copy does not break {broken}"


@pytest.mark.parametrize("true, false", [(2, 0), (255, 0), (256, 0), (1, None), (0.5, ""), ("x", 0)])
def test_the_dedekind_search_reads_leq_entries_by_truth(true, false):
    """A directly built model may hold any truth values in leq: construction
    stores them as the 0/1 order they stand for, so the full Dedekind search
    and check_axioms find what they find on the original, as the oracle does."""
    m = _REDUCED["swapped-converse"][0]()
    n = len(m.elements)
    odd = dataclasses.replace(m, leq=tuple(tuple(true if v else false for v in row) for row in m.leq))
    assert odd.leq == m.leq and odd == m
    found = list(models._dedekind_search(odd, range(n)))
    assert found and found == list(models._dedekind_search(m, range(n))) == list(OAXIOMS["dedekind"](odd))
    assert check_axioms(odd).counterexamples["dedekind"] == check_axioms(m).counterexamples["dedekind"]


@pytest.mark.parametrize("name", list(_REDUCED))
def test_reduced_cases_keep_or_lose_their_join_irreducibles(name):
    build, _, kept = _REDUCED[name]
    assert (build()._irreducibles is not None) == kept


def test_perturbed_copies_break_something():
    """Each seeded copy is refuted by some oracle, so the differential cases
    above compare nonempty lists; comp and conv changes keep the lattice, so
    there the reduced decision is what has to find the fault."""
    for field, seed in _PERTURBATIONS:
        m = _perturbed(field, seed)
        assert any(next(oracle(m), None) for oracle in OAXIOMS.values()), (field, seed)
        if field in ("comp", "conv"):
            assert m._irreducibles is not None, (field, seed)


def _single_cell_changes(m: AbstractModel) -> Iterator[AbstractModel]:
    """Every copy of m with one cell of comp set to another element."""
    n = len(m.elements)
    for i, row in enumerate(m.comp):
        for j in range(n):
            for v in range(n):
                if v != row[j]:
                    changed = bytearray(row)
                    changed[j] = v
                    yield dataclasses.replace(m, comp=(*m.comp[:i], bytes(changed), *m.comp[i + 1:]))


def _join_right_changes(m: AbstractModel) -> Iterator[AbstractModel]:
    """Every copy of m with one cell comp[i][y], i join-irreducible, set to
    another element, and each row x the join of the rows of the
    join-irreducibles below x. On a distributive lattice ∘ then still
    preserves joins in its left argument, so a fault has to be found by the
    unit, zero, join-left or associativity checks."""
    n = len(m.elements)
    irr = m._irreducibles
    below = [[i for i in irr if m.leq[i][x]] for x in range(n)]
    for i in irr:
        for y in range(n):
            for v in range(n):
                if v != m.comp[i][y]:
                    rows = {j: bytearray(m.comp[j]) for j in irr}
                    rows[i][y] = v
                    comp = tuple(bytes([m.join_all(rows[j][z] for j in below[x]) for z in range(n)]) for x in range(n))
                    yield dataclasses.replace(m, comp=comp)


@pytest.mark.parametrize("f1,f2", [("two_element", "three_element"), ("three_element", "three_element_unit_top")])
def test_the_reduced_monoid_decision_holds_exactly_when_the_oracle_finds_nothing(f1, f2):
    """_monoid_holds decides the monoid laws with arguments in J only; on
    every single-cell change of comp, and on every change that keeps ∘
    join-preserving on the left, it agrees with the scalar oracle, and the
    generator still yields the oracle's full ordered list."""
    m = product_model(load_bundled(f1), load_bundled(f2))
    outcomes = Counter()
    for changed in [m, *_single_cell_changes(m), *_join_right_changes(m)]:
        expected = list(omonoid(changed))
        assert changed._irreducibles is not None
        holds = models._monoid_holds(changed)
        outcomes[holds] += 1
        assert holds == (not expected)
        assert list(_VIOLATIONS["monoid"](changed)) == expected
    assert outcomes[True] and outcomes[False]


def test_the_reduced_monoid_decision_on_every_table_of_three_element():
    """All 3^9 composition tables on three_element, the chain bot < id < top:
    some break only a unit or zero row or column, which the changes above
    never do without a failure in J as well."""
    m = load_bundled("three_element")
    holding = []
    for cells in product(range(3), repeat=9):
        changed = dataclasses.replace(m, comp=(bytes(cells[:3]), bytes(cells[3:6]), bytes(cells[6:])))
        holds = models._monoid_holds(changed)
        assert holds == (next(omonoid(changed), None) is None), cells
        if holds:
            holding.append(cells)
    assert tuple(b"".join(m.comp)) in holding


# -- join-irreducibles ---------------------------------------------------------------


def _irreducible_cases():
    for name in BUNDLED_NAMES:
        yield pytest.param(lambda name=name: load_bundled(name), id=name)
    for f1, f2 in _PRODUCTS:
        yield pytest.param(lambda f1=f1, f2=f2: product_model(load_bundled(f1), load_bundled(f2)), id=f"{f1}x{f2}")


@pytest.mark.parametrize("build", _irreducible_cases())
def test_join_irreducibles_match_the_definition(build):
    m = build()
    expected = tuple(_join_irreducibles(m))  # x ≠ ⊥ and not the join of two smaller elements
    assert m._irreducibles == expected
    # the loader finds them on its own masks, a model built directly on its tables
    assert load_model(model_to_dict(m))._irreducibles == expected
    assert dataclasses.replace(m)._irreducibles == expected


@pytest.mark.parametrize("f1,f2", _PRODUCTS)
def test_product_join_irreducibles_add_up(f1, f2):
    """J(A×B) is J(A)×{⊥} together with {⊥}×J(B)."""
    a, b = load_bundled(f1), load_bundled(f2)
    assert len(product_model(a, b)._irreducibles) == len(a._irreducibles) + len(b._irreducibles)


def test_join_irreducibles_need_a_lattice_with_bot_least():
    two = load_bundled("two_element")
    assert two._irreducibles == (1,)
    assert dataclasses.replace(two, bot=1)._irreducibles is None  # bot is not the least element
    assert dataclasses.replace(two, joins=((0, 0), (1, 1)))._irreducibles is None  # 0 ∨ 1 is not 0
    assert dataclasses.replace(two, meets=((0, 1), (0, 1)))._irreducibles is None
    assert dataclasses.replace(two, leq=((True, True), (True, True)))._irreducibles is None  # not antisymmetric
    assert dataclasses.replace(two, leq=((True, True), (False, False)))._irreducibles is None  # not reflexive
    chain = load_model(_chain_data(3))
    assert chain._irreducibles == (1, 2)
    intransitive = tuple(tuple(v and (i, j) != (0, 2) for j, v in enumerate(row)) for i, row in enumerate(chain.leq))
    assert dataclasses.replace(chain, leq=intransitive)._irreducibles is None  # e0 ⊆ e1 ⊆ e2 but not e0 ⊆ e2
    # a table over other elements is no model, and is refused at construction
    with pytest.raises(ModelFormatError, match=r"^format: comp\[1\]\[1\]: 2 is not an element index 0\.\.1$"):
        dataclasses.replace(two, comp=((0, 0), (0, 2)))
    with pytest.raises(ModelFormatError, match="^format: 'conv' must hold 2 element indexes$"):
        dataclasses.replace(two, conv=(0,))


# -- the lattice law by join-primality --------------------------------------------


def test_the_lattice_decision_on_every_bounded_lattice_of_at_most_six_elements():
    """_lattice_reduced, which asks every join-irreducible to be join-prime,
    is True exactly when the oracle finds no violation, and check_axioms
    reports the oracle's first instance, on each of the 238 labelled bounded
    lattices of at most 6 elements."""
    lattices = list(_bounded_lattices(6))
    outcomes = Counter()
    for m in lattices:
        expected = list(olattice(m))
        assert m._irreducibles is not None
        assert m._lattice_reduced == (not expected), m.leq
        first = check_axioms(m).counterexamples.get("lattice")
        assert first == (models._names(m, expected[0]) if expected else None), m.leq
        outcomes[bool(expected)] += 1
    assert outcomes == {False: 102, True: 136}
    assert {_m3().leq, _n5().leq} <= {m.leq for m in lattices}


def _lattice_cell_changes(m: AbstractModel) -> Iterator[AbstractModel]:
    """Every copy of m with one cell of joins or meets set to another element,
    one cell of leq flipped, or another element as top or as bot."""
    n = len(m.elements)
    for bound in ("top", "bot"):
        for v in range(n):
            if v != getattr(m, bound):
                yield dataclasses.replace(m, **{bound: v})
    for field in ("joins", "meets", "leq"):
        table = getattr(m, field)
        for i in range(n):
            for j in range(n):
                for v in (not table[i][j],) if field == "leq" else range(n):
                    if v != table[i][j]:
                        rows = list(map(bytearray, table))
                        rows[i][j] = v
                        yield dataclasses.replace(m, **{field: tuple(map(bytes, rows))})


@pytest.mark.parametrize("name", ["two_element", "three_element", "three_element_unit_top"])
def test_the_lattice_decision_on_single_cell_changes(name):
    """A change the reduced decision cannot vouch for runs the full search,
    and one it can is decided exactly; both give the oracle's list."""
    outcomes = Counter()
    for m in _lattice_cell_changes(load_bundled(name)):
        expected = list(olattice(m))
        if m._lattice_reduced:
            assert not expected
        elif m._irreducibles is not None:
            assert expected
        assert list(_VIOLATIONS["lattice"](m)) == expected
        assert check_axioms(m).counterexamples.get("lattice") == (models._names(m, expected[0]) if expected else None)
        outcomes[m._irreducibles is not None, bool(expected)] += 1
    assert outcomes[False, True] and outcomes[False, False]


# -- atoms ----------------------------------------------------------------------------


def _defined_atoms(m: AbstractModel) -> list[int]:
    """The x such that every q with leq[q][x] is x or ⊥, by truth value."""
    n = len(m.elements)
    return [x for x in range(n) if all(not m.leq[q][x] or q == x or q == m.bot for q in range(n))]


def _atom_cases():
    for name in BUNDLED_NAMES:
        yield pytest.param(lambda name=name: load_bundled(name), id=name)
    yield pytest.param(lambda: [_build(factors) for factors in _ordered_products(64)], id="products")
    yield pytest.param(_m3, id="M3")
    yield pytest.param(_n5, id="N5")


@pytest.mark.parametrize("build", _atom_cases())
def test_atoms_and_points_match_the_definition(build):
    """atoms() reads the strict down-sets off the order's masks, which a copy
    derives from its leq; a copy whose leq holds other truth values stores
    the same 0/1 rows."""
    built = build()
    for m in built if isinstance(built, list) else [built]:
        atoms = _defined_atoms(m)
        points = tuple(x for x in atoms if x != m.bot and m.leq[x][m.ident])
        fresh = dataclasses.replace(m)
        assert fresh.atoms() == atoms and fresh._points == points, m.name
        truthy = dataclasses.replace(m, leq=tuple(tuple(2 if v else 0 for v in row) for row in m.leq))
        assert truthy.leq == m.leq
        assert truthy.atoms() == atoms and truthy._points == points, m.name


# -- products ----------------------------------------------------------------------


def test_product_model_matches_shipped_fixture():
    two = load_bundled("two_element")
    built = product_model(two, two)
    shipped = load_bundled("product_two_two")
    assert built.elements == shipped.elements
    assert built.leq == shipped.leq
    assert built.comp == shipped.comp
    assert built.conv == shipped.conv
    assert (built.ident, built.top, built.bot) == (shipped.ident, shipped.top, shipped.bot)


def _product_via_names(m1: AbstractModel, m2: AbstractModel) -> AbstractModel:
    """The reference construction: element-name tables run through load_model."""
    names = [f"{a}|{b}" for a in m1.elements for b in m2.elements]
    n2 = len(m2.elements)
    pairs = [(i, j) for i in range(len(m1.elements)) for j in range(n2)]

    def name(i: int, j: int) -> str:
        return names[i * n2 + j]

    data = {
        "elements": names,
        "leq": [[names[a], names[b]] for a, (i, j) in enumerate(pairs) for b, (k, l) in enumerate(pairs)
                if m1.leq[i][k] and m2.leq[j][l]],
        "compose": [[name(m1.comp[i][k], m2.comp[j][l]) for k, l in pairs] for i, j in pairs],
        "converse": [name(m1.conv[i], m2.conv[j]) for i, j in pairs],
        "identity": name(m1.ident, m2.ident),
        "top": name(m1.top, m2.top),
        "bottom": name(m1.bot, m2.bot),
    }
    return load_model(data, name=f"{m1.name}x{m2.name}")


def test_product_model_matches_the_loader_construction():
    """The pinned benchmark products and desharnais13², field for field."""
    frozen = json.loads((Path(__file__).parents[1] / "perfbench" / "frozen.json").read_text())
    cases = [key.split("*") for key in frozen["axiom_flags"]] + [["desharnais13", "desharnais13"]]
    bundled = {name: load_bundled(name) for name in BUNDLED_NAMES}
    for first, *rest in cases:
        built = reference = bundled[first]
        for factor in rest:
            built = product_model(built, bundled[factor])
            reference = _product_via_names(reference, bundled[factor])
        for f in dataclasses.fields(AbstractModel):
            assert getattr(built, f.name) == getattr(reference, f.name), (first, rest, f.name)


def test_product_over_256_elements_is_refused():
    d = load_bundled("desharnais13")
    with pytest.raises(ModelFormatError) as exc:
        product_model(product_model(d, d), load_bundled("two_element"))
    assert exc.value.category == "size"
    assert str(exc.value) == "size: 338 elements, more than the 256 a model may have"


def test_product_of_a_broken_factor_builds_and_check_axioms_reports_it():
    broken = _set_comp(load_bundled("desharnais13"), "E", "E", "id")
    m = product_model(broken, load_bundled("one_element"))
    rep = check_axioms(m)
    assert not rep.monoid
    assert rep.counterexamples["monoid"] == ("join-left", "E|e", "b|e", "E|e")
    assert recheck(m, "monoid", ("join-left", "E|e", "b|e", "E|e"))


def test_product_refuses_colliding_element_names():
    two = load_bundled("two_element")
    m1 = dataclasses.replace(two, elements=("x", "x|y"))
    m2 = dataclasses.replace(two, elements=("y|z", "z"))  # x|(y|z) and (x|y)|z
    with pytest.raises(ModelFormatError, match="'elements' contains duplicates"):
        product_model(m1, m2)


def test_product_of_desharnais13_with_itself():
    """169 elements load and check row by row, with the verdicts of the
    element-by-element checker."""
    d = load_bundled("desharnais13")
    m = product_model(d, d)
    assert len(m.elements) == 169
    rep = check_axioms(m)
    assert rep.flags() == dict(lattice=True, monoid=True, converse=True, dedekind=True,
                               cone=False, choice=False, all_or_nothing=True,
                               extensional=False, universal_choice=True)
    assert rep.counterexamples == {"cone": ("bot|a",), "choice": ("bot|E",),
                                   "extensional": ("bot|id",)}


def _chain_data(n: int) -> dict:
    """The chain e0 < e1 < … with meet as composition: a valid model."""
    names = [f"e{i}" for i in range(n)]
    return {"elements": names,
            "leq": [[names[i], names[j]] for i in range(n) for j in range(i, n)],
            "compose": [[names[min(i, j)] for j in range(n)] for i in range(n)],
            "converse": names, "identity": names[-1], "top": names[-1], "bottom": names[0]}


def test_models_over_256_elements_are_refused():
    assert len(load_model(_chain_data(256)).elements) == 256
    with pytest.raises(ModelFormatError) as exc:
        load_model(_chain_data(257))
    assert exc.value.category == "size"
    assert str(exc.value) == "size: 257 elements, more than the 256 a model may have"
    with pytest.raises(ModelFormatError) as exc:
        dataclasses.replace(load_bundled("two_element"), elements=tuple(f"e{i}" for i in range(257)))
    assert str(exc.value) == "size: 257 elements, more than the 256 a model may have"


# two_element is bot < top with top = 𝕀; each change below is no model at
# all, whatever its laws, and construction refuses it
_REFUSED = {
    "entry-2": (dict(comp=((0, 0), (0, 2))), "format", "comp[1][1]: 2 is not an element index 0..1"),
    "entry-negative": (dict(comp=((0, -1), (0, 1))), "format", "comp[0][1]: -1 is not an element index 0..1"),
    "entry-300": (dict(joins=((0, 1), (1, 300))), "format", "joins[1][1]: 300 is not an element index 0..1"),
    "entry-not-int": (dict(meets=((0, 0), (0, 1.0))), "format", "meets[1][1]: 1.0 is not an element index 0..1"),
    "entry-bool": (dict(conv=(False, True)), "format", "conv[0]: False is not an element index 0..1"),
    "ragged-leq": (dict(leq=((1, 1), (0,))), "format", "'leq' must be a 2x2 table"),
    "short-conv": (dict(conv=(0,)), "format", "'conv' must hold 2 element indexes"),
    "ident-5": (dict(ident=5), "format", "ident: 5 is not an element index 0..1"),
    "ident-negative": (dict(ident=-1), "format", "ident: -1 is not an element index 0..1"),
    "top-true": (dict(top=True), "format", "top: True is not an element index 0..1"),
    "size-257": (dict(elements=tuple(f"e{i}" for i in range(257))), "size",
                 "257 elements, more than the 256 a model may have"),
    "duplicate-names": (dict(elements=("x", "x")), "format", "'elements' contains duplicates"),
}


@pytest.mark.parametrize("changes,category,message", _REFUSED.values(), ids=_REFUSED)
def test_a_direct_build_that_is_no_model_is_refused(changes, category, message):
    with pytest.raises(ModelFormatError) as exc:
        dataclasses.replace(load_bundled("two_element"), **changes)
    assert exc.value.category == category
    assert str(exc.value) == f"{category}: {message}"


def test_a_direct_build_is_refused_under_python_O():
    script = (
        "import dataclasses\n"
        "from relalg.models import ModelFormatError, load_bundled\n"
        "assert False, 'asserts must be off'\n"
        "try:\n"
        "    dataclasses.replace(load_bundled('two_element'), joins=((0, 1), (1, 300)))\n"
        "except ModelFormatError as e:\n"
        "    print(e)\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "format: joins[1][1]: 300 is not an element index 0..1\n"


def test_product_breaks_exactly_the_cone_rule():
    rep = check_axioms(load_bundled("product_two_two"))
    assert rep.flags() == dict(lattice=True, monoid=True, converse=True, dedekind=True,
                               cone=False, choice=True, all_or_nothing=True,
                               extensional=True, universal_choice=True)
    assert rep.counterexamples == {"cone": ("bot|top",)}
    assert recheck(load_bundled("product_two_two"), "cone", ("bot|top",))


# -- loading & validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "fixture,category,fragment",
    [
        ("corrupt_format", "format", "3x3 matrix"),
        ("corrupt_order", "order", "not antisymmetric"),
        ("corrupt_lattice", "lattice", "no unique join"),
        ("corrupt_converse", "converse", "(id, top)"),
        ("broken_assoc", "associativity", "(a, a, top)"),
    ],
)
def test_loader_diagnostics(fixture, category, fragment):
    with pytest.raises(ModelFormatError) as exc:
        load_model(FIXTURES / f"{fixture}.json")
    assert exc.value.category == category
    assert fragment in str(exc.value)


def _order_data(elements: list[str], pairs: list[tuple[str, str]]) -> dict:
    """A model whose order is the reflexive pairs plus the given ones; the
    other tables are well shaped, so only the order can fail."""
    n = len(elements)
    return {"elements": elements, "leq": [[x, x] for x in elements] + [list(p) for p in pairs],
            "compose": [[elements[0]] * n for _ in range(n)], "converse": list(elements),
            "identity": elements[0], "top": elements[-1], "bottom": elements[0]}


@pytest.mark.parametrize(
    "data,category,message",
    [
        (_order_data(["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "b"), ("b", "a"),
                                                 ("a", "top"), ("b", "top"), ("bot", "top")]),
         "order", "not antisymmetric: 'a' and 'b'"),
        # w ⊆ y ⊆ x and w ⊆ y ⊆ z both fail; x comes first in element order
        (_order_data(["w", "x", "y", "z"], [("w", "y"), ("y", "x"), ("y", "z")]),
         "order", "not transitive: 'w' ⊆ 'y' ⊆ 'x' but not 'w' ⊆ 'x'"),
        (_order_data(["bot", "x", "y"], [("bot", "x"), ("bot", "y")]),
         "lattice", "no unique join for 'x' and 'y'"),
        (_order_data(["x", "y", "top"], [("x", "top"), ("y", "top")]),
         "lattice", "no unique meet for 'x' and 'y'"),
        # neither a join nor a meet: the join is looked at first
        (_order_data(["x", "y"], []), "lattice", "no unique join for 'x' and 'y'"),
        (FIXTURES / "corrupt_order.json", "order", "not antisymmetric: 'id' and 'top'"),
        (FIXTURES / "corrupt_lattice.json", "lattice", "no unique join for 'x' and 'y'"),
        # bot < a < x, y: only x ∨ y is missing, at (3, 2) below the diagonal
        # and at (2, 3) in the upper triangle, the half the loader derives
        (_order_data(["bot", "a", "y", "x"], [("bot", "a"), ("bot", "x"), ("bot", "y"), ("a", "x"), ("a", "y")]),
         "lattice", "no unique join for 'y' and 'x'"),
        # x, y < a < top: only x ∧ y is missing
        (_order_data(["top", "a", "y", "x"], [("a", "top"), ("x", "top"), ("y", "top"), ("x", "a"), ("y", "a")]),
         "lattice", "no unique meet for 'y' and 'x'"),
        # u ⊆ y ⊆ u: every meet and join of the up- and down-sets exists
        (_order_data(["bot", "u", "y", "top"], [("bot", "u"), ("bot", "y"), ("bot", "top"), ("u", "y"),
                                                ("y", "u"), ("u", "top"), ("y", "top")]),
         "order", "not antisymmetric: 'u' and 'y'"),
    ],
    ids=["antisymmetry", "transitivity", "join", "meet", "join-first", "corrupt_order", "corrupt_lattice",
         "join-below-diagonal", "meet-only", "antisymmetry-with-all-bounds"],
)
def test_loader_order_and_lattice_diagnostics_exact(data, category, message):
    with pytest.raises(ModelFormatError) as exc:
        load_model(data)
    assert exc.value.category == category
    assert str(exc.value) == f"{category}: {message}"


@pytest.mark.parametrize("entry", [["bot", "top", "top"], ["bot"], "bt", {"bot": "top"}])
def test_loader_names_a_malformed_leq_pair(entry):
    data = model_to_dict(load_bundled("two_element"))
    data["leq"].insert(1, entry)
    with pytest.raises(ModelFormatError) as exc:
        load_model(data)
    assert str(exc.value) == f"format: leq[1]: expected an [x, y] pair, got {entry!r}"


@pytest.mark.parametrize(
    "key,at,value",
    [("leq", (2,), ["top", "nope"]), ("compose", (1, 0), "nope"), ("compose", (0, 1), 7), ("converse", (1,), None)],
)
def test_loader_names_the_first_unknown_element(key, at, value):
    data = model_to_dict(load_bundled("two_element"))
    row = data[key]
    for i in at[:-1]:
        row = row[i]
    row[at[-1]] = value
    where = "".join(f"[{i}]" for i in at)
    unknown = value[1] if key == "leq" else value
    with pytest.raises(ModelFormatError) as exc:
        load_model(data)
    assert str(exc.value) == f"format: {key}{where}: unknown element {unknown!r}"


def test_loader_rejects_missing_key():
    with pytest.raises(ModelFormatError, match="missing key 'converse'"):
        load_model({"elements": ["e"], "leq": [["e", "e"]], "compose": [["e"]],
                    "identity": "e", "top": "e", "bottom": "e"})


def test_loader_rejects_unknown_element():
    with pytest.raises(ModelFormatError, match="unknown element 'zz'"):
        load_model({"elements": ["e"], "leq": [["e", "zz"]], "compose": [["e"]],
                    "converse": ["e"], "identity": "e", "top": "e", "bottom": "e"})


def test_loader_rejects_bad_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elements": [,]}')
    with pytest.raises(ModelFormatError, match="invalid JSON at line 1"):
        load_model(path)


def test_loader_reads_files_as_utf8(tmp_path):
    text = json.dumps(model_to_dict(load_bundled("two_element")), ensure_ascii=False).replace('"bot"', '"⊥"')
    path = tmp_path / "two.json"
    path.write_bytes(text.encode("utf-8"))
    assert load_model(path).elements == ("⊥", "top")
    path.write_bytes(text.encode("utf-8").replace("⊥".encode("utf-8"), b"\xff", 1))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert exc.value.category == "format"
    assert str(exc.value) == f"format: {path}: invalid JSON at line 1, column 16: invalid UTF-8 byte 0xff"


def test_load_bundled_rejects_unknown_name():
    with pytest.raises(KeyError, match="no bundled model"):
        load_bundled("five_element")


def _ordered_products(limit: int) -> list[tuple[str, ...]]:
    """Every ordered product of one, two or three bundled models with at most limit elements."""
    sizes = {name: len(load_bundled(name).elements) for name in BUNDLED_NAMES}
    out = []
    for k in (1, 2, 3):
        out += [t for t in product(BUNDLED_NAMES, repeat=k) if math.prod(map(sizes.get, t)) <= limit]
    return out


def _build(factors: tuple[str, ...]) -> AbstractModel:
    m = load_bundled(factors[0])
    for name in factors[1:]:
        m = product_model(m, load_bundled(name))
    return m


@pytest.mark.parametrize("build", [*_irreducible_cases(), pytest.param(lambda: _build(("two_element",) * 3), id="two^3")])
def test_loaded_and_product_tables_are_bytes_rows(build):
    m = build()
    n = len(m.elements)
    for f in ("leq", "comp", "joins", "meets"):
        table = getattr(m, f)
        assert type(table) is tuple and len(table) == n, f
        assert all(type(row) is bytes and len(row) == n for row in table), f
    assert type(m.conv) is bytes and len(m.conv) == n
    assert set(b"".join(m.leq)) <= {0, 1}
    assert m.comp[m.ident][m.top] == m.top  # indexing yields element indexes


def _full_bound_tables(leq: tuple) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """joins and meets derived on every ordered pair: the k whose up-set
    (down-set) is the intersection of those of i and j."""
    n = len(leq)
    up = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
    at_up, at_down = {u: k for k, u in enumerate(up)}, {d: k for k, d in enumerate(down)}
    return (tuple(bytes(at_up[up[i] & up[j]] for j in range(n)) for i in range(n)),
            tuple(bytes(at_down[down[i] & down[j]] for j in range(n)) for i in range(n)))


def test_every_small_product_round_trips_field_by_field():
    """load_model(model_to_dict(p)) rebuilds the product's tables exactly,
    joins and meets included, for every product of at most 64 elements; and
    its joins and meets, derived once per unordered pair, are those of the
    full table."""
    cases = _ordered_products(64)
    assert len(cases) > 196  # the pinned benchmark products, and those of product_two_two
    for factors in cases:
        p = _build(factors)
        again = load_model(model_to_dict(p), name=p.name)
        for f in dataclasses.fields(AbstractModel):
            assert getattr(again, f.name) == getattr(p, f.name), (factors, f.name)
        assert (again.joins, again.meets) == _full_bound_tables(again.leq), factors


def _outputs(m: AbstractModel) -> tuple:
    rep = check_axioms(m)
    return rep.flags(), rep.counterexamples, {a: list(v(m)) for a, v in _VIOLATIONS.items()}


def _with_tuple_rows(m: AbstractModel) -> AbstractModel:
    return dataclasses.replace(
        m, leq=tuple(tuple(map(bool, row)) for row in m.leq), comp=tuple(map(tuple, m.comp)),
        conv=tuple(m.conv), joins=tuple(map(tuple, m.joins)), meets=tuple(map(tuple, m.meets)))


@pytest.mark.parametrize("build", [
    *_irreducible_cases(),
    *(pytest.param(build, id=name) for name, (build, _) in _BROKEN.items()),
    *(pytest.param(build, id=name) for name, (build, _, _) in _REDUCED.items()),
])
def test_a_copy_with_tuple_rows_checks_the_same(build):
    """Models built directly may give any int sequences as rows, and leq
    rows of truth values; construction stores them as bytes rows."""
    m = build()
    copy = _with_tuple_rows(m)
    assert copy == m and hash(copy) == hash(m)
    for f in ("leq", "comp", "joins", "meets"):
        assert all(type(row) is bytes for row in getattr(copy, f)), f
    assert type(copy.conv) is bytes
    assert _outputs(copy) == _outputs(m)


def test_model_to_dict_round_trips():
    for name in BUNDLED_NAMES:
        m = load_bundled(name)
        again = load_model(model_to_dict(m), name=name)
        assert again == m


def test_broken_assoc_diagnostic_names_least_triple():
    """The reported triple is the first violating one in element scan order."""
    data = json.loads((FIXTURES / "broken_assoc.json").read_text())
    names = data["elements"]
    pos = {x: i for i, x in enumerate(names)}
    comp = [[pos[v] for v in row] for row in data["compose"]]
    violations = [
        (x, y, z)
        for x in range(len(names))
        for y in range(len(names))
        for z in range(len(names))
        if comp[comp[x][y]][z] != comp[x][comp[y][z]]
    ]
    assert violations, "fixture must actually break associativity"
    least = violations[0]
    with pytest.raises(ModelFormatError) as exc:
        load_model(FIXTURES / "broken_assoc.json")
    assert tuple(names[i] for i in least) == ("a", "a", "top")
    assert "(a, a, top)" in str(exc.value)


# -- facts kept per model ---------------------------------------------------------------


def test_load_and_check_decide_each_reduced_law_once(monkeypatch):
    """check_axioms and its Dedekind precondition reuse the verdicts and the
    rows the loader reached on the same model."""
    calls = Counter()
    for fn in ("_rows", "_lattice_search", "_lattice_holds", "_monoid_holds", "_converse_search"):
        def counted(*args, fn=fn, original=getattr(models, fn)):
            calls[fn] += 1
            return original(*args)
        monkeypatch.setattr(models, fn, counted)
    product = product_model(load_bundled("desharnais13"), load_bundled("two_element"))
    calls.clear()
    m = load_model(model_to_dict(product), name="d13x2")
    assert calls == {"_rows": 4, "_monoid_holds": 1, "_converse_search": 1}  # comp, cols, joins, leq
    rep = check_axioms(m)
    assert rep.lattice and rep.monoid and rep.converse and rep.dedekind and not rep.ok
    for axiom, ce in rep.counterexamples.items():
        assert recheck(m, axiom, ce)
    # the lattice law is decided on the masks, so its full search never runs
    assert calls == {"_rows": 5, "_lattice_holds": 1, "_monoid_holds": 1, "_converse_search": 1}
    assert calls["_lattice_search"] == 0


def test_a_replaced_copy_recomputes_what_its_original_kept():
    def broken(m):
        return _conv_fixing(_set_comp(m, "E|top", "E|top", "id|top"), "b|top")

    def product():
        return product_model(load_bundled("desharnais13"), load_bundled("two_element"))

    checked = load_model(model_to_dict(product()))
    rep = check_axioms(checked)
    assert rep.monoid and rep.converse
    copy, fresh = broken(checked), broken(product())
    flags, ces, violations = _outputs(copy)
    assert not flags["monoid"] and not flags["converse"]
    assert (flags, ces, violations) == _outputs(fresh)

