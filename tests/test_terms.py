"""The statement parser and its evaluator (relalg.terms).

The sliced evaluator must give, on every instance, the scalar verdict of
tests/oracles.py's interpreter, which reads the compiled instructions one
instance at a time with the oracles; and a term law must give the report its
Python check gave. Every registry law holds, so the planted false statements
of perfbench/workloads.py are what exercise the decoding of a first failure
here.
"""

import importlib.util
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from functools import lru_cache, partial
from itertools import product
from math import prod
from pathlib import Path

import pytest

import oracles as o
from conftest import run_python
from relalg import laws
from relalg.laws import REGISTRY, Law, Var, _pool, _term, run_law
from relalg.indexcore import relation_index
from relalg.rel import Carrier, _make
from relalg.terms import _DEFINITIONS, _SLICED, Formula, _repunit, code_planes, fixed_planes, parse, range_planes

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# The laws whose parsed statement is their check, and so run sliced. A law
# that drops out of this set falls back to a Python check and the scalar scan.
SLICED = {
    "compose-assoc", "compose-unit", "converse-involution", "converse-contravariant", "converse-join",
    "converse-meet", "converse-monotonic", "compose-join-left", "compose-join-right",
    "compose-monotonic", "meet-compose-sub", "meet-join-absorption", "dedekind-modular",
    "dedekind-modular-dual", "left-residual-galois", "right-residual-galois", "left-residual-cancel",
    "right-residual-cancel", "residual-self-preorder-left", "residual-self-preorder-right",
    "residual-self-absorb", "left-residual-complement", "right-residual-complement",
    "residual-converse-swap", "sym-division-absorb", "sym-division-converse", "domain-absorption",
    "domain-converse", "domain-definitions", "domain-empty", "rdom-least", "ldom-least",
    "rdom-top-char", "ldom-top-char", "rdom-compose", "coreflexive-per", "coreflexive-meet-compose",
    "per-rdom-least", "per-ldom-least", "per-domain-absorption", "per-domain-domains",
    "pair-irreducible",
    # open carriers, named in brackets
    "compose-zero", "converse-constants", "cone-rule", "top-rdom",
    # written as prose before
    "sym-division-equivalence", "per-domain-alt", "point-compose", "all-or-nothing",
    # predicate words
    "functional-char", "injective-char", "per-domains-are-pers", "functional-compose-per",
    "per-implies-symmetric-difunction", "difunctional-strong-domains", "rectangle-difunctional",
    "square-per", "compose-top-rectangle", "per-equivalents", "difunctional-equivalents",
    # the min-policy index, through where J = index R
    "index-is-core-relation", "index-of-itself", "index-via-own-domains", "index-compose-sandwich",
    "per-sandwich-per", "index-ldom-indexes-per", "index-witness-core", "difunction-index-bijection",
    "difunction-index-equiv",
    # point binders, and the predicate words pair, particle and point they define
    "decompose-compose", "decompose-converse", "saturation-relation", "point-saturation", "pair-domains",
    "pair-point-sandwich", "particle-point",
    # formula parentheses
    "per-index-equiv", "core-relation-own-index",
    # columns, cells and atoms through point binders, witnesses and the
    # index of a per through where
    "sym-division-columns", "pair-characterization", "iso-self-witness", "bijection-iso-coreflexive",
    "per-splits", "per-index-coreflexive",
    # every index of R, as a variable with the conditions that make it one as the premise
    "index-determined-by-domains", "per-to-relation-index",
    # the core lemma, and the equations core_of certifies, for the core the index's legs build
    "core-domains", "core-decomposition-valid",
}

# the letters of the planted statements, in variable order
PLANTED_LETTERS = {
    "zz-planted-compose-commutes": "RS",
    "zz-planted-meet-compose-distributes": "RST",
    "zz-planted-residual-cancel": "RS",
}

R4 = (Var("relation", "A", "A"),) * 4


@lru_cache(maxsize=None)
def _planted() -> dict[str, Law]:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.PLANTED


def _as_term(law: Law) -> Law:
    formula = parse(law.statement, law.vars, PLANTED_LETTERS[law.id], law.id)
    return Law(law.id, law.statement, law.vars, formula, law.cost, law.extra_tvs)


def _ops(statement: str, vars=R4, letters: str = "RSTU") -> list:
    return parse(statement, vars, letters)._code


# -- the grammar ---------------------------------------------------------------------


@pytest.mark.parametrize("loose, bracketed", [
    ("R∘S ∩ T ∪ U = R", "((R∘S) ∩ T) ∪ U = R"),  # ∘ before ∩ before ∪
    ("R ∪ S∘T = U", "R ∪ (S∘T) = U"),
    ("¬R° = S", "¬(R°) = S"),  # postfix before prefix
    ("¬R∘S = T", "(¬R)∘S = T"),
    ("R\\S∘T = U", "(R\\S)∘T = U"),  # the products share one level, left to right
    ("R∘S/T = U", "(R∘S)/T = U"),
    ("R∘S∘T = U", "(R∘S)∘T = U"),
    ("R\\\\S// T = U", "(R\\\\S)//T = U"),
    # a predicate takes the whole term after it, and no more
    ("per R∘S ∪ T°", "per (R∘S ∪ T°)"),
    ("rectangle R∩S and T ⊆ U", "rectangle (R∩S) and T ⊆ U"),
    # index binds as ¬ does
    ("index R∘S = T", "(index R)∘S = T"),
    ("index R° = S", "index (R°) = S"),
    # a bound letter is its term
    ("J∘S = T where J = index R∘U", "(index R∘U)∘S = T"),
    ("λ = ρ° where J = index R, λ = J<∘S, ρ = S°∘J<", "(index R)<∘S = (S°∘(index R)<)°"),
    # a parenthesis at the place of a comparison holds a formula, or a term
    ("(R ⊆ S) ≡ (T ⊆ U)", "R ⊆ S ≡ T ⊆ U"),
    ("((R ⊆ S)) or T ⊆ U", "R ⊆ S or T ⊆ U"),
    ("((R∘S)° ∪ T) = U", "(R∘S)° ∪ T = U"),
    ("S = ⋃ a:point A . a if a ⊆ R", "(S = (⋃ a:point A . a if a ⊆ R))"),
    # a union's guard is a conjunction, a quantifier's formula an implication
    ("R = ⋃ a:point A . a if a ⊆ S and a ⊆ T, U = U", "R = (⋃ a:point A . a if (a ⊆ S and a ⊆ T)), U = U"),
    ("R = ⋃ a:point A . a if a ⊆ S or U = U", "(R = ⋃ a:point A . a if a ⊆ S) or U = U"),
    ("∀ a:point A . a ⊆ R ⇒ a ⊆ S, U = U", "(∀ a:point A . (a ⊆ R ⇒ a ⊆ S)), U = U"),
])
def test_precedence(loose, bracketed):
    assert _ops(loose) == _ops(bracketed)


def test_formula_parentheses_compare_two_conjunctions():
    code = _ops("(R ⊆ S and S ⊆ T) ≡ (T ⊆ U and U ⊆ R)")
    iff = code[-1]
    assert iff[0] == "≡" and [code[k][0] for k in iff[1]] == ["and", "and"]
    # without them ≡ binds tighter than and
    code = _ops("R ⊆ S and S ⊆ T ≡ T ⊆ U and U ⊆ R")
    assert code[-1][0] == "and"


def test_binders_bind_fresh_letters_over_points():
    vars = (Var("relation", "A", "B"),)
    code = parse("R = ⋃ a:point A, b:point B . a∘⊤∘b if a∘⊤∘b ⊆ R", vars, "R")._code
    union = code[code[-1][1][1]]
    assert union[0] == "⋃" and union[2] == ("A", "B")
    body, guard, *letters = union[1]
    assert [code[k][0::2] for k in letters] == [("point", ("A",)), ("point", ("B",))]
    assert code[guard][0] == "⊆"
    # the letters are in scope in the binder alone, and may be bound again after it
    parse("∀ a:point A . a∘R ⊆ R, ∃ a:point B . R∘a ⊆ R", vars, "R")
    # a where clause may bind a union, whose guard may compare
    assert _ops("W ⊆ T where W = ⋃ a:point A . a if a∘S = a, V = W∘W") == _ops(
        "(⋃ a:point A . a if a∘S = a) ⊆ T")
    # a predicate defined by a binder is the binder
    assert _ops("pair R∘S", R4) == _ops("∃ a:point A, b:point A . R∘S = a∘⊤∘b", R4)
    assert _ops("particle R", R4) == _ops("∃ a:point A . R = a∘⊤∘a", R4)
    assert _ops("point R", R4) == _ops("∃ a:point A . R = a", R4)


def test_formula_precedence():
    # , < ⇒ < or < and < ≡ < comparisons; ⇒ groups to the right
    code = _ops("R ⊆ S ⇒ T ⊆ U or S ⊆ T and R = U ≡ S = T, R = R")
    ops = [op for op, _, _ in code]
    top_and = code[-1]
    assert top_and[0] == "and"
    implied = code[top_and[1][0]]
    assert implied[0] == "⇒"
    disjunction = code[implied[1][1]]
    assert disjunction[0] == "or"
    conjunction = code[disjunction[1][1]]
    assert conjunction[0] == "and" and code[conjunction[1][1]][0] == "≡"
    assert ops.count("⇒") == 1 and ops.count("or") == 1
    right = _ops("R ⊆ S ⇒ S ⊆ T ⇒ T ⊆ U")
    assert right[-1][0] == "⇒" and right[right[-1][1][1]][0] == "⇒"


def test_chains_mean_adjacent_pairs_and_share_the_middle():
    code = _ops("R = S ⊆ T")
    # R, S, R = S, T, S ⊆ T, and: S is evaluated once
    assert [op for op, _, _ in code] == ["var", "var", "=", "var", "⊆", "and"]
    assert code[2][1] == (0, 1) and code[4][1] == (1, 3)
    code = _ops("R = ⊥ ≡ S = ⊥ ≡ T = ⊥")
    iffs = [ins for op, ins, _ in code if op == "≡"]
    assert len(iffs) == 2 and code[iffs[0][1]] == code[iffs[1][0]]  # the middle once


def test_equal_subterms_are_evaluated_once():
    code = _ops("R∘S ⊆ T ∪ R∘S")
    assert [op for op, _, _ in code].count("∘") == 1


def test_constants_take_their_carriers_from_the_variables():
    vars = (Var("relation", "A", "B"), Var("coreflexive", "B", "B"))
    code = parse("R ⊆ ⊤∘p and 𝕀 ⊆ p ∪ ¬p and ⊥∘R ⊆ R", vars, "Rp")._code
    dims = {op: d for op, _, d in code if op in ("⊤", "𝕀", "⊥")}
    assert dims == {"⊤": ("A", "B"), "𝕀": ("B",), "⊥": ("A", "A")}


def test_brackets_name_the_carriers_of_a_constant():
    vars = (Var("relation", "A", "B"),)
    code = parse("⊤[A,B]∘R> = ⊤[A,A]∘R and R<∘⊤[A,B] = R∘⊤[B,B]", vars, "R")._code
    assert sorted(d for op, _, d in code if op == "⊤") == [("A", "A"), ("A", "B"), ("B", "B")]
    # an extra type variable, and no variables at all
    code = parse("⊥[C,A]∘R = ⊥", vars, "R", extra_tvs=("C",))._code
    assert sorted(d for op, _, d in code if op == "⊥") == [("C", "A"), ("C", "B")]
    code = parse("⊥[A,B]° = ⊥, 𝕀[A]° = 𝕀", (), "", extra_tvs=("A", "B"))._code
    assert sorted(d for op, _, d in code if op in ("⊥", "𝕀")) == [("A",), ("A", "B"), ("B", "A")]


def test_a_predicate_checks_one_term():
    # a word is its definition, with X the whole term after it
    vars = (Var("relation", "A", "B"), Var("relation", "B", "A"))
    assert _ops("per R∘S and functional R", vars, "RS") == _ops(
        "(R∘S)° = R∘S and (R∘S)∘(R∘S) ⊆ R∘S and R∘R° ⊆ 𝕀", vars, "RS")
    for word, definition in _DEFINITIONS.items():  # over R4, whose one carrier is A
        assert _ops(f"{word} R∘S ∪ T") == _ops(definition.replace("X", "(R∘S ∪ T)").replace("B", "A")), word
    # no evaluator knows a word, and the oracle interpreter knows the same operations
    assert not _DEFINITIONS.keys() & _SLICED.keys() and o._OTERMS.keys() == _SLICED.keys()


@pytest.mark.parametrize("statement, renamed, letters", [
    # a variable, a where-bound letter or a binder letter named as a
    # letter of a word's definition: the definition does not see it
    ("pair a", "pair R", "a"),
    ("particle b ⇒ point X∘b", "particle S ⇒ point R∘S", "Xb"),
    ("pair a where a = R∘R", "pair c where c = R∘R", "R"),
    ("point X ⇒ particle b where b = R<, X = b∘R", "point Y ⇒ particle c where c = R<, Y = c∘R", "R"),
    ("∃ a:point A . pair a∘R", "∃ c:point A . pair c∘R", "R"),
    ("∀ b:point A . particle b∘⊤∘b", "∀ d:point A . particle d∘⊤∘d", "R"),
    ("∃ X:point A . point X and pair X∘R", "∃ Y:point A . point Y and pair Y∘R", "R"),
])
def test_a_word_sees_no_letter_of_its_statement(statement, renamed, letters):
    vars = (Var("relation", "A", "A"),) * len(letters)
    assert _ops(statement, vars, letters) == _ops(renamed, vars, "RS"[:len(letters)])


def test_a_qualifier_restates_the_kinds():
    vars = (Var("relation", "A", "B"), Var("per", "B", "B"))
    parse("R = R∘P ≡ R≻ = R≻∘P for pers P", vars, "RP")
    cors = (Var("coreflexive", "A", "A"), Var("coreflexive", "A", "A"))
    parse("p∘q = p∩q for coreflexives", cors, "pq")


# -- diagnostics: one per error, each naming the law and the column ----------------------


@pytest.mark.parametrize("statement, column, message", [
    ("R∘ = S", 4, "expected a term"),
    ("R∘T", 4, "expected one of"),
    ("(R∘T = S", 6, "expected ')'"),
    ("R = S T", 7, "unexpected 'T'"),
    ("R ⊆ X", 5, "unknown letter 'X'"),
    ("R ⊆ S!", 6, "unknown symbol '!'"),
    ("R ⊆ Sx", 5, "unknown word 'Sx'"),
    ("R∘S = T", 2, "carrier mismatch: ∘ joins carrier B with carrier A"),
    ("R∘T = S", 5, "carrier mismatch: = joins carrier C with carrier B"),
    ("R ⊆ T", 3, "carrier mismatch"),
    ("⊥∘R = ⊥∘S", 1, "not fixed by the variables"),
    ("R = S for pers S", 16, "'for pers' but the variable is a relation"),
    ("R = S for pers", 11, "'for pers' but the variable is a relation"),
    ("R = S for T", 11, "expected a kind such as 'pers' after 'for', got 'T'"),
    ("R ⊆ ⊤[A,D]", 9, "expected a carrier of the law (A, B, C) in the brackets of ⊤, got 'D'"),
    ("R ⊆ ⊤[A,⊥]", 9, "expected a carrier of the law (A, B, C) in the brackets of ⊤, got '⊥'"),
    ("R ⊆ ⊤[A,C]", 3, "carrier mismatch: ⊆ joins carrier B with carrier C"),
    ("𝕀[B]∘R = R", 5, "carrier mismatch: ∘ joins carrier B with carrier A"),
    ("R ⊆ ⊤[A]", 8, "expected ',', got ']'"),
    ("per R", 1, "carrier mismatch: per joins carrier A with carrier B"),
    ("square S∘T", 1, "carrier mismatch: square joins carrier A with carrier C"),
    ("per R∘R° = S", 10, "unexpected '='"),
    ("index R = T", 9, "carrier mismatch: = joins carrier A with carrier B"),
    ("R = index", 10, "expected a term, got the end of the statement"),
    ("J = R where J = R, J = S", 20, "'J' is bound twice"),
    ("R = S where S = R", 13, "'S' is a variable; a where clause binds new letters"),
    ("J = R where J = K, K = S", 17, "'K' is used before its binding"),
    ("J = R where J = J∘R", 17, "'J' is used before its binding"),
    ("R = S where", 12, "expected a binding such as 'J = index R', got the end of the statement"),
    ("R = S where J = R S", 19, "unexpected 'S'"),
    # formula parentheses and binders
    ("(R ⊆ S and T) ≡ R = S", 13, "expected one of ⊆ = ≠ after a term, got ')'"),
    ("R = ⋃ R:point A . R if R ⊆ S", 7, "'R' is already bound; a binder binds new letters"),
    ("R = ⋃ a:point A, a:point A . a if a ⊆ S", 18, "'a' is already bound"),
    ("∀ a:point A . ∃ a:point B . R = R", 17, "'a' is already bound"),
    ("J = R where J = ⋃ J:point A . J if J ⊆ J", 19, "'J' is already bound"),
    ("R = ⋃ a:pair A . a if a ⊆ S", 9, "expected a pool (point) after ':', got 'pair'"),
    ("R = ⋃ a:point D . a if a ⊆ S", 15, "expected a carrier of the law (A, B, C) after 'point', got 'D'"),
    ("R = ⋃ a R", 9, "expected ':', got 'R'"),
    ("R = ⋃", 6, "expected a bound letter such as 'a:point A', got the end of the statement"),
    ("R = ⋃ a:point A a", 17, "expected '.', got 'a'"),
    ("R = ⋃ a:point A . a∘R", 22, "expected 'if', got the end of the statement"),
    ("R = ⋃ a:point A . a if a", 25, "expected one of ⊆ = ≠ after a term"),
    ("∀ a:point A . a ⊆ a, a ⊆ R", 22, "unknown letter 'a'"),
    ("∀ a:point A . a", 16, "expected one of ⊆ = ≠ after a term"),
    ("R = ⋃ a:point A . a if a ⊆ a", 3, "carrier mismatch: = joins carrier B with carrier A"),
    ("point R", 1, "carrier mismatch: point joins carrier A with carrier B"),
    ("pair R ⊆ S", 8, "unexpected '⊆'"),
    # a word's term with open carriers: the term's constant is named, not the definition
    ("functional ⊤∘R or R = S", 12, "the carriers of ⊤ are not fixed by the variables"),
    ("pair ⊥ or R = S", 6, "the carriers of ⊥ are not fixed by the variables"),
])
def test_parse_errors_name_the_law_and_the_column(statement, column, message):
    vars = (Var("relation", "A", "B"), Var("relation", "A", "B"), Var("relation", "B", "C"))
    with pytest.raises(ValueError) as err:
        parse(statement, vars, "RST", "zz-bad")
    assert "law 'zz-bad'" in str(err.value)
    assert f"column {column}:" in str(err.value)
    assert message in str(err.value)


def test_top_rdom_without_brackets_is_refused():
    # the source of the first ⊤ is not fixed by R: the bracketed statement
    # of the registry says which one the law means
    vars = (Var("relation", "A", "B"),)
    with pytest.raises(ValueError, match="law 'top-rdom': column 1: the carriers of ⊤ are not fixed by the variables"):
        parse("⊤∘R> = ⊤∘R and R<∘⊤ = R∘⊤", vars, "R", "top-rdom")
    assert isinstance(REGISTRY["top-rdom"].check, Formula)


def test_letters_must_name_every_variable_once():
    vars = (Var("relation", "A", "B"), Var("relation", "A", "B"))
    for letters in ("R", "RR", "RST", "R1"):
        with pytest.raises(ValueError, match="law 'zz-bad': letters"):
            parse("R = S", vars, letters, "zz-bad")


def test_a_bad_statement_is_refused_at_registration():
    with pytest.raises(ValueError, match="law 'zz-bad': column 5"):
        _term("zz-bad", "R ⊆ Q", "R", (Var("relation", "A", "B"),))
    assert "zz-bad" not in REGISTRY


# -- planes ---------------------------------------------------------------------------


def _plane_bits(planes, count):
    """The code each instance of a batch holds, read back from its planes."""
    return [sum((p >> x & 1) << c for c, p in enumerate(planes)) for x in range(count)]


def test_planes_hold_the_codes_in_product_order():
    pools = [range(4), (0, 5, 9), range(2)]
    cells = [2, 4, 1]
    instances = list(product(*pools))
    n = len(instances)
    stride = n
    for k, (pool, c) in enumerate(zip(pools, cells)):
        stride //= len(pool)
        reps = n // (stride * len(pool))
        planes = range_planes(c, stride, n) if isinstance(pool, range) else code_planes(pool, c, stride, reps)
        assert _plane_bits(planes, n) == [inst[k] for inst in instances]
    drawn = (3, 0, 12, 7, 7)
    assert _plane_bits(code_planes(drawn, 4), len(drawn)) == list(drawn)
    assert _plane_bits(fixed_planes(6, 3, 0b111), 3) == [6, 6, 6]


@pytest.mark.parametrize("period", [1, 2, 3, 7, 64, 384])
def test_a_repunit_holds_count_ones_period_bits_apart(period):
    for count in (0, 1, 2, 3, 5, 8, 255, 256, 4097):
        assert _repunit.__wrapped__(period, count) == sum(1 << period * i for i in range(count))


# -- the sliced evaluator agrees with the oracle interpreter ------------------------------


def _instances(law: Law, tuples):
    """For each size tuple of the law's type variables, its carriers, the
    carriers of each variable and every instance of its pools; a size tuple
    with no instance (a point of an empty carrier) is left out."""
    tvs = law.type_vars()
    for sizes in tuples:
        carriers = {tv: Carrier(tv, n) for tv, n in zip(tvs, sizes)}
        typed = [(carriers[v.src], carriers[v.dst]) for v in law.vars]
        pools = [_pool(v.kind, src, dst) for v, (src, dst) in zip(law.vars, typed)]
        if all(pools):
            yield carriers, typed, list(product(*pools))


def _oracle(formula: Formula):
    """The scalar verdict of formula: oracles.oevaluate on its instructions."""
    def holds(args, carriers):
        cells = [_cells(r.code, r.src.size, r.dst.size) for r in args]
        return o.oevaluate(formula._code, cells, {tv: c.size for tv, c in carriers.items()})
    return holds


def _up_to(law: Law, max_size: int):
    """Every size tuple of the law's type variables over 1..max_size."""
    return product(range(1, max_size + 1), repeat=len(law.type_vars()))


def _disagreements(formula: Formula, law: Law, tuples, reference=None, verdicts=None) -> list:
    """Instances on the given size tuples where the sliced verdict of a batch
    differs from the scalar one of the oracle interpreter (or from the
    reference check). Each scalar (or reference) verdict is added to the set
    verdicts, when one is given."""
    reference = reference or _oracle(formula)
    wrong = []
    for carriers, typed, instances in _instances(law, tuples):
        cells = [src.size * dst.size for src, dst in typed]
        planes = [code_planes(column, n) for column, n in zip(zip(*instances), cells)]
        full = (1 << len(instances)) - 1
        fails = formula.failures(planes, {tv: c.size for tv, c in carriers.items()}, full)
        for x, codes in enumerate(instances):
            args = tuple(_make(src, dst, code) for (src, dst), code in zip(typed, codes))
            held = reference(args, carriers)
            if verdicts is not None:
                verdicts.add(held)
            if bool(fails >> x & 1) == held:
                wrong.append((law.id, {tv: c.size for tv, c in carriers.items()}, codes))
    return wrong


@pytest.mark.parametrize("law_id", sorted(SLICED))
def test_sliced_and_scalar_verdicts_agree_per_instance(law_id):
    law = REGISTRY[law_id]
    assert _disagreements(law.check, law, _up_to(law, 2)) == []


@pytest.mark.parametrize("law_id", sorted(SLICED))
def test_sliced_verdicts_agree_on_empty_carriers(law_id):
    """Shrinking drops carrier elements down to none, so a batch may have
    empty carriers: every size tuple over 0..2 with at least one. Only a law
    with a point variable can have no instance there."""
    law = REGISTRY[law_id]
    tuples = [t for t in product(range(3), repeat=len(law.type_vars())) if 0 in t]
    verdicts = set()
    assert _disagreements(law.check, law, tuples, verdicts=verdicts) == []
    assert verdicts or any(v.kind == "point" for v in law.vars)


@pytest.mark.parametrize("statement", [
    "R ≠ S",
    "R ⊆ S or S ⊆ R",
    "R ⊆ S ⇒ S ⊆ R",
    "R ⊆ S ≡ R∘T = S∘T",
    "¬R∘T ∩ ⊤ ⊆ S∘T ∪ ⊥",
    "R\\S ⊆ 𝕀, R/S ⊆ 𝕀",
    "R\\\\S = (R\\\\S)° and R//S ⊆ R∘S°",
    "R≺ = S≺ ≡ R≻ = S≻",
    "R< = S< and R> ⊆ T∘T°",
    # the predicates: quantified oracles on the scalar side, point-free forms on the sliced one
    "per R∘R° ≡ square S°∘S",
    "per S°∘R",
    "functional R or injective T",
    "difunctional R ∪ S ⇒ rectangle T",
    "square ⊤[A,A] ∩ S∘S°",
    "rectangle R∘T, difunctional S°",
    # the min-policy index: the least member of each class on the scalar side, on planes on the sliced one
    "J ⊆ S ≡ J∘T ⊆ K∘T where J = index R, K = index S",
    # formula parentheses
    "(R ⊆ S or S ⊆ R) ≡ (R∘T = S∘T and R ≠ ⊥)",
    # binders: a loop over the oracle's points on the scalar side, over
    # constant planes on the sliced one
    "R ⊆ ⋃ a:point A, b:point B . a∘⊤∘b if a∘⊤∘b ⊆ S",
    "R∘T ⊆ ⋃ a:point A, c:point C . a∘⊤∘c if a∘⊤∘c ⊆ S∘T",
    "∀ a:point A . a∘R ⊆ a∘S or a∘R = ⊥",
    "∃ b:point B . R∘b = S∘b and R∘b ≠ ⊥",
    "∀ a:point A . R ⊆ S",  # a binder whose formula does not use its letter
    "R° = ⋃ a:point A, b:point B . b∘⊤∘a if a∘⊤∘b ⊆ R ∩ S",
    "R ⊆ ⋃ a:point A . a∘S if a∘R ≠ ⊥",  # a term that varies with the instance
    # nested binders, wide and uniform
    "∀ a:point A . ∃ b:point B . a∘⊤∘b ⊆ R ∪ S",
    "∀ b:point B . R∘b ⊆ ⋃ a:point A . a∘⊤∘b if a∘⊤∘b ⊆ S",
    "(∃ a:point A . ∀ b:point A . a∘b = b) ⇒ R ⊆ S",
    "∃ a:point A . (∀ b:point A . a∘b ⊆ a) and a∘R ⊆ a∘S and a∘R ≠ ⊥",
    # an inner binder that uses an outer letter other than the last one
    "∀ a:point A, c:point C . (∃ b:point B . a∘⊤∘b ⊆ R) or a∘S∘T∘c = ⊥",
    # a binder whose formula uses only constants of the statement and its letters
    "(∃ a:point A . a∘⊤ = ⊤[A,B] or ¬(a ∪ ⊤[A,A]) ≠ ⊥) ⇒ R ⊆ S",
    # the predicates a binder defines
    "pair R ∩ S ≡ particle R∘R°",
    "point R∘R° or pair S∘T",
])
def test_sliced_and_scalar_verdicts_agree_on_every_operation(statement):
    # statements that fail on some instances and hold on others
    vars = (Var("relation", "A", "B"), Var("relation", "A", "B"), Var("relation", "B", "C"))
    law = Law("zz-probe", statement, vars, parse(statement, vars, "RST"))
    verdicts = set()
    assert _disagreements(law.check, law, _up_to(law, 2), verdicts=verdicts) == []
    assert verdicts == {True, False}


def test_a_constant_read_on_letters_alone_is_narrowed_to_one_bit():
    """The ⊤ is batch wide outside the binder and one bit per combination
    inside it, under a complement that would keep any bits it spilled: on
    three points the ∃'s fold would move them onto a combination."""
    vars = (Var("relation", "A", "A"),)
    statement = "(∃ a:point A . ¬(a ∪ ⊤) ≠ ⊥) or R = ⊥"
    law = Law("zz-probe", statement, vars, parse(statement, vars, "R"))
    verdicts = set()
    assert _disagreements(law.check, law, [(3,)], verdicts=verdicts) == []
    assert verdicts == {True, False}


@pytest.mark.parametrize("law_id, sizes", [
    ("compose-assoc", (1, 3, 2, 2)),
    ("dedekind-modular", (2, 3, 1)),
    ("per-domain-alt", (3, 2)),
    ("index-witness-core", (3, 2)),  # where J = index R
    ("difunction-index-bijection", (1, 3)),
    ("decompose-compose", (3, 2, 3)),  # one-bit pieces, guards, a letter past the last one used
    ("decompose-compose", (2, 1, 2)),
    ("particle-point", (3,)),  # the words defined by binders
    ("particle-point", (1,)),
    ("point-saturation", (3,)),
    ("zz-nested-binders", (3,)),  # a uniform binder on one-bit planes inside a binder
    ("per-domains-are-pers", (3, 2)),  # the predicate words' definitions
])
def test_the_estimate_counts_every_sliced_operation(law_id, sizes, monkeypatch):
    """Formula.runs names every sliced operation a scan runs, by its
    carrier-size product and plane width: on one sampled batch, and on every
    batch of an exhaustive scan cut as the runner cuts it."""
    nested = "∀ a:point A . (∃ b:point A . a∘b = a) and a ⊆ 𝕀 ⇒ a∘R ⊆ R∘⊤"
    vars = (Var("relation", "A", "A"),)
    law = REGISTRY.get(law_id) or Law(law_id, nested, vars, parse(nested, vars, "R", law_id))
    named = dict(zip(law.type_vars(), sizes))
    carriers = {tv: Carrier(tv, n) for tv, n in named.items()}
    typed = [(carriers[v.src], carriers[v.dst]) for v in law.vars]
    pools = [_pool(v.kind, src, dst) for v, (src, dst) in zip(law.vars, typed)]
    seen = Counter()

    def recording(op, full, d, *args):
        seen[prod(d), full.bit_length()] += 1
        return op(full, d, *args)

    def runs(bits, batches=1):  # the estimate for batches of `bits` instances
        out = Counter()
        for (p, c, wide), n in law.check.runs(named).items():
            out[p, c * (bits if wide else 1)] += n * batches
        return out

    for name, op in list(_SLICED.items()):
        monkeypatch.setitem(_SLICED, name, partial(recording, op))
    assert laws._scan_sliced(law, carriers, typed, pools, random.Random(5), 7) == (7, None)
    assert seen == runs(7) and seen
    seen.clear()
    monkeypatch.setattr(laws, "PLANE_BITS", 64)
    combinations = law.check.combinations(named)
    lead, chunk, batch = laws._geometry(pools, combinations)
    batches = prod(len(pool) for pool in pools[:lead]) // chunk
    space = prod(len(pool) for pool in pools)
    assert batch * batches == space and batch * combinations <= 64
    # an empty carrier leaves no combinations, and nothing to divide by
    binders = any(op in ("⋃", "∀", "∃") for op, _, _ in law.check._code)
    assert law.check.combinations(dict.fromkeys(named, 0)) == (0 if binders else 1)
    assert laws._geometry(pools, 0) == laws._geometry(pools, 1)
    assert laws._scan_sliced(law, carriers, typed, pools, None, 7) == (space, None)
    assert seen == runs(batch, batches)
    assert max(width for _, width in seen) <= 64  # no plane is wider than PLANE_BITS
    seen.clear()  # nor a sampled batch's, cut as narrow
    assert laws._scan_sliced(law, carriers, typed, pools, random.Random(5), 7) == (7, None)
    assert max(width for _, width in seen) <= 64


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(1, 5) if n * k <= 12])
def test_sliced_index_is_the_min_policy_index(n, k):
    count = 1 << n * k
    planes = _SLICED["index"]((1 << count) - 1, (n, k), range_planes(n * k, 1, count))
    a, b = Carrier("A", n), Carrier("B", k)
    assert _plane_bits(planes, count) == [relation_index(_make(a, b, code)).index.code for code in range(count)]


# -- the laws that were Python checks, against independent oracles --------------------

# Each law's truth on one instance, from tests/oracles.py: its arguments as
# frozensets of cells, and each argument's rows and columns.
ORACLES = {
    "saturation-relation": lambda args, shapes: o.osaturation(*args, *shapes[0]),
    "decompose-converse": lambda args, shapes: o.odecompose_converse(*args, *shapes[0]),
    "decompose-compose": lambda args, shapes: o.odecompose_compose(*args, *shapes[0], shapes[1][1]),
    "point-saturation": lambda args, shapes: o.opoint_saturation(*args, shapes[0][0]),
    "pair-domains": lambda args, shapes: o.opair_domains(*args),
    "pair-point-sandwich": lambda args, shapes: o.opair_point_sandwich(*args, shapes[0][0], shapes[1][0]),
    "particle-point": lambda args, shapes: o.oparticle_point(*args),
    "per-index-equiv": lambda args, shapes: o.oper_index_equiv(*args, shapes[0][0]),
    "core-relation-own-index": lambda args, shapes: o.ocore_relation_own_index(*args, *shapes[0]),
    "sym-division-columns": lambda args, shapes: o.osym_division_columns(*args, *shapes[0]),
    "pair-characterization": lambda args, shapes: o.opair_characterization(*args, *shapes[0]),
    "iso-self-witness": lambda args, shapes: o.oiso_self_witness(*args),
    "bijection-iso-coreflexive": lambda args, shapes: o.obijection_iso_coreflexive(*args),
    "per-splits": lambda args, shapes: o.oper_splits(*args),
    "per-index-coreflexive": lambda args, shapes: o.oper_index_coreflexive(*args, shapes[0][0]),
    "index-determined-by-domains": lambda args, shapes: o.oindex_determined_by_domains(*args, *shapes[0]),
    "per-to-relation-index": lambda args, shapes: o.oper_to_relation_index(*args, *shapes[0]),
    "core-domains": lambda args, shapes: o.ocore_domains(*args, *shapes[0]),
    "core-decomposition-valid": lambda args, shapes: o.ocore_decomposition(*args, *shapes[0]),
}

HOMOGENEOUS = (Var("relation", "A", "A"),)

# A wrong statement of each law, which its oracle must tell apart from the law:
# (law, statement, its variables when they are not the law's)
WRONG = [
    ("decompose-converse", "R° = ⋃ a:point A, b:point A . a∘⊤∘b if a∘⊤∘b ⊆ R", HOMOGENEOUS),  # pairs not flipped
    ("saturation-relation", "R = ⋃ a:point A, b:point B . a∘⊤∘b if a∘⊤∘b ⊆ R∘⊤[B,B]", None),
    ("decompose-compose", "R∘S = ⋃ a:point A, b:point B, c:point C . (a∘⊤∘b)∘(b∘⊤∘c) if a∘⊤∘b ⊆ R", None),
    ("point-saturation", "p = ⋃ a:point A . a if a ⊆ 𝕀", None),
    ("pair-domains", "particle R< ⇒ pair R", None),
    ("pair-point-sandwich", "pair Z and Z° = Z where Z = a∘⊤∘b", (Var("point", "A", "A"),) * 2),
    ("particle-point", "particle Z ≡ pair Z", None),
    ("per-index-equiv", "(J ⊆ P< and J∘P∘J = J) ≡ (J ⊆ P and P≺∘J∘P≻ = P and J<∘P≺∘J< = J< and J>∘P≻∘J> = J>)",
     None),
    ("core-relation-own-index", "R< = R≺ ≡ (J ⊆ R and R≺∘J∘R≻ = R and J<∘R≺∘J< = J< and J>∘R≻∘J> = J>) where J = R",
     None),
    ("sym-division-columns", "∀ b:point B, d:point B . b∘⊤∘d ⊆ R\\\\R ≡ R∘b∘⊤∘d ⊆ R∘d", None),  # column inclusion
    ("pair-characterization", "pair R ≡ (R ≠ ⊥ and R = R∘⊤∘R)", None),  # a rectangle, not a pair
    ("iso-self-witness", "φ∘φ° = R< and ψ∘ψ° = R> and R = φ∘R∘ψ° where φ = R<, ψ = R°∘R", None),
    ("bijection-iso-coreflexive",
     "functional R ⇒ (φ∘φ° = R< and ψ∘ψ° = R> and R = φ∘S∘ψ°) where φ = R<, ψ = R°, S = R<", None),
    ("per-splits", "P = (J∘P)°∘(J∘P) and J = (J∘P)∘(J∘P)° for pers P where J = P<", None),  # every member kept
    ("per-index-coreflexive", "J ⊆ 𝕀 and J∘P∘J = J and P∘J∘P = P for pers P where J = P<", None),
    # (c) and (d) dropped: a J with two related elements in a domain is no sandwich
    ("index-determined-by-domains", "J ⊆ R and R≺∘J∘R≻ = R ⇒ J = J<∘R∘J>", None),
    # P∘J∘P = P and Q∘K∘Q = Q dropped: J = ⊥ is no transversal
    ("per-to-relation-index",
     "J ⊆ P< and J∘P∘J = J and K ⊆ Q< and K∘Q∘K = K "
     "⇒ I ⊆ R and R≺∘I∘R≻ = R and I<∘R≺∘I< = I< and I>∘R≻∘I> = I> where P = R≺, Q = R≻, I = J∘R∘K", None),
    # C< = J< is one member of each R≺-class, λ> all of them
    ("core-domains", "R< = λ>, C< = λ>, R> = ρ>, C> = ρ< where J = index R, λ = J<∘R≺, ρ = J>∘R≻, C = λ∘R∘ρ°",
     None),
    # legs on the domains, not the per domains: λ°∘λ = R≺ fails where two rows of R are equal
    ("core-decomposition-valid",
     "λ°∘λ = R≺ and λ∘λ° = λ< and ρ°∘ρ = R≻ and ρ∘ρ° = ρ< and C = J where J = index R, λ = J<∘R<, ρ = J>∘R>, "
     "C = λ∘R∘ρ°", None),
]

# every instance of at most 12 matrix bits, over carriers of the sizes the runner takes
ORACLE_BITS = 12


@lru_cache(maxsize=None)
def _cells(code: int, n: int, k: int) -> frozenset:
    return frozenset((c // k, c % k) for c in range(n * k) if code >> c & 1)


# (law id, variable kinds, shapes) -> the mask of the instances, in pool order,
# on which the law's oracle holds: the law's own statement and every wrong one
# are compared with one table
_ORACLE_VERDICTS: dict[tuple, int] = {}


def _oracle_disagreements(formula: Formula, vars, law_id: str) -> tuple[list, int]:
    """The instances of at most ORACLE_BITS matrix bits on which the sliced
    verdict of formula differs from law_id's oracle, and the instance count."""
    oracle = ORACLES[law_id]
    tvs = list(dict.fromkeys(tv for v in vars for tv in (v.src, v.dst)))
    wrong, count = [], 0
    for sizes in product(range(1, laws.MAX_CARRIER_SIZE + 1), repeat=len(tvs)):
        n = dict(zip(tvs, sizes))
        shapes = [(n[v.src], n[v.dst]) for v in vars]
        if sum(a * b for a, b in shapes) > ORACLE_BITS:
            continue
        carriers = {tv: Carrier(tv, k) for tv, k in n.items()}
        instances = list(product(*(_pool(v.kind, carriers[v.src], carriers[v.dst]) for v in vars)))
        key = (law_id, tuple(v.kind for v in vars), tuple(shapes))
        if key not in _ORACLE_VERDICTS:
            _ORACLE_VERDICTS[key] = sum(
                1 << x for x, codes in enumerate(instances)
                if oracle([_cells(code, a, b) for code, (a, b) in zip(codes, shapes)], shapes))
        holds = _ORACLE_VERDICTS[key]
        planes = [code_planes(column, a * b) for column, (a, b) in zip(zip(*instances), shapes)]
        fails = formula.failures(planes, n, (1 << len(instances)) - 1)
        wrong += [(n, codes) for x, codes in enumerate(instances) if (fails >> x & 1) == (holds >> x & 1)]
        count += len(instances)
    return wrong, count


@pytest.mark.parametrize("law_id", sorted(ORACLES))
def test_a_statement_agrees_with_its_oracle_up_to_12_bits(law_id):
    law = REGISTRY[law_id]
    wrong, count = _oracle_disagreements(law.check, law.vars, law_id)
    assert wrong == [] and count > 0


def wrong_run(law_id: str, statement: str, vars) -> tuple[Formula, laws.LawReport]:
    """A wrong statement of law_id, parsed, and its run, which shrinks its
    first failure (tests/reports.json pins the run)."""
    law = REGISTRY[law_id]
    formula = parse(statement, vars or law.vars, law.check.letters, "zz-wrong")
    return formula, run_law(Law("zz-wrong", statement, vars or law.vars, formula, law.cost),
                            max_size=3, samples=50, seed=7)


@pytest.mark.parametrize("law_id, statement, vars", WRONG, ids=[law_id for law_id, _, _ in WRONG])
def test_a_wrong_statement_disagrees_with_the_oracle(law_id, statement, vars):
    formula, report = wrong_run(law_id, statement, vars)
    wrong, _ = _oracle_disagreements(formula, vars or REGISTRY[law_id].vars, law_id)
    assert wrong
    # its first failure replays as a batch of one, shrunk one instance at a time
    (ce,) = report.failures
    carriers = {tv: Carrier(tv, k) for tv, k in ce.sizes.items()}
    assert not formula(ce.args, carriers)
    args = [_cells(r.code, r.src.size, r.dst.size) for r in ce.args]
    assert ORACLES[law_id](args, [(r.src.size, r.dst.size) for r in ce.args])


def test_decompose_compose_checks_the_pieces_whose_middle_points_differ():
    # the oracle composes every piece, so a statement that gets the cross
    # pieces (a∘⊤∘b)∘(d∘⊤∘c), b ≠ d, wrong disagrees with it
    law = REGISTRY["decompose-compose"]
    assert law.check.statement.endswith("b ≠ d ⇒ (a∘⊤∘b)∘(d∘⊤∘c) = ⊥")
    formula = parse(law.check.statement.replace("(d∘⊤∘c) = ⊥", "(d∘⊤∘c) = a∘⊤∘c"), law.vars, "RS")
    wrong, _ = _oracle_disagreements(formula, law.vars, "decompose-compose")
    assert wrong


@pytest.mark.parametrize("word, oracle", [
    # Z ≠ ⊥, Z = Z∘⊤∘Z, Z< = Z∘Z° and Z> = Z°∘Z
    ("pair", lambda r, n, k: o.ois_pair(r, n, k)),
    ("particle", lambda r, n, k: o.ois_pair(r, n, k) and o.oconverse(r) == r),  # a symmetric pair
    ("point", lambda r, n, k: o.ois_coreflexive(r) and len(r) == 1),  # a coreflexive atom
    ("per", lambda r, n, k: o.ois_per(r)),
    ("functional", lambda r, n, k: o.ois_functional(r)),
    ("injective", lambda r, n, k: o.ois_injective(r)),
    ("difunctional", lambda r, n, k: o.ois_difunctional(r)),
    ("rectangle", lambda r, n, k: o.ois_rectangle(r, n, k)),
    ("square", lambda r, n, k: o.ois_square(r, n)),
])
def test_the_words_a_binder_defines_are_their_algebraic_definitions(word, oracle):
    """Every predicate word, on every relation up to 3×3, against its oracle:
    the oracle interpreter never sees a word, only its definition's
    operations, so this is what checks the definitions themselves."""
    homogeneous = word in ("per", "square", "particle", "point")
    for n, k in [(n, k) for n in range(1, 4) for k in range(1, 4) if not homogeneous or n == k]:
        vars = (Var("relation", "A", "A" if homogeneous else "B"),)
        formula = parse(f"{word} R", vars, "R")
        fails = formula.failures([range_planes(n * k, 1, 1 << n * k)], {"A": n, "B": k}, (1 << (1 << n * k)) - 1)
        assert [not (fails >> code & 1) for code in range(1 << n * k)] == [
            oracle(_cells(code, n, k), n, k) for code in range(1 << n * k)]


@pytest.mark.parametrize("law_id", sorted(PLANTED_LETTERS))
def test_planted_statements_agree_with_their_python_checks(law_id):
    law = _planted()[law_id]
    formula = _as_term(law).check
    assert _disagreements(formula, law, _up_to(law, 2)) == []
    assert _disagreements(formula, law, _up_to(law, 2), reference=law.check) == []


# -- the runner -------------------------------------------------------------------------


@pytest.mark.parametrize("law_id", sorted(PLANTED_LETTERS))
@pytest.mark.parametrize("settings", [
    dict(max_size=2, samples=10),  # exhaustive tuples
    # sampled wherever the sample count does not cover the space: a cost
    # too heavy for the budget, and draws priced at nothing, so that no
    # sliced scan is estimated to cost no more than its draws
    dict(max_size=3, samples=5, budget=1, cost=10 ** 6, draw_cost=0),
    # exhaustive under a large budget, cut into batches that hold the
    # leading arguments fixed: all of them, or all but the trailing ones,
    # the last held one a chunk of codes at a time (compose-commutes at 4)
    dict(max_size=3, samples=10, seed=9, budget=10 ** 12, plane_bits=1),
    dict(max_size=3, samples=10, seed=9, budget=10 ** 12, plane_bits=4),
], ids=["exhaustive", "sampled", "chunked-1", "chunked-4"])
def test_a_term_law_reports_what_its_python_check_reported(law_id, settings, monkeypatch):
    settings = dict(settings)
    monkeypatch.setattr(laws, "PLANE_BITS", settings.pop("plane_bits", laws.PLANE_BITS))
    monkeypatch.setattr(laws, "DRAW_COST", settings.pop("draw_cost", laws.DRAW_COST))
    law = _planted()[law_id]
    law = replace(law, cost=settings.pop("cost", law.cost))
    python = run_law(law, **settings)
    batches = []
    original = Formula.failures
    monkeypatch.setattr(Formula, "failures", lambda *a: batches.append(a[3].bit_length()) or original(*a))
    # the scan's batches are those before shrinking starts; shrinking
    # evaluates its candidates as batches of one
    scanned = []
    shrink = laws.shrink
    monkeypatch.setattr(laws, "shrink", lambda *a: scanned.append(len(batches)) or shrink(*a))
    sliced = run_law(_as_term(law), **settings)
    (cut,) = scanned
    batches = batches[:cut]
    assert not python.ok
    assert sliced.to_dict() == python.to_dict()
    assert max(batches) <= laws.PLANE_BITS
    assert len(batches) == sliced.instances or laws.PLANE_BITS > 1


def test_the_sliced_set_is_pinned():
    assert {law_id for law_id, law in REGISTRY.items() if isinstance(law.check, Formula)} == SLICED
    assert len(SLICED) >= 60


def test_a_law_with_no_variables_checks_one_instance_per_size_tuple():
    law = REGISTRY["converse-constants"]
    assert law.vars == () and law.extra_tvs == ("A", "B")
    report = run_law(law, max_size=3, samples=10)
    assert (report.mode, report.instances, report.ok) == ("exhaustive", 9, True)
    false = Law("zz-false", "⊤[A,B] = ⊥[A,B]", (), parse("⊤[A,B] = ⊥[A,B]", (), "", "zz-false", ("A", "B")),
                extra_tvs=("A", "B"))
    report = run_law(false, max_size=3, samples=10)
    assert (report.instances, report.failures[0].args) == (1, ())


def test_sliced_draws_are_the_pinned_draws(monkeypatch):
    """A sampled size tuple checks exactly the draws randrange makes from
    random.Random(f"{seed}:{law.id}:{sizes}"), one per argument per instance
    in order, up to and including the first failure."""
    vars = (Var("relation", "A", "A"), Var("coreflexive", "A", "A"))
    # draws priced at nothing, so every tuple past the sample count is drawn
    monkeypatch.setattr(laws, "DRAW_COST", 0)
    law = Law("zz-planted-meet-is-compose", "R∩p = R∘p", vars, parse("R∩p = R∘p", vars, "Rp"), cost=10 ** 6)
    checked = []
    original = Formula.failures

    def recording(self, planes, sizes, full):
        count = full.bit_length()
        checked.extend(zip(*(_plane_bits(p, count) for p in planes)))
        return original(self, planes, sizes, full)

    started = []
    shrink = laws.shrink
    monkeypatch.setattr(Formula, "failures", recording)
    monkeypatch.setattr(laws, "shrink", lambda law, cs, args: started.append(args) or shrink(law, cs, args))
    report = run_law(law, max_size=3, samples=3, seed=5, budget=1)
    assert report.mode == "sampled" and not report.ok
    want = []
    for size in (1, 2, 3):
        c = Carrier("A", size)
        pools = [_pool("relation", c, c), _pool("coreflexive", c, c)]
        rng = random.Random(f"5:{law.id}:{(size,)}")
        for _ in range(3):
            codes = tuple(pool[rng.randrange(len(pool))] for pool in pools)
            want.append(codes)
            args = tuple(_make(c, c, code) for code in codes)
            if not law.check(args, {"A": c}):
                break
        else:
            continue
        break
    assert report.instances == len(want) < 9
    assert checked[:len(want)] == want
    assert [tuple(r.code for r in args) for args in started] == [want[-1]]


def test_sliced_laws_never_call_the_scalar_evaluator(monkeypatch):
    def refuse(self, args, carriers):
        raise AssertionError(f"{self.statement!r} was checked one instance at a time")

    monkeypatch.setattr(Formula, "__call__", refuse)
    for law_id in sorted(SLICED):
        assert run_law(REGISTRY[law_id], max_size=2, samples=10, budget=100).ok, law_id


def test_sliced_runs_are_unchanged_under_python_O():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(WORKLOADS.parent)!r})\n"
        "from workloads import PLANTED\n"
        "from relalg import laws\n"
        "from relalg.laws import REGISTRY, Law, run_law\n"
        "from relalg.terms import parse\n"
        "planted = PLANTED['zz-planted-meet-compose-distributes']\n"
        "term = Law(planted.id, planted.statement, planted.vars,\n"
        "           parse(planted.statement, planted.vars, 'RST', planted.id))\n"
        "heavy = Law(term.id, term.statement, term.vars, term.check, cost=10 ** 6)\n"
        "reports = [run_law(term, 3, 5, 7, 1)]\n"
        "draw_cost, laws.DRAW_COST = laws.DRAW_COST, 0  # every tuple past the samples drawn\n"
        "reports.append(run_law(heavy, 3, 5, 7, 1))\n"
        "laws.DRAW_COST = draw_cost\n"
        "reports.append(run_law(REGISTRY['dedekind-modular'], 2, 50, 7))\n"
        "print(json.dumps([r.to_dict() for r in reports], sort_keys=True))\n"
    )
    plain = run_python("-c", script)
    optimized = run_python("-O", "-c", script)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert plain.stdout == optimized.stdout
    term, heavy, _ = json.loads(plain.stdout)
    assert term["failures"] and heavy["failures"]
    assert (term["mode"], heavy["mode"]) == ("exhaustive", "sampled")
