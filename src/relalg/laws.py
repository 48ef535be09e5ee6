"""Quantified law checking over small carriers.

Every law is a closed statement about all relations (or pers, coreflexives,
difunctions, functionals, points) over arbitrary finite carriers. The runner
instantiates each law over every assignment of carrier sizes up to max_size.
It enumerates a size tuple's pools exhaustively when the instance count,
each instance of a Python check weighted by its cost, stays within budget or
the instance count within the sample count, and a term law's also when its
bit-sliced scan is estimated, from the operations its compiled statement
runs (Formula.runs), to cost no more than the draws it replaces (SLICE_BITS,
DRAW_COST); otherwise it samples with a per-law deterministic RNG. A pool is
the codes of one kind on its carriers, in code order; the restricted kinds
are generated, not filtered from every relation, and every pool is bounded by
the matrix bits of its carriers. The first failing instance is shrunk to a
locally minimal counterexample: no single pair can be removed from any
argument, and no carrier element dropped, without the law recovering.

Law ids are stable and descriptive; `statement` carries the point-free
formula. A law registered with _term has no Python check: its statement is
parsed (see terms) and the parsed Formula is the check, so the statement and
the check cannot drift apart. The runner evaluates each size tuple of such a
law in batches of instances at once, bit-sliced, with the order, draws and
first failure the scalar scan has on the same tuple in the same mode; the
failure is then shrunk one instance at a time, each a batch of one of the
same evaluator (terms has no other). The index laws that speak of
the min-policy index J of R are terms too, through ``where J = index R``;
among them core-domains, the core lemma for the core C = λ∘R∘ρ° that the legs
λ = J<∘R≺ and ρ = J>∘R≻ build, and core-decomposition-valid, the ten equations
of CoreDecomposition.verify on that core and C = J. So are the per laws, since
on a per ``index P`` is per_index(P) and J∘P is splitting(P); the laws that
take unions over the points of a carrier or speak of its cells and columns,
through point binders; and the laws that check a given isomorphism witness,
which ``where`` builds.
A law about every index of R takes the index as a variable, with the
conditions that make it one as its premise: index-determined-by-domains
ranges J over all relations of R's type, per-to-relation-index ranges J and K
over the coreflexives. The other laws compare every pair of indexes
(indexcore.candidate_indexes) or run every policy, search for an isomorphism,
test what core_of or classify returns, or count relations, which no term of
the grammar names, and keep a Python check of what the program does not
certify itself: core_of, relation_index, classify and find_isomorphism raise
RuntimeError on a failed certificate of their own, which fails the instance
(_fails) and is shrunk to a counterexample like any other failure.
build_manifest() emits the machine-readable catalogue the CLI serves,
including the explicit out-of-scope entries.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass
from itertools import product
from math import isqrt, prod
from typing import Callable, Sequence

from . import indexcore, isomorph
from .terms import Formula, code_planes, fixed_planes, parse, range_planes
from .points import is_point, points
from .domains import (
    _difunctional_codes, _functional_codes, _ldom_code, _rdom_code, classify, enumerate_pers, is_bijection,
    is_coreflexive, is_difunctional, is_functional, is_per, ldom, per_ldom, per_rdom, rdom,
)
from .rel import (
    MAX_ENUM_BITS, Carrier, Relation, _compose_memo, _make, _relation_codes, compose, converse,
    enumerate_coreflexives, enumerate_relations, from_pairs, relation_at,
)

EXHAUSTIVE_BUDGET = 10_000_000
# The two fitted numbers of the sliced scan's estimate (BENCH_cost.json). A
# sliced operation on carriers whose sizes multiply to p, on planes w bits
# wide, costs p * (1 + w / SLICE_BITS) units: below SLICE_BITS bits a plane
# costs mostly its per-call overhead. One draw of one argument, with its share
# of the sampled planes, costs DRAW_COST units: the most it was measured to
# cost at 10, 128 and 2000 draws, which is at 10, where the fixed cost of a
# sampled tuple (seeding its Random) is spread over the fewest draws; so a
# tuple is sampled only where its draws are cheaper at every count's price.
SLICE_BITS = 1 << 15
DRAW_COST = 0.84
# the most bits of one plane, and so the most instances a term law evaluates
# at once (fewer where binders widen its planes, see _most_instances)
PLANE_BITS = 1 << 20
# the largest carrier whose square relation pool the enumeration bound admits
MAX_CARRIER_SIZE = isqrt(MAX_ENUM_BITS)


@dataclass(frozen=True)
class Var:
    kind: str  # relation | coreflexive | per | difunction | functional | point
    src: str
    dst: str


@dataclass(frozen=True)
class Law:
    id: str
    statement: str
    vars: tuple[Var, ...]
    check: Callable[[tuple[Relation, ...], dict[str, Carrier]], bool]
    cost: int = 1  # a Python check's rough per-instance op count, weighs its instances against the budget
    extra_tvs: tuple[str, ...] = ()

    def type_vars(self) -> tuple[str, ...]:
        """The type variables, in order of first use: the variables' carriers, then extra_tvs."""
        return tuple(dict.fromkeys([tv for v in self.vars for tv in (v.src, v.dst)] + list(self.extra_tvs)))


def _rel(src: str, dst: str) -> Var:
    return Var("relation", src, dst)


def _cor(tv: str) -> Var:
    return Var("coreflexive", tv, tv)


def _per(tv: str) -> Var:
    return Var("per", tv, tv)


def _dif(src: str, dst: str) -> Var:
    return Var("difunction", src, dst)


def _fun(src: str, dst: str) -> Var:
    return Var("functional", src, dst)


def _pt(tv: str) -> Var:
    return Var("point", tv, tv)


KIND_VALIDATORS: dict[str, Callable[[Relation], bool]] = {
    "relation": lambda r: True,
    "coreflexive": is_coreflexive,
    "per": is_per,
    "difunction": is_difunctional,
    "functional": is_functional,
    "point": lambda r: r.src == r.dst and is_point(r),
}

# Pools hold codes, in code order: a range for the relation kind, a tuple for
# the others. The restricted kinds are generated, not filtered from the
# relation pool: difunctions from row blocks, column blocks and a bijection
# between them, functionals one column at a time (see domains). Difunction and
# functional pools are still refused wherever the relation pool would be, past
# MAX_ENUM_BITS matrix bits. A Relation is built only for an instance that is
# drawn or enumerated, so the pools kept for a whole run hold no objects the
# cyclic collector has to walk.
_POOLS: dict[tuple[str, Carrier, Carrier], Sequence[int]] = {}


def _pool(kind: str, src: Carrier, dst: Carrier) -> Sequence[int]:
    key = (kind, src, dst)
    got = _POOLS.get(key)
    if got is not None:
        return got
    if kind in ("coreflexive", "per", "point") and src != dst:
        raise ValueError(f"{kind} variables need one carrier, got {src.name} and {dst.name}")
    if kind == "relation":
        out = _relation_codes(src, dst)
    elif kind == "coreflexive":
        out = tuple(r.code for r in enumerate_coreflexives(src))
    elif kind == "per":
        out = tuple(r.code for r in enumerate_pers(src))
    elif kind in ("difunction", "functional"):
        _relation_codes(src, dst)  # refuses the carriers the relation pool refuses
        native = _difunctional_codes if kind == "difunction" else _functional_codes
        out = tuple(native(src.size, dst.size))
    elif kind == "point":
        out = tuple(r.code for r in points(src))
    else:
        raise ValueError(f"unknown variable kind {kind!r}")
    _POOLS[key] = out
    return out


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, Law] = {}


def _law(law_id: str, statement: str, vars: tuple[Var, ...], check, cost: int = 1,
         extra_tvs: tuple[str, ...] = ()) -> None:
    if law_id in REGISTRY:
        raise ValueError(f"duplicate law id {law_id}")
    REGISTRY[law_id] = Law(law_id, statement, vars, check, cost, extra_tvs)


def _term(law_id: str, statement: str, letters: str, vars: tuple[Var, ...],
          extra_tvs: tuple[str, ...] = ()) -> None:
    """Register a law whose parsed statement is its check; letters names the
    variables in order. Its instances weigh 1 against the budget: only a
    Python check carries a cost weight."""
    _law(law_id, statement, vars, parse(statement, vars, letters, law_id, extra_tvs), extra_tvs=extra_tvs)


# -- plain algebra -------------------------------------------------------------


_term("compose-assoc", "(R∘S)∘T = R∘(S∘T)", "RST",
      (_rel("A", "B"), _rel("B", "C"), _rel("C", "D")))

_term("compose-unit", "𝕀∘R = R = R∘𝕀", "R", (_rel("A", "B"),))

_term("compose-zero", "⊥[C,A]∘R = ⊥ and R∘⊥[B,C] = ⊥", "R", (_rel("A", "B"),), extra_tvs=("C",))

_term("converse-involution", "R°° = R", "R", (_rel("A", "B"),))

_term("converse-contravariant", "(R∘S)° = S°∘R°", "RS",
      (_rel("A", "B"), _rel("B", "C")))

_term("converse-join", "(R∪S)° = R°∪S°", "RS", (_rel("A", "B"), _rel("A", "B")))

_term("converse-meet", "(R∩S)° = R°∩S°", "RS", (_rel("A", "B"), _rel("A", "B")))

_term("converse-constants", "⊥[A,B]° = ⊥, ⊤[A,B]° = ⊤, 𝕀[A]° = 𝕀", "", (), extra_tvs=("A", "B"))

_term("converse-monotonic", "R ⊆ S ≡ R° ⊆ S°", "RS", (_rel("A", "B"), _rel("A", "B")))

_term("compose-join-left", "R∘(S∪T) = R∘S ∪ R∘T", "RST",
      (_rel("A", "B"), _rel("B", "C"), _rel("B", "C")))

_term("compose-join-right", "(R∪S)∘T = R∘T ∪ S∘T", "RST",
      (_rel("A", "B"), _rel("A", "B"), _rel("B", "C")))

_term("compose-monotonic", "R ⊆ S ⇒ R∘T ⊆ S∘T", "RST",
      (_rel("A", "B"), _rel("A", "B"), _rel("B", "C")))

_term("meet-compose-sub", "(R∩S)∘T ⊆ R∘T ∩ S∘T", "RST",
      (_rel("A", "B"), _rel("A", "B"), _rel("B", "C")))

_term("meet-join-absorption", "R∩(R∪S) = R = R∪(R∩S)", "RS",
      (_rel("A", "B"), _rel("A", "B")))


# -- modularity and the cone rule ----------------------------------------------


_term("dedekind-modular", "R∘S ∩ T ⊆ R∘(S ∩ R°∘T)", "RST",
      (_rel("A", "B"), _rel("B", "C"), _rel("A", "C")))

_term("dedekind-modular-dual", "R∘S ∩ T ⊆ (R ∩ T∘S°)∘S", "RST",
      (_rel("A", "B"), _rel("B", "C"), _rel("A", "C")))

_term("cone-rule", "⊤[A,A]∘R∘⊤[B,B] = ⊤ ≡ R ≠ ⊥", "R", (_rel("A", "B"),))


# -- factors --------------------------------------------------------------------


_term("left-residual-galois", "T ⊆ R\\S ≡ R∘T ⊆ S", "RST",
      (_rel("A", "B"), _rel("A", "C"), _rel("B", "C")))

_term("right-residual-galois", "T ⊆ R/S ≡ T∘S ⊆ R", "RST",
      (_rel("A", "C"), _rel("B", "C"), _rel("A", "B")))

_term("left-residual-cancel", "T∘(T\\U) ⊆ U", "TU", (_rel("A", "B"), _rel("A", "C")))

_term("right-residual-cancel", "(R/S)∘S ⊆ R", "RS", (_rel("A", "C"), _rel("B", "C")))

_term("residual-self-preorder-left", "𝕀 ⊆ R\\R and (R\\R)∘(R\\R) ⊆ R\\R", "R",
      (_rel("A", "B"),))

_term("residual-self-preorder-right", "𝕀 ⊆ R/R and (R/R)∘(R/R) ⊆ R/R", "R",
      (_rel("A", "B"),))

_term("residual-self-absorb", "R∘(R\\R) = R = (R/R)∘R", "R", (_rel("A", "B"),))

_term("left-residual-complement", "R\\S = ¬(R°∘¬S)", "RS",
      (_rel("A", "B"), _rel("A", "C")))

_term("right-residual-complement", "R/S = ¬(¬R∘S°)", "RS",
      (_rel("A", "C"), _rel("B", "C")))

_term("residual-converse-swap", "(R\\S)° = S°/R°", "RS",
      (_rel("A", "B"), _rel("A", "C")))

_term("sym-division-equivalence", "𝕀 ⊆ R\\\\R and (R\\\\R)° = R\\\\R and (R\\\\R)∘(R\\\\R) ⊆ R\\\\R", "R",
      (_rel("A", "B"),))

_term("sym-division-absorb", "R∘(R\\\\R) = R = (R//R)∘R", "R", (_rel("A", "B"),))

_term("sym-division-converse", "(R\\\\S)° = S\\\\R and (R//S)° = S//R", "RS",
      (_rel("A", "B"), _rel("A", "B")))


# b∘⊤∘d is the cell (b, d), and R∘b∘⊤∘d is column b of R moved to column d
_term("sym-division-columns", "∀ b:point B, d:point B . b∘⊤∘d ⊆ R\\\\R ≡ R∘b∘⊤∘d = R∘d", "R",
      (_rel("A", "B"),))


# -- domains ---------------------------------------------------------------------


_term("domain-absorption", "R<∘R = R = R∘R>", "R", (_rel("A", "B"),))

_term("domain-converse", "(R°)> = R< and (R°)< = R>", "R", (_rel("A", "B"),))

_term("domain-definitions", "R< = 𝕀 ∩ R∘R° and R> = 𝕀 ∩ R°∘R", "R", (_rel("A", "B"),))

_term("domain-empty", "R< = ⊥ ≡ R = ⊥ ≡ R> = ⊥", "R", (_rel("A", "B"),))

_term("rdom-least", "R = R∘p ≡ R> = R>∘p", "Rp", (_rel("A", "B"), _cor("B")))

_term("ldom-least", "R = p∘R ≡ R< = p∘R<", "Rp", (_rel("A", "B"), _cor("A")))

_term("rdom-top-char", "R> ⊆ p ≡ R ⊆ ⊤∘p ≡ R ⊆ R∘p", "Rp", (_rel("A", "B"), _cor("B")))

_term("ldom-top-char", "R< ⊆ p ≡ R ⊆ p∘⊤ ≡ R ⊆ p∘R", "Rp", (_rel("A", "B"), _cor("A")))

_term("top-rdom", "⊤[A,B]∘R> = ⊤[A,A]∘R and R<∘⊤[A,B] = R∘⊤[B,B]", "R", (_rel("A", "B"),))

_term("rdom-compose", "(R∘S)> = (R>∘S)> and (R∘S)< = (R∘S<)<", "RS",
      (_rel("A", "B"), _rel("B", "C")))

_term("coreflexive-per", "p∘p = p, p° = p, p ⊆ 𝕀", "p", (_cor("A"),))

_term("coreflexive-meet-compose", "p∘q = p∩q for coreflexives", "pq", (_cor("A"), _cor("A")))

_term("per-domains-are-pers", "per R≺ and per R≻", "R", (_rel("A", "B"),))

_term("per-rdom-least", "R = R∘P ≡ R≻ = R≻∘P for pers P", "RP", (_rel("A", "B"), _per("B")))

_term("per-ldom-least", "R = P∘R ≡ R≺ = P∘R≺ for pers P", "RP", (_rel("A", "B"), _per("A")))

_term("per-domain-absorption", "R≺∘R = R = R∘R≻", "R", (_rel("A", "B"),))

_term("per-domain-alt", "R≻ = R>∘(R\\\\R) = (R\\\\R)∘R> and R≺ = (R//R)∘R< = R<∘(R//R)", "R",
      (_rel("A", "B"),))

_term("per-domain-domains", "(R≻)< = R> = (R≻)> and (R≺)< = R< = (R≺)>", "R",
      (_rel("A", "B"),))

_term("per-equivalents", "per R ≡ R = R°∘R ≡ R = R≺ ≡ R = R≻", "R", (_rel("A", "A"),))

_term("functional-char", "functional R ≡ R∘R° ⊆ 𝕀 ≡ R∘R° = R<", "R", (_rel("A", "B"),))

_term("injective-char", "injective R ≡ R°∘R ⊆ 𝕀 ≡ R°∘R = R>", "R", (_rel("A", "B"),))

_term("functional-compose-per", "per f°∘f for functionals f", "f", (_fun("A", "B"),))


# on a per, index P is per_index(P), and J∘P is splitting(P)
_term("per-splits", "P = (J∘P)°∘(J∘P) and J = (J∘P)∘(J∘P)° and functional J∘P for pers P where J = index P", "P",
      (_per("A"),))


# -- difunctionality -------------------------------------------------------------


_term("difunctional-equivalents",
      "difunctional R ≡ R = R∘R°∘R ≡ R>∘(R\\R) = R°∘R ≡ R≻ = R°∘R ≡ (R/R)∘R< = R∘R° ≡ R≺ = R∘R° "
      "≡ R = R ∩ (R\\R/R)°", "R", (_rel("A", "B"),))

_term("per-implies-symmetric-difunction", "P° = P and difunctional P for pers P", "P", (_per("A"),))

_term("difunctional-strong-domains", "difunctional R ⇒ R≻ = R>∘(R\\R) and R≺ = (R/R)∘R<", "R",
      (_rel("A", "B"),))

_term("rectangle-difunctional", "rectangle R ⇒ difunctional R", "R", (_rel("A", "B"),))

_term("square-per", "square R ⇒ per R", "R", (_rel("A", "A"),))

_term("compose-top-rectangle", "rectangle R∘⊤∘S", "RS", (_rel("A", "B"), _rel("C", "D")))


# -- indexes and cores ------------------------------------------------------------


# R is a core relation ≡ R indexes itself: conditions (a)-(d) of indexcore with J = R
_term("core-relation-own-index",
      "(R< = R≺ and R> = R≻) ≡ (J ⊆ R and R≺∘J∘R≻ = R and J<∘R≺∘J< = J< and J>∘R≻∘J> = J>) where J = R",
      "R", (_rel("A", "B"),))


_term("index-is-core-relation", "J< = J≺ and J> = J≻ and J≺ ⊆ R≺ and J≻ ⊆ R≻ where J = index R", "R",
      (_rel("A", "B"),))

_term("index-of-itself", "J≺∘J∘J≻ = J and J<∘J≺∘J< = J< and J>∘J≻∘J> = J> where J = index R", "R",
      (_rel("A", "B"),))

_term("index-via-own-domains", "J = J<∘R∘J> where J = index R", "R", (_rel("A", "B"),))


# every index is the sandwich of its own domains (indexcore.candidate_indexes)
_term("index-determined-by-domains",
      "J ⊆ R and R≺∘J∘R≻ = R and J<∘R≺∘J< = J< and J>∘R≻∘J> = J> ⇒ J = J<∘R∘J>", "RJ",
      (_rel("A", "B"), _rel("A", "B")))


_term("index-compose-sandwich", "R∘J°∘R = R∘R°∘R where J = index R", "R", (_rel("A", "B"),))

_term("per-sandwich-per", "R≺∘J<∘R≺ = R≺ and per R≺∘J<∘R≺ and (R≺∘J<∘R≺)< = R< where J = index R", "R",
      (_rel("A", "B"),))

# J< indexes P = R≺ and J> indexes Q = R≻: conditions (a)-(d) of indexcore
_term("index-ldom-indexes-per",
      "K ⊆ P and P≺∘K∘P≻ = P and K<∘P≺∘K< = K< and K>∘P≻∘K> = K> "
      "and M ⊆ Q and Q≺∘M∘Q≻ = Q and M<∘Q≺∘M< = M< and M>∘Q≻∘M> = M> "
      "where J = index R, K = J<, P = R≺, M = J>, Q = R≻", "R", (_rel("A", "B"),))


def c_indexes_pairwise_isomorphic(a, C):
    (r,) = a
    A, B, n, k = r.src, r.dst, r.src.size, r.dst.size
    lpd, rpd = per_ldom(r).code, per_rdom(r).code
    cands = indexcore.candidate_indexes(r)
    # per index: its domains, and the first legs X<∘R≺ and X>∘R≻ of the witnesses it starts
    doms = [(_ldom_code(x.code, n, k), _rdom_code(x.code, k)) for x in cands]
    heads = [(_compose_memo(xl, lpd, n, n, n), _compose_memo(xr, rpd, k, k, k)) for xl, xr in doms]
    return all(
        isomorph.verify_witness(
            x,
            y,
            isomorph.IsoWitness(
                _make(A, A, _compose_memo(hl, yl, n, n, n)),
                _make(B, B, _compose_memo(hr, yr, k, k, k)),
            ),
        )
        for x, (hl, hr) in zip(cands, heads)
        for y, (yl, yr) in zip(cands, doms)
    )


_law("indexes-pairwise-isomorphic", "any two indexes of R are isomorphic via J<∘R≺∘K<, J>∘R≻∘K>",
     (_rel("A", "B"),), c_indexes_pairwise_isomorphic, cost=64)


_term("index-witness-core",
      "λ°∘λ = R≺ and λ∘λ° = λ< and ρ°∘ρ = R≻ and ρ∘ρ° = ρ< and λ∘R∘ρ° = J "
      "where J = index R, λ = J<∘R≺, ρ = J>∘R≻", "R", (_rel("A", "B"),))


# CoreDecomposition.verify's ten equations for the same-type core, which is the index itself
_term("core-decomposition-valid",
      "λ°∘λ = R≺ and λ∘λ° = λ< and ρ°∘ρ = R≻ and ρ∘ρ° = ρ< and C< = C≺ and C> = C≻ and λ> = R< and C< = λ< "
      "and ρ> = R> and C> = ρ< and C = J where J = index R, λ = J<∘R≺, ρ = J>∘R≻, C = λ∘R∘ρ°", "R",
      (_rel("A", "B"),))


def c_core_quotient_valid(a, C):
    indexcore.core_of(a[0], "quotient")  # raises RuntimeError unless its ten equations hold
    return True


_law("core-quotient-valid", "quotient core decomposition satisfies all leg equations",
     (_rel("A", "B"),), c_core_quotient_valid, cost=6)


_term("core-domains", "R< = λ>, C< = λ<, R> = ρ>, C> = ρ< where J = index R, λ = J<∘R≺, ρ = J>∘R≻, C = λ∘R∘ρ°",
      "R", (_rel("A", "B"),))


def c_core_isomorphic_index(a, C):
    (r,) = a
    j = indexcore.relation_index(r).index
    dec = indexcore.core_of(r, "quotient")
    w = isomorph.IsoWitness(compose(dec.lam, ldom(j)), compose(dec.rho, rdom(j)))
    return isomorph.verify_witness(dec.core, j, w)


_law("core-isomorphic-index", "a core of R is isomorphic to an index of R via λ∘J<, ρ∘J>",
     (_rel("A", "B"),), c_core_isomorphic_index, cost=6)


# the index of a per is a coreflexive meeting the three simple conditions and (a)-(d)
_term("per-index-coreflexive",
      "J ⊆ 𝕀 and J ⊆ P< and J∘P∘J = J and P∘J∘P = P "
      "and J ⊆ P and P≺∘J∘P≻ = P and J<∘P≺∘J< = J< and J>∘P≻∘J> = J> for pers P where J = index P", "P",
      (_per("A"),))


# for pers, the three simple index conditions ≡ the general four
_term("per-index-equiv",
      "(J ⊆ P< and J∘P∘J = J and P∘J∘P = P) ≡ (J ⊆ P and P≺∘J∘P≻ = P and J<∘P≺∘J< = J< and J>∘P≻∘J> = J>) "
      "for pers P", "PJ", (_per("A"), _cor("A")))


# coreflexive indexes J of R≺ and K of R≻ sandwich an index of R: (a)-(d) of indexcore
_term("per-to-relation-index",
      "J ⊆ P< and J∘P∘J = J and P∘J∘P = P and K ⊆ Q< and K∘Q∘K = K and Q∘K∘Q = Q "
      "⇒ I ⊆ R and R≺∘I∘R≻ = R and I<∘R≺∘I< = I< and I>∘R≻∘I> = I> where P = R≺, Q = R≻, I = J∘R∘K", "RJK",
      (_rel("A", "B"), _cor("A"), _cor("B")))


_term("difunction-index-bijection",
      "J∘J° = J< and J°∘J = J> and J ⊆ R and R∘J°∘R = R and J<∘R∘R°∘J< = J< and J>∘R°∘R∘J> = J> "
      "where J = index R", "R", (_dif("A", "B"),))

_term("difunction-index-equiv", "difunctional R ≡ difunctional J ≡ R∘J°∘R = R where J = index R", "R",
      (_rel("A", "B"),))


def c_relation_index_policies(a, C):
    (r,) = a
    for policy in indexcore.POLICIES:
        indexcore.relation_index(r, policy=policy, seed=7)  # raises RuntimeError unless (a)-(d) hold
    a1 = indexcore.relation_index(r, policy="random", seed=3).index
    a2 = indexcore.relation_index(r, policy="random", seed=3).index
    return a1 == a2


_law("relation-index-policies", "every representative policy yields a verified index, deterministically",
     (_rel("A", "B"),), c_relation_index_policies, cost=8)


# -- isomorphism -------------------------------------------------------------------


# (φ, ψ) witnesses R ≅ S: φ∘φ° = R<, φ°∘φ = S<, ψ∘ψ° = R>, ψ°∘ψ = S>, R = φ∘S∘ψ° and φ°∘R∘ψ = S
_term("iso-self-witness",
      "φ∘φ° = R< and φ°∘φ = R< and ψ∘ψ° = R> and ψ°∘ψ = R> and R = φ∘R∘ψ° and φ°∘R∘ψ = R "
      "where φ = R<, ψ = R>", "R", (_rel("A", "B"),))


def c_iso_search_sound(a, C):
    isomorph.find_isomorphism(*a)  # raises RuntimeError on a witness that does not verify
    return True


_law("iso-search-sound", "a witness find_isomorphism finds by search verifies",
     (_rel("A", "B"), _rel("A", "B")), c_iso_search_sound, cost=64)


def c_iso_domain_transport(a, C):
    r, s = a
    w = isomorph.find_isomorphism(r, s)
    if w is None:
        return True
    phi, psi = w.phi, w.psi
    return (
        ldom(r) == compose(compose(phi, ldom(s)), converse(phi))
        and rdom(r) == compose(compose(psi, rdom(s)), converse(psi))
        and per_ldom(r) == compose(compose(phi, per_ldom(s)), converse(phi))
        and per_rdom(r) == compose(compose(psi, per_rdom(s)), converse(psi))
    )


_law("iso-domain-transport", "isomorphism transports R<, R>, R≺, R≻",
     (_rel("A", "B"), _rel("A", "B")), c_iso_domain_transport, cost=64)


_term("bijection-iso-coreflexive",
      "functional R and injective R ⇒ (φ∘φ° = R< and φ°∘φ = S< and ψ∘ψ° = R> and ψ°∘ψ = S> "
      "and R = φ∘S∘ψ° and φ°∘R∘ψ = S) where φ = R<, ψ = R°, S = R<", "R", (_rel("A", "B"),))


def c_iso_to_coreflexive_bijection(a, C):
    r, p = a
    w = isomorph.find_isomorphism(r, p)
    return w is None or is_bijection(r)


_law("iso-to-coreflexive-bijection", "isomorphic to a coreflexive ⇒ bijection",
     (_rel("A", "B"), _cor("C")), c_iso_to_coreflexive_bijection, cost=64)


def c_core_if_iso(a, C):
    (p,) = a
    w = isomorph.find_isomorphism(ldom(p), p)
    return w is None or ldom(p) == p


_law("core-if-iso", "P< ≅ P ⇒ P< = P for pers", (_per("A"),), c_core_if_iso, cost=64)


# -- points, pairs, saturation -------------------------------------------------------


_term("point-compose", "a = b ⇒ a∘b = a, a ≠ b ⇒ a∘b = ⊥ for points", "ab", (_pt("A"), _pt("A")))

_term("point-saturation", "p = ⋃ a:point A . a if a ⊆ p", "p", (_cor("A"),))

_term("pair-point-sandwich", "pair Z and Z< = a and Z> = b where Z = a∘⊤∘b", "ab", (_pt("A"), _pt("B")))


# a single cell ≡ the algebraic pair ≡ a proper atom
_term("pair-characterization",
      "pair R ≡ (R ≠ ⊥ and R = R∘⊤∘R and R< = R∘R° and R> = R°∘R) "
      "≡ (R ≠ ⊥ and ∀ a:point A, b:point B . a∘⊤∘b ⊆ R ⇒ a∘⊤∘b = R)", "R", (_rel("A", "B"),))

# both against the point-free form: a non-empty coreflexive whose square Z∘⊤∘Z stays in 𝕀
_term("particle-point", "particle Z ≡ point Z ≡ (Z ⊆ 𝕀 and Z ≠ ⊥ and Z∘⊤∘Z ⊆ 𝕀)", "Z", (_rel("A", "A"),))

_term("pair-domains", "pair R ⇒ particle R< and particle R>", "R", (_rel("A", "B"),))

_term("all-or-nothing", "a∘R∘b = ⊥ or a∘R∘b = a∘⊤∘b", "Rab", (_rel("A", "B"), _pt("A"), _pt("B")))

_term("saturation-relation", "R = ⋃ a:point A, b:point B . a∘⊤∘b if a∘⊤∘b ⊆ R", "R", (_rel("A", "B"),))

_term("decompose-converse", "R° = ⋃ a:point A, b:point B . b∘⊤∘a if a∘⊤∘b ⊆ R", "R", (_rel("A", "B"),))

_term("decompose-compose",
      "R∘S = ⋃ a:point A, b:point B, c:point C . (a∘⊤∘b)∘(b∘⊤∘c) if a∘⊤∘b ⊆ R and b∘⊤∘c ⊆ S, "
      "∀ a:point A, b:point B, c:point C . (a∘⊤∘b)∘(b∘⊤∘c) = a∘⊤∘c, "
      "∀ a:point A, b:point B, d:point B, c:point C . b ≠ d ⇒ (a∘⊤∘b)∘(d∘⊤∘c) = ⊥", "RS",
      (_rel("A", "B"), _rel("B", "C")))

_term("pair-irreducible", "a∘⊤∘b ⊆ R∪S ⇒ a∘⊤∘b ⊆ R or a∘⊤∘b ⊆ S", "RSab",
      (_rel("A", "B"), _rel("A", "B"), _pt("A"), _pt("B")))


def c_relation_count(a, C):
    A, B = C["A"], C["B"]
    count = sum(1 for _ in enumerate_relations(A, B))
    return count == 1 << (len(points(A)) * len(points(B)))


_law("relation-count", "there are exactly 2^(#pairs) relations over A~B",
     (), c_relation_count, extra_tvs=("A", "B"), cost=64)


def c_classify_consistent(a, C):
    classify(a[0])  # raises RuntimeError on flags that break an implication
    return True


_law("classify-consistent", "the classification flags satisfy their structural implications",
     (_rel("A", "B"),), c_classify_consistent, cost=4)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    law_id: str
    sizes: dict[str, int]
    args: tuple[Relation, ...]

    def to_dict(self) -> dict:
        from .rel import to_dict as rel_to_dict

        return {
            "law": self.law_id,
            "carriers": dict(self.sizes),
            "args": [rel_to_dict(r) for r in self.args],
        }


@dataclass
class LawReport:
    law_id: str
    statement: str
    mode: str  # exhaustive | sampled | mixed
    instances: int
    failures: list[Counterexample]
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "law": self.law_id,
            "statement": self.statement,
            "mode": self.mode,
            "instances": self.instances,
            "seed": self.seed,
            "failures": [c.to_dict() for c in self.failures],
        }


@dataclass
class SuiteReport:
    max_size: int
    samples: int
    seed: int
    reports: list[LawReport]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "max_size": self.max_size,
            "samples": self.samples,
            "seed": self.seed,
            "laws": len(self.reports),
            "ok": self.ok,
            "reports": [r.to_dict() for r in self.reports],
        }


def _args_valid(law: Law, args: tuple[Relation, ...]) -> bool:
    return all(KIND_VALIDATORS[v.kind](r) for v, r in zip(law.vars, args))


def _fails(law: Law, args: tuple[Relation, ...], carriers: dict[str, Carrier]) -> bool:
    """Whether the law fails on one instance. A RuntimeError raised inside the
    check, a program's guard on its own certificate, fails it too; a refusal
    of an oversized input (EnumerationLimit, SearchSpaceExceeded) propagates."""
    try:
        return not law.check(args, carriers)
    except RuntimeError:
        return True


def _drop_element(r: Relation, carrier: Carrier, smaller: Carrier, e: int) -> Relation | None:
    """Remove element e from one side (or both) of r, renumbering above it;
    None when r relates e to anything."""
    skip = from_pairs(smaller, carrier, [(i, i + (i >= e)) for i in range(smaller.size)])
    out = compose(skip, r) if r.src == carrier else r
    out = compose(out, converse(skip)) if r.dst == carrier else out
    return out if out.bit_count() == r.bit_count() else None


def _smaller(carriers: dict[str, Carrier], args: tuple[Relation, ...]):
    """Every one-step reduction of an instance, as (carriers, args): each
    argument with one pair removed, then each carrier with one element
    dropped, unless some argument relates that element."""
    for k, r in enumerate(args):
        for i, j in r.pairs():
            fewer = relation_at(r.src, r.dst, r.code & ~(1 << (i * r.dst.size + j)))
            yield carriers, args[:k] + (fewer,) + args[k + 1:]
    for tv, carrier in carriers.items():
        for e in range(carrier.size):
            smaller = Carrier(tv, carrier.size - 1)
            cand = []
            for r in args:
                nr = _drop_element(r, carrier, smaller, e)
                if nr is None:
                    break
                cand.append(nr)
            else:
                yield {**carriers, tv: smaller}, tuple(cand)


def shrink(law: Law, carriers: dict[str, Carrier], args: tuple[Relation, ...]) -> Counterexample:
    """Greedy local minimization: move to the first one-step reduction (see
    _smaller) on which the law still fails with every argument in its
    declared kind, until none does."""

    def fails(cs: dict[str, Carrier], ar: tuple[Relation, ...]) -> bool:
        return _args_valid(law, ar) and _fails(law, ar, cs)

    if not fails(carriers, args):
        raise ValueError("shrink must start from a failing instance")
    step = (carriers, args)
    while step is not None:
        carriers, args = step
        step = next((cand for cand in _smaller(carriers, args) if fails(*cand)), None)
    return Counterexample(
        law_id=law.id,
        sizes={tv: c.size for tv, c in carriers.items()},
        args=args,
    )


def _check_run(max_size: int, samples: int) -> None:
    # no size tuple, or a sampled size tuple with no samples, would check
    # nothing and still pass
    if not 1 <= max_size <= MAX_CARRIER_SIZE:
        raise ValueError(f"max_size must be between 1 and {MAX_CARRIER_SIZE}, got {max_size}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def run_law(
    law: Law,
    max_size: int = 3,
    samples: int = 2000,
    seed: int = 42,
    budget: int = EXHAUSTIVE_BUDGET,
) -> LawReport:
    _check_run(max_size, samples)
    modes_seen: set[str] = set()
    instances = 0
    failures: list[Counterexample] = []
    tvs = law.type_vars()
    sliced = isinstance(law.check, Formula)
    scan = _scan_sliced if sliced else _scan_scalar
    for sizes in product(range(1, max_size + 1), repeat=len(tvs)):
        carriers = {tv: Carrier(tv, n) for tv, n in zip(tvs, sizes)}
        # every kind's pool holds ⊥ or a point at sizes >= 1, so none is empty
        typed = [(carriers[v.src], carriers[v.dst]) for v in law.vars]
        pools = [_pool(v.kind, src, dst) for v, (src, dst) in zip(law.vars, typed)]
        # a space no larger than the sample count is enumerated: drawing from
        # it would repeat instances and could still miss some; so is a term
        # law's space whose sliced scan is estimated to cost no more than its draws
        space = prod(len(p) for p in pools)
        if (space * law.cost <= budget or space <= samples
                or sliced and _scan_pays(law, dict(zip(tvs, sizes)), pools, samples)):
            modes_seen.add("exhaustive")
            rng = None
        else:
            modes_seen.add("sampled")
            rng = random.Random(f"{seed}:{law.id}:{sizes}")
        checked, failed = scan(law, carriers, typed, pools, rng, samples)
        instances += checked
        if failed is not None:
            failures.append(shrink(law, carriers, failed))
            break
    mode = "mixed" if len(modes_seen) > 1 else modes_seen.pop()
    return LawReport(
        law_id=law.id,
        statement=law.statement,
        mode=mode,
        instances=instances,
        failures=failures,
        seed=seed,
    )


# A scan checks one size tuple: every instance in product order when rng is
# None, else `samples` draws. It returns the number of instances checked and
# the first failing one, or None.


def _scan_scalar(law, carriers, typed, pools, rng, samples):
    if rng is None:
        # each pool's relations are built once, for this size tuple only
        source = product(*(
            [_make(src, dst, code) for code in pool] for (src, dst), pool in zip(typed, pools)
        ))
    else:
        source = (
            tuple(_make(src, dst, pool[rng.randrange(len(pool))]) for (src, dst), pool in zip(typed, pools))
            for _ in range(samples)
        )
    checked = 0
    for args in source:
        checked += 1
        if _fails(law, args, carriers):
            return checked, args
    return checked, None


def _scan_sliced(law, carriers, typed, pools, rng, samples):
    """The scan of a term law: batches of at most _most_instances(...)
    instances, each evaluated at once on planes (see terms). An exhaustive scan cuts the
    product order into consecutive batches (see _geometry): it slices the
    trailing arguments and holds the leading ones fixed per batch, but for a
    chunk of codes of the last held one when that is a relation pool, whose
    low cells it slices too; a sampled one makes the draws of the scalar scan,
    in the same order."""
    sizes = {tv: c.size for tv, c in carriers.items()}
    cells = [src.size * dst.size for src, dst in typed]
    combinations = law.check.combinations(sizes)
    if rng is None:
        lead, chunk, batch = _geometry(pools, combinations)
        full = (1 << batch) - 1
        # a chunk is aligned, so its codes share every cell but the low k
        k = chunk.bit_length() - 1
        stride = batch // chunk
        low = range_planes(k, stride, batch)
        sliced = []
        for pool, n in zip(pools[lead:], cells[lead:]):
            stride //= len(pool)
            if isinstance(pool, range):
                sliced.append(range_planes(n, stride, batch))
            else:
                sliced.append(code_planes(pool, n, stride, batch // (stride * len(pool))))
        held = [*pools[:lead - 1], pools[lead - 1][::chunk]] if lead else []
        for q, fixed in enumerate(product(*held)):
            planes = [fixed_planes(code, n, full) for code, n in zip(fixed, cells)]
            if k:
                planes[lead - 1][:k] = low
            bad = law.check.failures(planes + sliced, sizes, full)
            if bad:
                x = q * batch + (bad & -bad).bit_length() - 1
                return x + 1, _relations(typed, _decode(x, pools))
        return prod(len(p) for p in pools), None
    draw = rng.randrange
    sized = [(pool, len(pool)) for pool in pools]
    cut = _most_instances(combinations)
    for start in range(0, samples, cut):
        batch = min(cut, samples - start)
        draws = [[pool[draw(n)] for pool, n in sized] for _ in range(batch)]
        full = (1 << batch) - 1
        planes = [code_planes(column, n) for column, n in zip(zip(*draws), cells)]
        bad = law.check.failures(planes, sizes, full)
        if bad:
            x = (bad & -bad).bit_length() - 1
            return start + x + 1, _relations(typed, draws[x])
    return samples, None


def _scan_pays(law: Law, sizes: dict[str, int], pools, samples: int) -> bool:
    """Whether a term law's exhaustive sliced scan of a size tuple is
    estimated to cost no more than its sampled scan: the draws, and one
    batch of `samples` instances (see Formula.runs and SLICE_BITS)."""
    fixed = wide = spread = 0  # a batch of b instances costs fixed + wide + spread * b / SLICE_BITS
    for (p, c, per_instance), n in law.check.runs(sizes).items():
        if per_instance:
            wide += n * p
            spread += n * p * c
        else:
            fixed += n * p * (1 + c / SLICE_BITS)
    batch = _geometry(pools, law.check.combinations(sizes))[2]
    scan = prod(len(p) for p in pools) // batch * (fixed + wide + spread * batch / SLICE_BITS)
    return scan <= samples * len(law.vars) * DRAW_COST + fixed + wide + spread * samples / SLICE_BITS


def _geometry(pools, combinations: int) -> tuple[int, int, int]:
    """An exhaustive sliced scan's batches, each a consecutive run of the
    product order: how many leading pools it holds fixed per batch, how many
    consecutive codes of the last of them a batch takes, and how many
    instances a batch holds, at most _most_instances(combinations). The
    trailing pools fill a batch whole. A held relation pool, range(2^cells),
    is cut into aligned power-of-two chunks, the chunk doubled while the
    batch stays within that and SLICE_BITS, where a plane costs mostly its
    per-call overhead; any other held pool gives one code per batch."""
    most = _most_instances(combinations)
    lead, batch = len(pools), 1
    while lead and batch * len(pools[lead - 1]) <= most:
        lead -= 1
        batch *= len(pools[lead])
    chunk = 1
    if lead and isinstance(pools[lead - 1], range):
        while 2 * chunk * batch <= min(SLICE_BITS, most):
            chunk *= 2
    return lead, chunk, chunk * batch


def _most_instances(combinations: int) -> int:
    """The most instances a batch of a statement holds: its binders lay
    their member combinations beside the instances, so its widest planes
    are the batch times its most `combinations` (Formula.combinations) bits,
    at most PLANE_BITS. An empty carrier's none count as one."""
    return max(1, PLANE_BITS // max(1, combinations))


def _decode(x: int, pools) -> tuple[int, ...]:
    """The codes of instance x of the product of the pools."""
    codes = []
    for pool in reversed(pools):
        x, i = divmod(x, len(pool))
        codes.append(pool[i])
    return tuple(reversed(codes))


def _relations(typed, codes) -> tuple[Relation, ...]:
    return tuple(_make(src, dst, code) for (src, dst), code in zip(typed, codes))


def run_suite(
    max_size: int = 3,
    samples: int = 2000,
    seed: int = 42,
    law_filter: str | None = None,
    registry: dict[str, Law] | None = None,
    budget: int = EXHAUSTIVE_BUDGET,
) -> SuiteReport:
    """Run (a filtered subset of) the registry; deterministic for fixed inputs.

    law_filter is a glob on law ids, e.g. 'residual-*' or '*index*'.
    """
    _check_run(max_size, samples)
    if registry is None:
        registry = REGISTRY
    if law_filter is None:
        ids = sorted(registry)
    elif law_filter in registry and not any(c in law_filter for c in "*?["):
        ids = [law_filter]  # an exact id matches itself alone: no pattern to compile
    else:
        ids = fnmatch.filter(sorted(registry), law_filter)
    chosen = [registry[law_id] for law_id in ids]
    if not chosen:
        # an empty run would report ok while checking nothing
        raise ValueError(f"no law matches the filter {law_filter!r}")
    reports = [run_law(law, max_size, samples, seed, budget) for law in chosen]
    return SuiteReport(max_size=max_size, samples=samples, seed=seed, reports=reports)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

OUT_OF_SCOPE: tuple[dict[str, str], ...] = (
    {
        "topic": "isomorphism is an equivalence on relations",
        "reason": "quantifying over triples of relation pairs exceeds the suite budget; "
                  "covered by dedicated unit and acceptance tests instead",
    },
    {
        "topic": "transitive/star closure",
        "reason": "closure operators are outside the algebra exercised here",
    },
    {
        "topic": "the refinement ordering on pers",
        "reason": "only the least-per characterizations of the per domains are in scope",
    },
    {
        "topic": "choice axioms as axioms",
        "reason": "concretely every per has an index by construction; the axiom status "
                  "is explored on the bundled abstract models, not as a concrete law",
    },
)


def build_manifest() -> dict:
    laws = {
        law_id: {
            "statement": law.statement,
            "variables": [
                {"kind": v.kind, "src": v.src, "dst": v.dst} for v in law.vars
            ],
            "extra_type_vars": list(law.extra_tvs),
            "cost": law.cost,
        }
        for law_id, law in sorted(REGISTRY.items())
    }
    return {
        "law_count": len(laws),
        "laws": laws,
        "out_of_scope": [dict(entry) for entry in OUT_OF_SCOPE],
    }
