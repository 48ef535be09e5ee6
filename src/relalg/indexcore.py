"""Indexes and cores of finite relations.

A relation J is an *index* of R when

    (a) J ⊆ R
    (b) R≺∘J∘R≻ = R
    (c) J<∘R≺∘J< = J<
    (d) J>∘R≻∘J> = J>

— one witnessing pair per block of R, with domains that pick exactly one
element from each per-domain class. Every finite relation has one: choose a
representative of each R≺-class and each R≻-class (per_index below) and
sandwich, J = J_l∘R∘J_r. All indexes of R are isomorphic to each other.

A *core* of R is any C = λ∘R∘ρ° where λ°∘λ = R≺, λ∘λ° = λ<, ρ°∘ρ = R≻ and
ρ∘ρ° = ρ<; same-type cores land on an index itself, quotient-mode cores land
on fresh carriers whose elements are the per-domain classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .domains import is_core_relation, is_per, ldom, per_ldom, per_rdom, rdom
from .rel import (
    MAX_ENUM_BITS, Carrier, EnumerationLimit, Relation, compose, converse, coreflexive, is_subset,
    relation_at, relation_code,
)

POLICIES = ("min", "max", "random")
CORE_MODES = ("same-type", "quotient")


def _representative(members: tuple[int, ...], policy: str, rng: random.Random | None) -> int:
    if policy == "min":
        return members[0]
    if policy == "max":
        return members[-1]
    assert policy == "random" and rng is not None
    return rng.choice(members)


def _per_classes(p: Relation) -> list[tuple[int, ...]]:
    """Equivalence classes of a per on its domain, ordered by smallest member."""
    seen = 0
    classes = []
    for i, row in enumerate(p.rows):
        if row and not seen >> i & 1:
            members = tuple(j for j in range(p.src.size) if row >> j & 1)
            classes.append(members)
            seen |= row
    return classes


def _check_per(p: Relation, who: str) -> None:
    if is_per(p):
        return
    if p.src != p.dst:
        raise ValueError(f"{who}: needs a homogeneous relation, got {p.src.name}~{p.dst.name}")
    bad = next(((i, j) for i, j in p.pairs() if (j, i) not in p), None)
    if bad is not None:
        raise ValueError(f"{who}: not a per — not symmetric, {bad} present without its converse")
    bad = next(pair for pair in compose(p, p).pairs() if pair not in p)
    raise ValueError(f"{who}: not a per — not transitive, composition adds {bad}")


def per_index(p: Relation, policy: str = "min", seed: int = 0) -> Relation:
    """A coreflexive index of a per: one representative per equivalence class.

    The result J satisfies J ⊆ P<, J∘P∘J = J and P∘J∘P = P (equivalently, it
    is an index in the general sense). Policy picks the representative:
    smallest member, largest member, or seeded-random choice.
    """
    _check_per(p, "per_index")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    rng = random.Random(f"{seed}:{p.src.name}:{p.src.size}") if policy == "random" else None
    reps = [_representative(members, policy, rng) for members in _per_classes(p)]
    return coreflexive(p.src, reps)


@dataclass(frozen=True)
class IndexCertificate:
    relation: Relation
    index: Relation
    checks: dict[str, bool] = field(compare=False)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def verify_index(r: Relation, j: Relation) -> IndexCertificate:
    """Evaluate the four defining conditions; .ok iff J really indexes R."""
    if j.src != r.src or j.dst != r.dst:
        raise ValueError(
            f"index candidate has type {j.src.name}~{j.dst.name}, relation has {r.src.name}~{r.dst.name}"
        )
    lpd, rpd, jl, jr = per_ldom(r), per_rdom(r), ldom(j), rdom(j)
    checks = {
        "J ⊆ R": is_subset(j, r),
        "R≺∘J∘R≻ = R": compose(compose(lpd, j), rpd) == r,
        "J<∘R≺∘J< = J<": compose(compose(jl, lpd), jl) == jl,
        "J>∘R≻∘J> = J>": compose(compose(jr, rpd), jr) == jr,
    }
    return IndexCertificate(relation=r, index=j, checks=checks)


def relation_index(r: Relation, policy: str = "min", seed: int = 0) -> IndexCertificate:
    """Construct an index of R by sandwiching between per-domain representatives.

    J = J_l∘R∘J_r where J_l, J_r are coreflexive indexes of R≺ and R≻. The
    certificate is verified before being returned; failure would be a bug,
    not an input condition, hence RuntimeError.
    """
    jl = per_index(per_ldom(r), policy, seed)
    jr = per_index(per_rdom(r), policy, seed)
    j = compose(compose(jl, r), jr)
    cert = verify_index(r, j)
    if not cert.ok:
        raise RuntimeError(f"constructed index failed verification: {cert.checks}")
    return cert


def candidate_indexes(r: Relation) -> list[Relation]:
    """Every subset of R that verifies as an index, in relation_code order.

    Conditions (b)-(d) force J< to pick exactly one element of each R≺-class
    and J> one of each R≻-class: (c) allows at most one per class, (b) needs
    at least one. With J ⊆ R this gives J = J<∘J∘J> ⊆ J<∘R∘J>. So every
    subset of every sandwich Jl∘R∘Jr, over all such transversals Jl and Jr,
    is checked with verify_index; the subsets are still brute-forced, so a
    law about all indexes is tested, not assumed. Refuses a relation with a
    sandwich of more than MAX_ENUM_BITS pairs, which never happens on
    carriers of at most 4 elements. This is the package-side enumerator used
    by the law suite (the test suite cross-checks it against an independent
    oracle).
    """
    sandwiches = [
        compose(compose(coreflexive(r.src, left), r), coreflexive(r.dst, right)).code
        for left in product(*_per_classes(per_ldom(r)))
        for right in product(*_per_classes(per_rdom(r)))
    ]
    widest = max(code.bit_count() for code in sandwiches)
    if widest > MAX_ENUM_BITS:
        raise EnumerationLimit(f"index sandwich has {widest} pairs; refusing 2**{widest} subsets")
    found = []
    for code in sandwiches:
        sub = code
        while True:  # every subset of the sandwich, the empty one last
            j = relation_at(r.src, r.dst, sub)
            if verify_index(r, j).ok:
                found.append(j)
            if not sub:
                break
            sub = (sub - 1) & code
    return sorted(found, key=relation_code)


def splitting(p: Relation, policy: str = "min", seed: int = 0) -> Relation:
    """A functional f with f°∘f = P and f∘f° the chosen coreflexive index.

    f = J∘P maps every element of P's domain onto its class representative
    (on the left), exhibiting the per as "function composed with own converse".
    """
    j = per_index(p, policy, seed)
    return compose(j, p)


@dataclass(frozen=True)
class CoreDecomposition:
    relation: Relation
    lam: Relation
    rho: Relation
    core: Relation
    mode: str

    def verify(self) -> dict[str, bool]:
        r, lam, rho, c = self.relation, self.lam, self.rho, self.core
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


def _quotient_leg(per: Relation, carrier_name: str) -> Relation:
    """λ : X~A with X the classes of a per on A, row x = the class's members."""
    classes = _per_classes(per)
    labels = ["{" + ",".join(per.src.labels[i] for i in members) + "}" for members in classes]
    x = Carrier(carrier_name, len(classes), labels)
    return Relation(x, per.src, [sum(1 << i for i in members) for members in classes])


def core_of(r: Relation, mode: str = "same-type", policy: str = "min", seed: int = 0) -> CoreDecomposition:
    """A core of R: C = λ∘R∘ρ° together with the legs.

    mode "same-type" keeps the original carriers (C is then itself an index of
    R); mode "quotient" builds fresh carriers whose elements are the per-domain
    classes, so C is a genuine quotient with full domains on the fresh side.
    """
    if mode == "same-type":
        cert = relation_index(r, policy, seed)
        j = cert.index
        lam = compose(ldom(j), per_ldom(r))
        rho = compose(rdom(j), per_rdom(r))
    elif mode == "quotient":
        lam = _quotient_leg(per_ldom(r), f"X({r.src.name},left)")
        rho = _quotient_leg(per_rdom(r), f"X({r.dst.name},right)")
    else:
        raise ValueError(f"unknown mode {mode!r}, expected one of {CORE_MODES}")
    core = compose(compose(lam, r), converse(rho))
    dec = CoreDecomposition(relation=r, lam=lam, rho=rho, core=core, mode=mode)
    bad = [k for k, v in dec.verify().items() if not v]
    if bad:
        raise RuntimeError(f"core decomposition failed its own equations: {bad}")
    return dec
