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

Indexes, cores and their certificates are computed on int codes and carrier
sizes with the kernel's code memos (see rel), not on Relation objects: one
definition of (a)-(d), _index_checks, serves relation_index, verify_index and
candidate_indexes. A Relation is built only for a value the API returns.

candidate_indexes lists every index of R without searching: by the theorem
that an index is the sandwich of its own domains (see its docstring), the
indexes of R are exactly the sandwiches Jl∘R∘Jr over the transversals Jl of
R≺ and Jr of R≻, one per pair, each certified by _index_checks.

The partition of a per into its classes is decided once per per code, by
three memos that relalg.cache_clear empties. _per_classes keeps the class
masks, which every transversal, candidate_indexes and the CLI's drawing read.
_fixed_pick keeps the min- and max-policy transversals. _quotient_carrier
keeps a quotient leg's class carrier and code, keyed on the labels of the
carrier it lands on as well as its size, since class labels are built from
them; each call wraps the code in its caller's own carrier.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import prod

from .domains import _core_code, _ldom_code, _per_ldom_code, _per_rdom_code, _rdom_code, is_per
from .rel import (
    MAX_ENUM_BITS, Carrier, EnumerationLimit, Relation, _compose_memo, _converse_memo, _diagonal,
    _make, _middle_mismatch, _rows, compose,
)

POLICIES = ("min", "max", "random")
CORE_MODES = ("same-type", "quotient")


def _members(mask: int) -> tuple[int, ...]:
    """The elements of a mask, in increasing order."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def _representative(mask: int, policy: str, rng: random.Random | None) -> int:
    """The chosen member of a class mask, as a one-bit mask."""
    if policy == "min":
        return mask & -mask
    if policy == "max":
        return 1 << mask.bit_length() - 1
    assert policy == "random" and rng is not None
    return 1 << rng.choice(_members(mask))


@lru_cache(maxsize=1 << 12)
def _per_classes(per: int, n: int) -> tuple[int, ...]:
    """Equivalence classes of the per with this n×n code on its domain, as
    masks ordered by smallest member: a nonempty row of a per is its class."""
    seen = 0
    classes = []
    for i, row in enumerate(_rows(per, n, n)):
        if row and not seen >> i & 1:
            classes.append(row)
            seen |= row
    return tuple(classes)


def _class_label(labels: tuple[str, ...], mask: int) -> str:
    """The label of a class: its members' labels in braces, comma-separated.

    A member label holding a comma, a brace or a double quote is written as a
    JSON string, so distinct classes always get distinct labels; plain labels,
    the default numerals among them, are written as they are.
    """
    return "{" + ",".join(
        json.dumps(label, ensure_ascii=False) if any(c in label for c in ',{}"') else label
        for label in (labels[i] for i in _members(mask))
    ) + "}"


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


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")


def _pick(per: int, n: int, policy: str, rng: random.Random | None) -> int:
    """Code of the coreflexive on the chosen representative of each class of
    the per with this n×n code."""
    mask = 0
    for cls in _per_classes(per, n):
        mask |= _representative(cls, policy, rng)
    return _diagonal(mask, n)


@lru_cache(maxsize=1 << 12)
def _fixed_pick(per: int, n: int, policy: str) -> int:
    """_pick for the min and max policies, which depend on the per alone; a
    random pick draws afresh."""
    return _pick(per, n, policy, None)


def _transversal(per: int, carrier: Carrier, policy: str, seed: int) -> int:
    """Code of the coreflexive on the chosen representative of each class of
    the per with this code on the carrier."""
    _check_policy(policy)
    if policy == "random":
        return _pick(per, carrier.size, policy, random.Random(f"{seed}:{carrier.name}:{carrier.size}"))
    return _fixed_pick(per, carrier.size, policy)


def per_index(p: Relation, policy: str = "min", seed: int = 0) -> Relation:
    """A coreflexive index of a per: one representative per equivalence class.

    The result J satisfies J ⊆ P<, J∘P∘J = J and P∘J∘P = P (equivalently, it
    is an index in the general sense). Policy picks the representative:
    smallest member, largest member, or seeded-random choice.
    """
    _check_per(p, "per_index")
    return _make(p.src, p.src, _transversal(p.code, p.src, policy, seed))


@dataclass(frozen=True)
class IndexCertificate:
    relation: Relation
    index: Relation
    checks: dict[str, bool] = field(compare=False)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _index_checks(r: int, j: int, n: int, k: int) -> dict[str, bool]:
    """Conditions (a)-(d) for the n×k codes of R and of a candidate J."""
    lpd, rpd, jl, jr = _per_ldom_code(r, n, k), _per_rdom_code(r, n, k), _ldom_code(j, n, k), _rdom_code(j, k)
    return {
        "J ⊆ R": not j & ~r,
        "R≺∘J∘R≻ = R": _compose_memo(_compose_memo(lpd, j, n, n, k), rpd, n, k, k) == r,
        "J<∘R≺∘J< = J<": _compose_memo(_compose_memo(jl, lpd, n, n, n), jl, n, n, n) == jl,
        "J>∘R≻∘J> = J>": _compose_memo(_compose_memo(jr, rpd, k, k, k), jr, k, k, k) == jr,
    }


def verify_index(r: Relation, j: Relation) -> IndexCertificate:
    """Evaluate the four defining conditions; .ok iff J really indexes R."""
    if j.src != r.src or j.dst != r.dst:
        raise ValueError(
            f"index candidate has type {j.src.name}~{j.dst.name}, relation has {r.src.name}~{r.dst.name}"
        )
    return IndexCertificate(relation=r, index=j, checks=_index_checks(r.code, j.code, r.src.size, r.dst.size))


def _sandwich(r: int, left: int, right: int, n: int, k: int) -> int:
    """Code of Jl∘R∘Jr for the n×k code of R between two coreflexive codes."""
    return _compose_memo(_compose_memo(left, r, n, n, k), right, n, k, k)


def _index(r: Relation, policy: str, seed: int) -> tuple[int, dict[str, bool]]:
    """The code of the sandwich index of R, with its verified conditions."""
    code, n, k = r.code, r.src.size, r.dst.size
    jl = _transversal(_per_ldom_code(code, n, k), r.src, policy, seed)
    jr = _transversal(_per_rdom_code(code, n, k), r.dst, policy, seed)
    j = _sandwich(code, jl, jr, n, k)
    checks = _index_checks(code, j, n, k)
    if not all(checks.values()):
        raise RuntimeError(f"constructed index failed verification: {checks}")
    return j, checks


def relation_index(r: Relation, policy: str = "min", seed: int = 0) -> IndexCertificate:
    """Construct an index of R by sandwiching between per-domain representatives.

    J = J_l∘R∘J_r where J_l, J_r are coreflexive indexes of R≺ and R≻. The
    certificate is verified before being returned; failure would be a bug,
    not an input condition, hence RuntimeError.
    """
    j, checks = _index(r, policy, seed)
    return IndexCertificate(relation=r, index=_make(r.src, r.dst, j), checks=checks)


def candidate_indexes(r: Relation) -> list[Relation]:
    """Every index of R, in relation_code order: the sandwich Jl∘R∘Jr for
    each transversal Jl of R≺ and Jr of R≻ (a coreflexive on one element of
    each class). These are all the indexes of R, and each appears once:

    1. For an index J, (b) and (c) make J< a transversal of R≺: (c) lets
       J< hold at most one element of each class, and (b) needs at least
       one, since each a in R< has a pair of R≺∘J∘R≻ = R. Likewise (b) and
       (d) make J> a transversal of R≻.
    2. J = J<∘J∘J> ⊆ J<∘R∘J>, by (a).
    3. Conversely, a pair (x, y) of J<∘R∘J> is in R = R≺∘J∘R≻, so some
       (x', y') in J has x R≺ x' and y' R≻ y. Then x and x' are both in J<
       and in one R≺-class, so x = x' by step 1, and y = y' likewise: (x, y)
       is in J. So J = J<∘R∘J>, the sandwich of its own domains.
    4. Every transversal sandwich S = Jl∘R∘Jr satisfies (a) to (d). (a)
       holds as Jl and Jr are coreflexive. A pair (a, b) of R has equal rows
       with the representative x of its R≺-class and equal columns with the
       representative y of its R≻-class, so (x, y) is in R and in S, and
       R ⊆ R≺∘S∘R≻ ⊆ R≺∘R∘R≻ = R gives (b). So S< = Jl and S> = Jr,
       transversals, which gives (c) and (d), and distinct pairs give
       distinct indexes.

    Each sandwich is still certified by _index_checks before it is returned;
    a failure would be a bug, not an input condition, hence RuntimeError.
    Refuses a relation with more than 2**MAX_ENUM_BITS transversal pairs
    before composing any sandwich; carriers of at most 15 elements never
    have more. This is the package-side enumerator used by the law suite
    (the test suite cross-checks it against an independent oracle).
    """
    code, n, k = r.code, r.src.size, r.dst.size
    lefts = [_members(cls) for cls in _per_classes(_per_ldom_code(code, n, k), n)]
    rights = [_members(cls) for cls in _per_classes(_per_rdom_code(code, n, k), k)]
    count = prod(len(cls) for cls in lefts + rights)
    if count > 1 << MAX_ENUM_BITS:
        raise EnumerationLimit(f"relation has {count} pairs of domain transversals; refusing more than "
                               f"2**{MAX_ENUM_BITS}")

    def transversals(classes: list[tuple[int, ...]], size: int) -> list[int]:
        return [_diagonal(sum(1 << i for i in pick), size) for pick in product(*classes)]

    found = []
    for left in transversals(lefts, n):
        for right in transversals(rights, k):
            j = _sandwich(code, left, right, n, k)
            checks = _index_checks(code, j, n, k)
            if not all(checks.values()):
                raise RuntimeError(f"sandwich index failed verification: {checks}")
            found.append(j)
    return [_make(r.src, r.dst, j) for j in sorted(found)]


def splitting(p: Relation, policy: str = "min", seed: int = 0) -> Relation:
    """A functional f with f°∘f = P and f∘f° the chosen coreflexive index.

    f = J∘P maps every element of P's domain onto its class representative
    (on the left), exhibiting the per as "function composed with own converse".
    """
    _check_per(p, "splitting")
    n = p.src.size
    return _make(p.src, p.dst, _compose_memo(_transversal(p.code, p.src, policy, seed), p.code, n, n, n))


@dataclass(frozen=True)
class CoreDecomposition:
    relation: Relation
    lam: Relation
    rho: Relation
    core: Relation
    mode: str

    def verify(self) -> dict[str, bool]:
        r, lam, rho, c = self.relation, self.lam, self.rho, self.core
        # λ∘R∘ρ° composes only for λ : X~A and ρ : Y~B, given R : A~B, and
        # raises compose's error otherwise. Then both sides of each equation
        # lie on the same carriers, except where C appears: C is compared on
        # its carriers as well as its code, as Relation equality does.
        if lam.dst != r.src:
            raise _middle_mismatch(lam.src, lam.dst, r.src, r.dst)
        if r.dst != rho.dst:
            raise _middle_mismatch(lam.src, r.dst, rho.dst, rho.src)
        n, k, x, y = r.src.size, r.dst.size, lam.src.size, rho.src.size
        lam_conv, rho_conv = _converse_memo(lam.code, x, n), _converse_memo(rho.code, y, k)
        lam_left, rho_left = _ldom_code(lam.code, x, n), _ldom_code(rho.code, y, k)
        return {
            "λ°∘λ = R≺": _compose_memo(lam_conv, lam.code, n, x, n) == _per_ldom_code(r.code, n, k),
            "λ∘λ° = λ<": _compose_memo(lam.code, lam_conv, x, n, x) == lam_left,
            "ρ°∘ρ = R≻": _compose_memo(rho_conv, rho.code, k, y, k) == _per_rdom_code(r.code, n, k),
            "ρ∘ρ° = ρ<": _compose_memo(rho.code, rho_conv, y, k, y) == rho_left,
            "C = λ∘R∘ρ°": c.src == lam.src and c.dst == rho.src
            and c.code == _compose_memo(_compose_memo(lam.code, r.code, x, n, k), rho_conv, x, k, y),
            "C is a core relation": _core_code(c.code, c.src.size, c.dst.size),
            "λ> = R<": _rdom_code(lam.code, n) == _ldom_code(r.code, n, k),
            "C< = λ<": c.src == lam.src and _ldom_code(c.code, c.src.size, c.dst.size) == lam_left,
            "ρ> = R>": _rdom_code(rho.code, k) == _rdom_code(r.code, k),
            "C> = ρ<": c.dst == rho.src and _rdom_code(c.code, c.dst.size) == rho_left,
        }


@lru_cache(maxsize=1 << 12)
def _quotient_carrier(per: int, n: int, labels: tuple[str, ...], name: str) -> tuple[Carrier, int]:
    """The carrier X of the classes of the per with this n×n code, named name
    and labelled from the labels of its domain, and the code of λ : X~A whose
    row x is class x's members."""
    classes = _per_classes(per, n)
    code = 0
    for x, cls in enumerate(classes):
        code |= cls << (x * n)
    return Carrier(name, len(classes), [_class_label(labels, cls) for cls in classes]), code


def _quotient_leg(per: int, carrier: Carrier, name: str) -> Relation:
    """λ : X~A with X the classes of the per with this code on A, row x = the
    class's members."""
    quotient, code = _quotient_carrier(per, carrier.size, carrier.labels, name)
    return _make(quotient, carrier, code)


def core_of(r: Relation, mode: str = "same-type", policy: str = "min", seed: int = 0) -> CoreDecomposition:
    """A core of R: C = λ∘R∘ρ° together with the legs.

    mode "same-type" keeps the original carriers (C is then itself an index of
    R); mode "quotient" builds fresh carriers whose elements are the per-domain
    classes, so C is a genuine quotient with full domains on the fresh side.
    """
    _check_policy(policy)
    code, n, k = r.code, r.src.size, r.dst.size
    if mode == "same-type":
        j, _ = _index(r, policy, seed)
        lam = _make(r.src, r.src, _compose_memo(_ldom_code(j, n, k), _per_ldom_code(code, n, k), n, n, n))
        rho = _make(r.dst, r.dst, _compose_memo(_rdom_code(j, k), _per_rdom_code(code, n, k), k, k, k))
    elif mode == "quotient":
        lam = _quotient_leg(_per_ldom_code(code, n, k), r.src, f"X({r.src.name},left)")
        rho = _quotient_leg(_per_rdom_code(code, n, k), r.dst, f"X({r.dst.name},right)")
    else:
        raise ValueError(f"unknown mode {mode!r}, expected one of {CORE_MODES}")
    x, y = lam.src.size, rho.src.size
    core = _compose_memo(_compose_memo(lam.code, code, x, n, k), _converse_memo(rho.code, y, k), x, k, y)
    dec = CoreDecomposition(relation=r, lam=lam, rho=rho, core=_make(lam.src, rho.src, core), mode=mode)
    bad = [name for name, ok in dec.verify().items() if not ok]
    if bad:
        raise RuntimeError(f"core decomposition failed its own equations: {bad}")
    return dec
