"""Domain operators and the predicate zoo built on them.

The coreflexive domains of R : A~B are
    R< = 𝕀 ∩ R∘R°   (left: the sources that R relates to anything)
    R> = 𝕀 ∩ R°∘R   (right: the targets hit by R)
and the per domains are
    R≺ = (R//R)∘R<  (relate a to a' when their R-rows are equal and nonempty)
    R≻ = R>∘(R\\\\R) (relate b to b' when their R-columns are equal and nonempty).

Both per domains are partial equivalence relations (pers): symmetric and
transitive but not necessarily reflexive. A relation equal to its own per
domains on both sides is a "core relation" — the shape that indexes and
cores single out.

Convention note: `functional` here means R∘R° ⊆ 𝕀 (each target has at most
one source; functions consume their argument on the right), and `injective`
means R°∘R ⊆ 𝕀.

The membership predicates (per, functional, injective, bijection,
difunctional, rectangle, square) are decided on the rows of the matrix, with
no composition: a per's nonempty rows contain their own index and agree with
the rows of their members, a difunction's rows are equal or disjoint, and so
on. `per_characterizations` and `difunctional_characterizations` keep the
point-free forms, and the tests compare them with the row predicates, a
cross-check between independent definitions; the registry's per-equivalents
and difunctional-equivalents state the same equivalences as parsed statements
and call neither.

The four domain operators are memoized on codes and sizes, as the kernel's
operations are (see rel), so their results carry the caller's carriers.
classify evaluates its flags on one tuple of rows and its core flag on codes,
as is_core_relation does; neither builds a Relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator

from . import factors
from .rel import (
    MAX_ENUM_BITS, Carrier, EnumerationLimit, Relation, _converse_memo, _diagonal, _make,
    _rows, _served_by, compose, converse, intersect, is_coreflexive, is_subset,
)


# laws-size3 and criterion 2 leave the most left domain codes, 686.
@lru_cache(maxsize=1 << 12)
def _ldom_code(code: int, n: int, k: int) -> int:
    full = (1 << k) - 1
    out = 0
    for i in range(n):
        if code >> (i * k) & full:
            out |= 1 << (i * n + i)
    return out


# laws-size3 and criterion 2 leave the most right domain codes, 585.
@lru_cache(maxsize=1 << 12)
def _rdom_code(code: int, k: int) -> int:
    full = (1 << k) - 1
    mask = 0
    while code:
        mask |= code & full
        code >>= k
    return _diagonal(mask, k)


# The sweep's 4x3 phase asks again for the codes of its 3x4 phase's per_rdom, about 8k calls before.
@lru_cache(maxsize=1 << 14)
def _per_ldom_code(code: int, n: int, k: int) -> int:
    rows = _rows(code, n, k)
    members: dict[int, int] = {}
    for i, row in enumerate(rows):
        if row:
            members[row] = members.get(row, 0) | 1 << i
    out = 0
    for i, row in enumerate(rows):
        if row:
            out |= members[row] << (i * n)
    return out


# laws-size3 and criterion 2 leave the most, 683. The sweep's reuse across
# phases is held by _per_ldom_code, which answers this memo's misses: 2^14
# would save 63 of 9,299.
@lru_cache(maxsize=1 << 12)
def _per_rdom_code(code: int, n: int, k: int) -> int:
    return _per_ldom_code(_converse_memo(code, n, k), k, n)


@_served_by(_ldom_code)
def ldom(r: Relation) -> Relation:
    """R< : sub-identity on sources with nonempty row."""
    return _make(r.src, r.src, _ldom_code(r.code, r.src.size, r.dst.size))


@_served_by(_rdom_code)
def rdom(r: Relation) -> Relation:
    """R> : sub-identity on targets with nonempty column."""
    return _make(r.dst, r.dst, _rdom_code(r.code, r.dst.size))


@_served_by(_per_ldom_code)
def per_ldom(r: Relation) -> Relation:
    """R≺ : relate two sources exactly when their rows agree and are nonempty."""
    return _make(r.src, r.src, _per_ldom_code(r.code, r.src.size, r.dst.size))


@_served_by(_per_rdom_code)
def per_rdom(r: Relation) -> Relation:
    """R≻ : relate two targets exactly when their columns agree and are nonempty."""
    return _make(r.dst, r.dst, _per_rdom_code(r.code, r.src.size, r.dst.size))


# -- predicates ---------------------------------------------------------------
#
# Each predicate is decided by one pass over the rows, without composing: the
# law runner asks these questions of every argument it checks, and none of the
# composites would ever be asked for again.


def _per_rows(rows: tuple[int, ...]) -> bool:
    for i, row in enumerate(rows):
        if row and not row >> i & 1:
            return False
        members = row
        while members:
            low = members & -members
            if rows[low.bit_length() - 1] != row:
                return False
            members ^= low
    return True


def is_per(r: Relation) -> bool:
    """Symmetric and transitive (not necessarily reflexive): every nonempty
    row contains its own index and equals the row of each of its members."""
    return r.src == r.dst and _per_rows(r.rows)


def _functional_rows(rows: tuple[int, ...]) -> bool:
    seen = 0
    for row in rows:
        if seen & row:
            return False
        seen |= row
    return True


def is_functional(r: Relation) -> bool:
    """R∘R° ⊆ 𝕀: the rows are pairwise disjoint."""
    return _functional_rows(r.rows)


def _injective_rows(rows: tuple[int, ...]) -> bool:
    return all(row.bit_count() <= 1 for row in rows)


def is_injective(r: Relation) -> bool:
    """R°∘R ⊆ 𝕀: every row has at most one bit."""
    return _injective_rows(r.rows)


def is_bijection(r: Relation) -> bool:
    rows = r.rows
    return _functional_rows(rows) and _injective_rows(rows)


def _difunctional_rows(rows: tuple[int, ...]) -> bool:
    seen, distinct = 0, set()
    for row in rows:
        if row in distinct:
            continue
        if seen & row:
            return False
        seen |= row
        distinct.add(row)
    return True


def is_difunctional(r: Relation) -> bool:
    """R∘R°∘R ⊆ R: any two rows are equal or disjoint."""
    return _difunctional_rows(r.rows)


# The law runner's difunction and functional pools are generated, not filtered
# from every relation on the carriers: each generator makes every member of its
# kind exactly once and returns the codes sorted, so the pool is the one the
# row predicates above would keep, in the same order.


def _partial_partitions(n: int) -> list[tuple[int, ...]]:
    """Every family of pairwise disjoint nonempty masks over n elements, once
    each, its blocks ordered by least member. There are S(n+1, k+1) with k
    blocks."""
    out: list[tuple[int, ...]] = [()]
    for i in range(n):
        bit = 1 << i
        grown = []
        for blocks in out:
            grown.append(blocks)  # i in no block
            grown.extend(blocks[:b] + (blocks[b] | bit,) + blocks[b + 1:] for b in range(len(blocks)))
            grown.append(blocks + (bit,))  # i opens a block
        out = grown
    return out


def _difunctional_codes(n: int, m: int) -> list[int]:
    """The n×m difunctions in code order: R = ⋃ rowsᵢ × cols_σ(i) over k
    disjoint row blocks, k disjoint column blocks and a bijection σ between
    them (Riguet). Σₖ S(n+1,k+1)·S(m+1,k+1)·k! codes."""
    columns: dict[int, list[tuple[int, ...]]] = {}
    for blocks in _partial_partitions(m):
        columns.setdefault(len(blocks), []).append(blocks)
    codes = []
    for blocks in _partial_partitions(n):
        # rows × cols is spread * cols, with one bit of spread at each row's cell 0
        spreads = [sum(1 << i * m for i in range(n) if block >> i & 1) for block in blocks]
        for cols in columns.get(len(blocks), ()):
            for sigma in permutations(cols):
                codes.append(sum(s * c for s, c in zip(spreads, sigma)))
    codes.sort()
    return codes


def _functional_codes(n: int, m: int) -> list[int]:
    """The n×m functionals (pairwise disjoint rows) in code order: each column
    holds no bit or the bit of one row, (n+1)^m codes."""
    codes = [0]
    for j in range(m):
        cells = [1 << i * m + j for i in range(n)]
        codes += [code | cell for code in codes for cell in cells]
    codes.sort()
    return codes


def _rectangle_rows(rows: tuple[int, ...]) -> bool:
    shared = 0
    for row in rows:
        if row:
            if shared and row != shared:
                return False
            shared = row
    return True


def is_rectangle(r: Relation) -> bool:
    """R = R∘⊤∘R: all nonempty rows are equal."""
    return _rectangle_rows(r.rows)


def _square_rows(rows: tuple[int, ...]) -> bool:
    support = sum(1 << i for i, row in enumerate(rows) if row)
    return all(row == support for row in rows if row)


def is_square(r: Relation) -> bool:
    """A symmetric rectangle: every nonempty row is the set of nonempty rows."""
    return r.src == r.dst and _square_rows(r.rows)


def _core_code(code: int, n: int, k: int) -> bool:
    return (_ldom_code(code, n, k) == _per_ldom_code(code, n, k)
            and _rdom_code(code, k) == _per_rdom_code(code, n, k))


def is_core_relation(r: Relation) -> bool:
    return _core_code(r.code, r.src.size, r.dst.size)


def per_characterizations(q: Relation) -> dict[str, bool]:
    """Four equivalent ways of being a per, reported separately.

    Any one of them decides the property; computing all four lets tests pin
    the equivalence itself.
    """
    if q.src != q.dst:
        raise ValueError(f"per_characterizations needs a homogeneous relation, got {q.src.name}~{q.dst.name}")
    return {
        "symmetric and transitive": converse(q) == q and is_subset(compose(q, q), q),
        "R = R°∘R": q == compose(converse(q), q),
        "R = R≺": q == per_ldom(q),
        "R = R≻": q == per_rdom(q),
    }


def difunctional_characterizations(r: Relation) -> dict[str, bool]:
    """The seven equivalent statements of difunctionality, reported separately."""
    rc = converse(r)
    rrc = compose(r, rc)  # R∘R°
    rcr = compose(rc, r)  # R°∘R
    under = factors.left_residual(r, r)
    over = factors.right_residual(r, r)
    return {
        "R∘R°∘R ⊆ R": is_subset(compose(rrc, r), r),
        "R = R∘R°∘R": r == compose(rrc, r),
        "R>∘(R\\R) = R°∘R": compose(rdom(r), under) == rcr,
        "R≻ = R°∘R": per_rdom(r) == rcr,
        "(R/R)∘R< = R∘R°": compose(over, ldom(r)) == rrc,
        "R≺ = R∘R°": per_ldom(r) == rrc,
        "R = R ∩ (R\\R/R)°": r == intersect(r, converse(factors.right_residual(under, r))),
    }


@dataclass(frozen=True)
class PredicateReport:
    """Structural classification of one relation, each flag decided on rows
    by the predicates above (core_relation on codes, by is_core_relation's
    test). The homogeneous-only flags are False for heterogeneous relations."""

    coreflexive: bool
    functional: bool
    injective: bool
    bijection: bool
    per: bool
    difunctional: bool
    rectangle: bool
    square: bool
    core_relation: bool


def classify(r: Relation) -> PredicateReport:
    code, n, k = r.code, r.src.size, r.dst.size
    rows, homogeneous = _rows(code, n, k), r.src == r.dst
    functional, injective = _functional_rows(rows), _injective_rows(rows)
    rep = PredicateReport(
        coreflexive=is_coreflexive(r),
        functional=functional,
        injective=injective,
        bijection=functional and injective,
        per=homogeneous and _per_rows(rows),
        difunctional=_difunctional_rows(rows),
        rectangle=_rectangle_rows(rows),
        square=homogeneous and _square_rows(rows),
        core_relation=_core_code(code, n, k),
    )
    # structural sanity: these implications are theorems, not opinions
    if not ((not rep.square or rep.rectangle) and (not rep.per or rep.difunctional)
            and rep.bijection == (rep.functional and rep.injective) and (not rep.coreflexive or rep.per)):
        raise RuntimeError(f"classification breaks an implication between its flags: {rep}")
    return rep


# -- typed enumeration helpers -------------------------------------------------


def enumerate_pers(carrier: Carrier) -> Iterator[Relation]:
    """All pers over the carrier, in code order: one per partial partition,
    whose row i is the block holding i, or empty (the difunctions whose
    bijection σ is the identity), so Bell(n+1) of them."""
    n = carrier.size
    if n * (n + 1) // 2 > MAX_ENUM_BITS:
        raise EnumerationLimit(f"per enumeration is meant for tiny carriers, not {n} elements")
    codes = [sum(block << i * n for block in blocks for i in range(n) if block >> i & 1)
             for blocks in _partial_partitions(n)]
    for code in sorted(codes):
        yield _make(carrier, carrier, code)
