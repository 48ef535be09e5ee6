"""Points, pairs, particles, and the all-or-nothing decomposition.

A *point* of a carrier is a proper atom of its coreflexive lattice — concretely
a single diagonal element, abstractly the algebraic stand-in for "an element".
A *pair* is a proper relation Z with Z = Z∘⊤∘Z, Z< = Z∘Z° and Z> = Z°∘Z
(concretely: exactly one matrix bit); a *particle* is a symmetric pair, and
particles coincide with points. Every relation is the union of the pairs
a∘⊤∘b it dominates, and squeezing by points is all-or-nothing: a∘R∘b is
either ⊥ or the whole of a∘⊤∘b.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .domains import ldom, rdom
from .rel import Carrier, Relation, _make, bottom, compose, converse, is_coreflexive, top


def points(carrier: Carrier) -> list[Relation]:
    """The points of a carrier, one per element, in element order."""
    n = carrier.size
    return [_make(carrier, carrier, 1 << i * (n + 1)) for i in range(n)]  # bit i*n + i is (i, i)


def is_atom(r: Relation) -> bool:
    """No relation sits strictly between ⊥ and r (⊥ itself passes vacuously).

    Decided on the code: a relation with two or more bits has a strictly
    smaller one-bit sub-relation. Every sub-relation of a coreflexive is
    coreflexive, so a coreflexive is an atom among the coreflexives exactly
    when it is one among all relations.
    """
    return r.bit_count() <= 1


def is_point(p: Relation) -> bool:
    """Proper coreflexive atom. Heterogeneous input is a type error."""
    if p.src != p.dst:
        raise ValueError(f"a point must be homogeneous, got {p.src.name}~{p.dst.name}")
    return bool(p) and is_coreflexive(p) and is_atom(p)


def is_pair(z: Relation) -> bool:
    """Z ≠ ⊥, Z = Z∘⊤∘Z, Z< = Z∘Z° and Z> = Z°∘Z, checked literally."""
    if not z:
        return False
    zc = converse(z)
    return (
        compose(compose(z, top(z.dst, z.src)), z) == z
        and compose(z, zc) == ldom(z)
        and compose(zc, z) == rdom(z)
    )


def is_particle(z: Relation) -> bool:
    if z.src != z.dst:
        raise ValueError(f"a particle must be homogeneous, got {z.src.name}~{z.dst.name}")
    return converse(z) == z and is_pair(z)


def pair_rel(a: Relation, b: Relation) -> Relation:
    """a∘⊤∘b for points a, b — the pair singling out one matrix cell."""
    _require_point(a, "a")
    _require_point(b, "b")
    return compose(compose(a, top(a.src, b.src)), b)


def _require_point(p: Relation, name: str) -> None:
    if p.src != p.dst or not is_point(p):
        raise ValueError(f"{name} must be a point, got {p!r}")


def all_or_nothing(r: Relation, a: Relation, b: Relation) -> str:
    """Squeeze r between two points: returns "bottom" or "full".

    "full" means a∘r∘b = a∘⊤∘b. No third outcome exists; that is the theorem,
    and a RuntimeError would mean the algebra is broken.
    """
    _require_point(a, "a")
    _require_point(b, "b")
    if a.src != r.src or b.src != r.dst:
        raise ValueError(
            f"points over {a.src.name} and {b.src.name} do not frame a {r.src.name}~{r.dst.name} relation"
        )
    squeezed = compose(compose(a, r), b)
    if not squeezed:
        return "bottom"
    if squeezed != pair_rel(a, b):
        raise RuntimeError("a∘R∘b must be ⊥ or the full pair")
    return "full"


def decompose_to_pairs(r: Relation) -> list[tuple[Relation, Relation]]:
    """The point pairs (a, b) with a∘⊤∘b ⊆ r, in row-major order.

    r is exactly the union of the pairs a∘⊤∘b over this list.
    """
    src, dst = r.src, r.dst
    n, k = src.size, dst.size
    return [(_make(src, src, 1 << i * (n + 1)), _make(dst, dst, 1 << j * (k + 1))) for i, j in r.pairs()]


def union_all(rels: Iterable[Relation], src: Carrier, dst: Carrier) -> Relation:
    """Union of a (possibly empty) family; the empty union is ⊥."""
    return reduce(lambda x, y: x | y, rels, bottom(src, dst))
