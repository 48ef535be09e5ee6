"""Residuals (factors) and symmetric division.

left_residual(R, S)  is the largest T with R∘T ⊆ S   (written R\\S),
right_residual(R, S) is the largest T with T∘S ⊆ R   (written R/S).

Pointwise: (b,c) ∈ R\\S iff every a related by R to b is related by S to c,
and (a,c) ∈ R/S iff every b that S relates to c is related by R to a.
Symmetric division R\\\\S relates b to c exactly when b's R-column equals
c's S-column; R//S dually compares rows.
"""

from __future__ import annotations

from functools import lru_cache

from .rel import CarrierMismatch, Relation, converse, intersect
from .rel import _compose_code, _converse_code, _full, _make


@lru_cache(maxsize=1 << 16)
def left_residual(r: Relation, s: Relation) -> Relation:
    """R\\S = ¬(R°∘¬S) : (b,c) present iff no a has a R b without a S c."""
    if r.src is not s.src and r.src != s.src:
        raise CarrierMismatch(
            f"left_residual: source carriers disagree ({r.src.name} vs {s.src.name})"
        )
    na, nb, nc = r.src.size, r.dst.size, s.dst.size
    bad = _compose_code(_converse_code(r.code, na, nb), s.code ^ _full(na, nc), nb, na, nc)
    return _make(r.dst, s.dst, bad ^ _full(nb, nc))


@lru_cache(maxsize=1 << 16)
def right_residual(r: Relation, s: Relation) -> Relation:
    """R/S = ¬(¬R∘S°) : (a,b) present iff no c has b S c without a R c."""
    if r.dst is not s.dst and r.dst != s.dst:
        raise CarrierMismatch(
            f"right_residual: target carriers disagree ({r.dst.name} vs {s.dst.name})"
        )
    na, nb, nc = r.src.size, s.src.size, r.dst.size
    bad = _compose_code(r.code ^ _full(na, nc), _converse_code(s.code, nb, nc), na, nc, nb)
    return _make(r.src, s.src, bad ^ _full(na, nb))


@lru_cache(maxsize=1 << 15)
def sym_right_div(r: Relation, s: Relation) -> Relation:
    """R\\\\S = R\\S ∩ (S\\R)° : relate b to c when column_R(b) = column_S(c)."""
    return intersect(left_residual(r, s), converse(left_residual(s, r)))


@lru_cache(maxsize=1 << 15)
def sym_left_div(r: Relation, s: Relation) -> Relation:
    """R//S = R/S ∩ (S/R)° : relate a to c when row_R(a) = row_S(c)."""
    return intersect(right_residual(r, s), converse(right_residual(s, r)))
