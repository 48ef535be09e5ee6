"""Residuals (factors) and symmetric division.

left_residual(R, S)  is the largest T with R∘T ⊆ S   (written R\\S),
right_residual(R, S) is the largest T with T∘S ⊆ R   (written R/S).

Pointwise: (b,c) ∈ R\\S iff every a related by R to b is related by S to c,
and (a,c) ∈ R/S iff every b that S relates to c is related by R to a.
Symmetric division R\\\\S relates b to c exactly when b's R-column equals
c's S-column; R//S dually compares rows.

Each operation is memoized on codes and sizes, as the kernel's are (see rel).
"""

from __future__ import annotations

from functools import lru_cache

from .rel import CarrierMismatch, Relation
from .rel import _compose_code, _converse_code, _converse_memo, _full, _make, _served_by


def _require_sources(op: str, r: Relation, s: Relation) -> None:
    if r.src is not s.src and r.src != s.src:
        raise CarrierMismatch(f"{op}: source carriers disagree ({r.src.name} vs {s.src.name})")


def _require_targets(op: str, r: Relation, s: Relation) -> None:
    if r.dst is not s.dst and r.dst != s.dst:
        raise CarrierMismatch(f"{op}: target carriers disagree ({r.dst.name} vs {s.dst.name})")


# After a laws-size3 or laws-size4 pass it holds 4 codes, all from shrinking
# the planted zz-planted-residual-cancel, and after criterion 2 none.
@lru_cache(maxsize=1 << 12)
def _left_residual_code(rc: int, sc: int, na: int, nb: int, nc: int) -> int:
    """R\\S (nb×nc) of R (na×nb) and S (na×nc)."""
    bad = _compose_code(_converse_code(rc, na, nb), sc ^ _full(na, nc), nb, na, nc)
    return bad ^ _full(nb, nc)


# No laws run or sweep calls it; the public right_residual and sym_left_div do.
@lru_cache(maxsize=1 << 12)
def _right_residual_code(rc: int, sc: int, na: int, nb: int, nc: int) -> int:
    """R/S (na×nb) of R (na×nc) and S (nb×nc)."""
    bad = _compose_code(rc ^ _full(na, nc), _converse_code(sc, nb, nc), na, nc, nb)
    return bad ^ _full(na, nb)


# A laws-size3, laws-size4 or criterion-2 pass leaves no codes in it.
@lru_cache(maxsize=1 << 12)
def _sym_right_div_code(rc: int, sc: int, na: int, nb: int, nc: int) -> int:
    """R\\\\S (nb×nc) of R (na×nb) and S (na×nc)."""
    return _left_residual_code(rc, sc, na, nb, nc) & _converse_memo(
        _left_residual_code(sc, rc, na, nc, nb), nc, nb
    )


# No laws run or sweep calls it; only the public sym_left_div does.
@lru_cache(maxsize=1 << 12)
def _sym_left_div_code(rc: int, sc: int, na: int, nb: int, nc: int) -> int:
    """R//S (na×nb) of R (na×nc) and S (nb×nc)."""
    return _right_residual_code(rc, sc, na, nb, nc) & _converse_memo(
        _right_residual_code(sc, rc, nb, na, nc), nb, na
    )


@_served_by(_left_residual_code)
def left_residual(r: Relation, s: Relation) -> Relation:
    """R\\S = ¬(R°∘¬S) : (b,c) present iff no a has a R b without a S c."""
    _require_sources("left_residual", r, s)
    return _make(r.dst, s.dst, _left_residual_code(r.code, s.code, r.src.size, r.dst.size, s.dst.size))


@_served_by(_right_residual_code)
def right_residual(r: Relation, s: Relation) -> Relation:
    """R/S = ¬(¬R∘S°) : (a,b) present iff no c has b S c without a R c."""
    _require_targets("right_residual", r, s)
    return _make(r.src, s.src, _right_residual_code(r.code, s.code, r.src.size, s.src.size, r.dst.size))


@_served_by(_sym_right_div_code)
def sym_right_div(r: Relation, s: Relation) -> Relation:
    """R\\\\S = R\\S ∩ (S\\R)° : relate b to c when column_R(b) = column_S(c)."""
    _require_sources("sym_right_div", r, s)
    return _make(r.dst, s.dst, _sym_right_div_code(r.code, s.code, r.src.size, r.dst.size, s.dst.size))


@_served_by(_sym_left_div_code)
def sym_left_div(r: Relation, s: Relation) -> Relation:
    """R//S = R/S ∩ (S/R)° : relate a to c when row_R(a) = row_S(c)."""
    _require_targets("sym_left_div", r, s)
    return _make(r.src, s.src, _sym_left_div_code(r.code, s.code, r.src.size, s.src.size, r.dst.size))
