"""Isomorphism of relations, witnessed by a pair of domain bijections.

R : A~B and S : C~D are isomorphic when there are φ : A~C and ψ : B~D with

    φ∘φ° = R<    φ°∘φ = S<    ψ∘ψ° = R>    ψ°∘ψ = S>    R = φ∘S∘ψ°

(from which φ°∘R∘ψ = S follows, and conversely). Such φ, ψ are exactly the
bijections between the left domains and between the right domains along which
the two matrices agree, so the search below is a small backtracking matcher
over domain elements with degree pruning.

Before any search, find_isomorphism compares invariants that isomorphic
relations share, cheapest first: the number of pairs; the sizes of the two
domains and the sorted row degrees, read from the rows alone; then the sorted
column degrees. A pair that differs in one of them is not isomorphic, whatever
the size of its domains, so the MAX_POINTS refusal applies only to a pair that
agrees in all of them and leaves a search to run. The rows are not memoized,
and only the columns go through the converse memo, so a pair settled on its
pair count or its rows leaves no entry in any kernel memo.

Rows, columns and the six equations are computed on int codes with the
kernel's code memos (see rel); the only Relations built are φ and ψ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import or_

from .domains import _ldom_code, _rdom_code, ldom, rdom
from .rel import CarrierMismatch, Relation, _compose_memo, _converse_memo, _make, _rows


#: find_isomorphism refuses relations with a left or right domain of more
#: than this many points: the search walks up to MAX_POINTS! bijections.
MAX_POINTS = 8


class SearchSpaceExceeded(ValueError):
    """An isomorphism search was refused because a domain is too large."""


@dataclass(frozen=True)
class IsoWitness:
    phi: Relation
    psi: Relation


def verify_witness(r: Relation, s: Relation, w: IsoWitness) -> bool:
    """Check all five defining equations plus the flipped one.

    Under the four domain conditions the two transport equations are
    equivalent; we assert that rather than trusting it.
    """
    phi, psi = w.phi, w.psi
    if phi.src != r.src or phi.dst != s.src or psi.src != r.dst or psi.dst != s.dst:
        raise CarrierMismatch(
            f"witness types {phi.src.name}~{phi.dst.name} / {psi.src.name}~{psi.dst.name} "
            f"do not bridge {r.src.name}~{r.dst.name} and {s.src.name}~{s.dst.name}"
        )
    # past the type check every side of every equation has the same carriers,
    # so the equations compare codes: R is a×b, S is c×d, φ a×c and ψ b×d
    a, b, c, d = r.src.size, r.dst.size, s.src.size, s.dst.size
    phi_conv, psi_conv = _converse_memo(phi.code, a, c), _converse_memo(psi.code, b, d)
    domains_ok = (
        _compose_memo(phi.code, phi_conv, a, c, a) == _ldom_code(r.code, a, b)
        and _compose_memo(phi_conv, phi.code, c, a, c) == _ldom_code(s.code, c, d)
        and _compose_memo(psi.code, psi_conv, b, d, b) == _rdom_code(r.code, b)
        and _compose_memo(psi_conv, psi.code, d, b, d) == _rdom_code(s.code, d)
    )
    fwd = r.code == _compose_memo(_compose_memo(phi.code, s.code, a, c, d), psi_conv, a, d, b)
    bwd = _compose_memo(_compose_memo(phi_conv, r.code, c, a, b), psi.code, c, b, d) == s.code
    if domains_ok:
        assert fwd == bwd, "transport equations must co-vary once the domain conditions hold"
    return domains_ok and fwd and bwd


def find_isomorphism(r: Relation, s: Relation) -> IsoWitness | None:
    """Search for a witness; None means the relations are not isomorphic.

    The invariants come first, in order of cost (see the module docstring):
    a pair that differs in its number of pairs, in a domain size or in its
    sorted row or column degrees gets None without a search. Otherwise the
    search is exhaustive over bijections of the left domains (with degree
    pruning), so the answer is definitive. It is refused, with
    SearchSpaceExceeded, when the left or right domain exceeds MAX_POINTS
    elements.
    """
    if r == s:
        # a relation is isomorphic to itself via its own domains
        return IsoWitness(ldom(r), rdom(r))
    if r.code.bit_count() != s.code.bit_count():
        return None

    # rows as target masks, columns as source masks; the domains are the
    # nonempty ones, and degrees are bit counts
    na, nb, nc, nd = r.src.size, r.dst.size, s.src.size, s.dst.size
    rows_r, rows_s = _rows(r.code, na, nb), _rows(s.code, nc, nd)
    da, db = [a for a, m in enumerate(rows_r) if m], [x for x, m in enumerate(rows_s) if m]
    # the right domain is the union of the rows
    if len(da) != len(db) or reduce(or_, rows_r, 0).bit_count() != reduce(or_, rows_s, 0).bit_count():
        return None
    if sorted(rows_r[a].bit_count() for a in da) != sorted(rows_s[x].bit_count() for x in db):
        return None
    cols_r, cols_s = _rows(_converse_memo(r.code, na, nb), nb, na), _rows(_converse_memo(s.code, nc, nd), nd, nc)
    ea, eb = [b for b, m in enumerate(cols_r) if m], [c for c, m in enumerate(cols_s) if m]
    if sorted(cols_r[b].bit_count() for b in ea) != sorted(cols_s[c].bit_count() for c in eb):
        return None
    if max(len(da), len(ea)) > MAX_POINTS:
        raise SearchSpaceExceeded(
            f"domains have {len(da)} and {len(ea)} points (limit {MAX_POINTS})"
        )

    f: dict[int, int] = {}
    g = _backtrack(0, f, set(), da, db, rows_r, rows_s, partial(_match_columns, da, ea, eb, cols_r, cols_s))
    if g is None:
        return None
    phi = sum(1 << (a * nc + x) for a, x in f.items())
    psi = sum(1 << (b * nd + c) for b, c in g.items())
    w = IsoWitness(_make(r.src, s.src, phi), _make(r.dst, s.dst, psi))
    if not verify_witness(r, s, w):
        raise RuntimeError("search produced a witness that does not verify")
    return w


# The matcher is two module-level functions, not closures in
# find_isomorphism: a closure that calls itself is a reference cycle, and
# every search would leave one to the cyclic collector.


def _match_columns(da, ea, eb, cols_r, cols_s, f: dict[int, int]) -> dict[int, int] | None:
    # once rows are paired, columns must match by translated source mask
    buckets: dict[int, list[int]] = {}
    for c in eb:
        buckets.setdefault(cols_s[c], []).append(c)
    g: dict[int, int] = {}
    for b in ea:
        want = sum(1 << f[a] for a in da if cols_r[b] >> a & 1)
        avail = buckets.get(want)
        if not avail:
            return None
        g[b] = avail.pop()
    return g


def _backtrack(i: int, f: dict[int, int], used: set[int], da, db, rows_r, rows_s,
               match_columns) -> dict[int, int] | None:
    """Pair the left-domain rows da[i:] with unused rows of db of equal
    degree, extending f; at a full pairing, the column map match_columns
    finds for it, or None when no pairing has one."""
    if i == len(da):
        return match_columns(f)
    a = da[i]
    for x in db:
        if x in used or rows_s[x].bit_count() != rows_r[a].bit_count():
            continue
        f[a] = x
        used.add(x)
        g = _backtrack(i + 1, f, used, da, db, rows_r, rows_s, match_columns)
        if g is not None:
            return g
        del f[a]
        used.discard(x)
    return None
