"""Independent reference implementations used to cross-check the package.

Everything here works on plain frozensets of index pairs with explicit
universe sizes, quantifier loops, and brute-force enumeration — no packed
rows, no memoization, and no reuse of the package's algorithms. Conversions
to and from the package representation live in the tests, not here. The
abstract-model axioms at the end read a model's tables one element at a time.
"""

from __future__ import annotations

from itertools import combinations, permutations

Pairs = frozenset  # of (int, int)


def ocompose(r: Pairs, s: Pairs) -> Pairs:
    return frozenset((a, c) for a, b in r for b2, c in s if b == b2)


def oconverse(r: Pairs) -> Pairs:
    return frozenset((b, a) for a, b in r)


def oid(n: int) -> Pairs:
    return frozenset((i, i) for i in range(n))


def otop(n: int, m: int) -> Pairs:
    return frozenset((i, j) for i in range(n) for j in range(m))


def oleft_residual(r: Pairs, s: Pairs, na: int, nb: int, nc: int) -> Pairs:
    """R\\S for R: A~B, S: A~C — (b,c) included when ∀a: aRb ⇒ aSc."""
    return frozenset(
        (b, c)
        for b in range(nb)
        for c in range(nc)
        if all((a, c) in s for a in range(na) if (a, b) in r)
    )


def oright_residual(r: Pairs, s: Pairs, na: int, nb: int, nc: int) -> Pairs:
    """R/S for R: A~C, S: B~C — (a,b) included when ∀c: bSc ⇒ aRc."""
    return frozenset(
        (a, b)
        for a in range(na)
        for b in range(nb)
        if all((a, c) in r for c in range(nc) if (b, c) in s)
    )


def oldom(r: Pairs) -> Pairs:
    return frozenset((a, a) for a, _ in r)


def ordom(r: Pairs) -> Pairs:
    return frozenset((b, b) for _, b in r)


def operldom(r: Pairs, na: int) -> Pairs:
    """R≺ — relate rows that are equal and non-empty."""
    def row(a: int) -> frozenset:
        return frozenset(b for a2, b in r if a2 == a)

    return frozenset(
        (a, a2)
        for a in range(na)
        for a2 in range(na)
        if row(a) and row(a) == row(a2)
    )


def operrdom(r: Pairs, nb: int) -> Pairs:
    """R≻ — relate columns that are equal and non-empty."""
    def col(b: int) -> frozenset:
        return frozenset(a for a, b2 in r if b2 == b)

    return frozenset(
        (b, b2)
        for b in range(nb)
        for b2 in range(nb)
        if col(b) and col(b) == col(b2)
    )


# -- predicates ------------------------------------------------------------------


def ois_coreflexive(r: Pairs) -> bool:
    return all(a == b for a, b in r)


def ois_functional(r: Pairs) -> bool:
    """R∘R° ⊆ 𝕀: no target claimed by two different sources."""
    return all(a == a2 for a, b in r for a2, b2 in r if b == b2)


def ois_injective(r: Pairs) -> bool:
    return all(b == b2 for a, b in r for a2, b2 in r if a == a2)


def ois_per(r: Pairs) -> bool:
    sym = oconverse(r) == r
    trans = ocompose(r, r) <= r
    return sym and trans


def ois_difunctional(r: Pairs) -> bool:
    return all(
        (a, b2) in r
        for a, b in r
        for a2, b2 in r
        if (a2, b) in r
    )


def ois_rectangle(r: Pairs, na: int, nb: int) -> bool:
    return r == ocompose(ocompose(r, otop(nb, na)), r)


def ois_square(r: Pairs, n: int) -> bool:
    """Symmetric rectangle on one carrier."""
    return oconverse(r) == r and ois_rectangle(r, n, n)


def ois_pair(r: Pairs, na: int, nb: int) -> bool:
    """Non-empty rectangle whose compositions with its converse are the domains."""
    return (
        bool(r)
        and ois_rectangle(r, na, nb)
        and ocompose(r, oconverse(r)) == oldom(r)
        and ocompose(oconverse(r), r) == ordom(r)
    )


# -- brute-force index enumeration (the certificate conditions, by quantifiers) ----


def oindexes(r: Pairs, na: int, nb: int) -> list[Pairs]:
    """All sub-relations of R satisfying the four index conditions."""
    lpd = operldom(r, na)
    rpd = operrdom(r, nb)
    out = []
    pairs = sorted(r)
    for k in range(len(pairs) + 1):
        for chosen in combinations(pairs, k):
            j = frozenset(chosen)
            jl, jr = oldom(j), ordom(j)
            if (
                ocompose(ocompose(lpd, j), rpd) == r
                and ocompose(ocompose(jl, lpd), jl) == jl
                and ocompose(ocompose(jr, rpd), jr) == jr
            ):
                out.append(j)
    return out


def oper_indexes(p: Pairs, n: int) -> list[Pairs]:
    """All coreflexives J with J ⊆ P<, J∘P∘J = J and P∘J∘P = P."""
    dom = sorted({a for a, _ in p})
    out = []
    for k in range(len(dom) + 1):
        for chosen in combinations(dom, k):
            j = frozenset((a, a) for a in chosen)
            if ocompose(ocompose(j, p), j) == j and ocompose(ocompose(p, j), p) == p:
                out.append(j)
    return out


# -- isomorphism by exhaustive bijection search ------------------------------------


def oisomorphic(r: Pairs, s: Pairs, na: int, nb: int) -> bool:
    """Is there a pair of carrier bijections mapping r onto s (same carrier sizes)?"""
    for sigma in permutations(range(na)):
        for tau in permutations(range(nb)):
            if frozenset((sigma[a], tau[b]) for a, b in r) == s:
                return True
    return False


# -- points and the all-or-nothing outcome -----------------------------------------


def opoints(n: int) -> list[Pairs]:
    return [frozenset([(i, i)]) for i in range(n)]


def oall_or_nothing(r: Pairs, a: int, b: int) -> str:
    """The sandwich a∘R∘b collapses to ⊥ or to the single pair a∘⊤∘b."""
    return "full" if (a, b) in r else "bottom"


def odecompose(r: Pairs) -> list[tuple[int, int]]:
    return sorted(r)


# -- the axioms of an abstract model, element by element ----------------------------
#
# Each function yields the refuting instances of one axiom on a model given as
# tables (any object with elements, leq, comp, conv, ident, top, bot, joins and
# meets), as element-index tuples in plain nested-loop order, tagged where an
# axiom bundles several laws. They restate the formulas one element at a time,
# with no row-at-a-time shortcuts, so the package's generators can be compared
# against them instance list for instance list.


def olattice(m):
    n = len(m.elements)
    for x in range(n):
        if not (m.leq[m.bot][x] and m.leq[x][m.top]):
            yield ("bounds", x)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if m.meets[x][m.joins[y][z]] != m.joins[m.meets[x][y]][m.meets[x][z]]:
                    yield ("meet-over-join", x, y, z)


def omonoid(m):
    n = len(m.elements)
    for x in range(n):
        if m.comp[m.ident][x] != x or m.comp[x][m.ident] != x:
            yield ("unit", x)
        if m.comp[m.bot][x] != m.bot or m.comp[x][m.bot] != m.bot:
            yield ("zero", x)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if m.comp[m.comp[x][y]][z] != m.comp[x][m.comp[y][z]]:
                    yield ("assoc", x, y, z)
                if m.comp[x][m.joins[y][z]] != m.joins[m.comp[x][y]][m.comp[x][z]]:
                    yield ("join-left", x, y, z)
                if m.comp[m.joins[y][z]][x] != m.joins[m.comp[y][x]][m.comp[z][x]]:
                    yield ("join-right", x, y, z)


def oconverse_laws(m):
    n = len(m.elements)
    if m.conv[m.ident] != m.ident:
        yield ("identity", m.ident)
    for x in range(n):
        if m.conv[m.conv[x]] != x:
            yield ("involution", x)
        for y in range(n):
            if m.leq[x][y] and not m.leq[m.conv[x]][m.conv[y]]:
                yield ("monotonic", x, y)
            if m.conv[m.comp[x][y]] != m.comp[m.conv[y]][m.conv[x]]:
                yield ("contravariance", x, y)


def odedekind(m):
    """R∘S ∩ T ⊆ R∘(S ∩ R°∘T) and R∘S ∩ T ⊆ (R ∩ T∘S°)∘S."""
    n = len(m.elements)
    for r in range(n):
        for s in range(n):
            for t in range(n):
                lhs = m.meets[m.comp[r][s]][t]
                if not (
                    m.leq[lhs][m.comp[r][m.meets[s][m.comp[m.conv[r]][t]]]]
                    and m.leq[lhs][m.comp[m.meets[r][m.comp[t][m.conv[s]]]][s]]
                ):
                    yield (r, s, t)


def ocone(m):
    for r in range(len(m.elements)):
        if r != m.bot and m.comp[m.comp[m.top][r]][m.top] != m.top:
            yield (r,)


def _ocoreflexives(m):
    return [x for x in range(len(m.elements)) if m.leq[x][m.ident]]


def _opoints(m):
    """Atoms (only ⊥ strictly below) that are coreflexive and not ⊥."""
    n = len(m.elements)
    return [
        x for x in range(n)
        if x != m.bot and m.leq[x][m.ident]
        and all(not m.leq[q][x] or q == x or q == m.bot for q in range(n))
    ]


def _ordom(m, x):
    return m.meets[m.ident][m.comp[m.conv[x]][x]]


def ochoice(m):
    """Every per P has a coreflexive J ⊆ P< with J∘P∘J = J and P∘J∘P = P."""
    for p in range(len(m.elements)):
        if m.conv[p] != p or not m.leq[m.comp[p][p]][p]:
            continue
        pdom = m.meets[m.ident][m.comp[p][m.conv[p]]]
        if not any(
            m.leq[j][pdom] and m.comp[m.comp[j][p]][j] == j and m.comp[m.comp[p][j]][p] == p
            for j in _ocoreflexives(m)
        ):
            yield (p,)


def oall_or_nothing_model(m):
    pts = _opoints(m)
    for a in pts:
        for b in pts:
            full = m.comp[m.comp[a][m.top]][b]
            for r in range(len(m.elements)):
                squeezed = m.comp[m.comp[a][r]][b]
                if squeezed != m.bot and squeezed != full:
                    yield (a, b, r)


def oextensional(m):
    """Every coreflexive is the join of the points below it."""
    pts = _opoints(m)
    for p in _ocoreflexives(m):
        join = m.bot
        for q in pts:
            if m.leq[q][p]:
                join = m.joins[join][q]
        if join != p:
            yield (p,)


def ouniversal_choice(m):
    """Every R has a univalent F ⊆ R with the same right domain."""
    n = len(m.elements)
    for r in range(n):
        if not any(
            m.leq[f][r] and m.leq[m.comp[f][m.conv[f]]][m.ident] and _ordom(m, f) == _ordom(m, r)
            for f in range(n)
        ):
            yield (r,)


OAXIOMS = {
    "lattice": olattice,
    "monoid": omonoid,
    "converse": oconverse_laws,
    "dedekind": odedekind,
    "cone": ocone,
    "choice": ochoice,
    "all_or_nothing": oall_or_nothing_model,
    "extensional": oextensional,
    "universal_choice": ouniversal_choice,
}
