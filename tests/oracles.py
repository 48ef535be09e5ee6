"""Independent reference implementations used to cross-check the package.

Everything here works on plain frozensets of index pairs with explicit
universe sizes, quantifier loops, and brute-force enumeration — no packed
rows, no memoization, and no reuse of the package's algorithms. Conversions
to and from the package representation live in the tests, not here. The
abstract-model axioms at the end read a model's tables one element at a time.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

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
    rows = [frozenset(b for a2, b in r if a2 == a) for a in range(na)]
    return frozenset(
        (a, a2)
        for a in range(na)
        for a2 in range(na)
        if rows[a] and rows[a] == rows[a2]
    )


def operrdom(r: Pairs, nb: int) -> Pairs:
    """R≻ — relate columns that are equal and non-empty."""
    cols = [frozenset(a for a, b2 in r if b2 == b) for b in range(nb)]
    return frozenset(
        (b, b2)
        for b in range(nb)
        for b2 in range(nb)
        if cols[b] and cols[b] == cols[b2]
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


def ocanonical(r: Pairs) -> tuple:
    """The least relabelling of r's domains onto 0, 1, ...: two relations, on
    carriers of any sizes, are isomorphic exactly when these are equal."""
    da, db = sorted({a for a, _ in r}), sorted({b for _, b in r})
    return min(
        tuple(sorted((sigma[da.index(a)], tau[db.index(b)]) for a, b in r))
        for sigma in permutations(range(len(da)))
        for tau in permutations(range(len(db)))
    )


# -- points and the all-or-nothing outcome -----------------------------------------


def opoints(n: int) -> list[Pairs]:
    return [frozenset([(i, i)]) for i in range(n)]


def oall_or_nothing(r: Pairs, a: int, b: int) -> str:
    """The sandwich a∘R∘b collapses to ⊥ or to the single pair a∘⊤∘b."""
    return "full" if (a, b) in r else "bottom"


def odecompose(r: Pairs) -> list[tuple[int, int]]:
    return sorted(r)


# -- the laws about points, pairs and particles, one matrix cell at a time ----------
#
# The pair a∘⊤∘b of the points (a, a) and (b, b) is the single cell (a, b); a
# pair is a relation of one cell, a particle one of one diagonal cell, and so
# is a point. Each function is the truth of one law on one instance.


def _oindex_conditions(r: Pairs, j: Pairs, na: int, nb: int) -> bool:
    """J ⊆ R, R≺∘J∘R≻ = R, J<∘R≺∘J< = J< and J>∘R≻∘J> = J>."""
    lpd, rpd, jl, jr = operldom(r, na), operrdom(r, nb), oldom(j), ordom(j)
    return (
        j <= r
        and ocompose(ocompose(lpd, j), rpd) == r
        and ocompose(ocompose(jl, lpd), jl) == jl
        and ocompose(ocompose(jr, rpd), jr) == jr
    )


def ois_one_cell(r: Pairs) -> bool:
    return len(r) == 1


def ois_particle(r: Pairs) -> bool:
    return len(r) == 1 and ois_coreflexive(r)


def osaturation(r: Pairs, na: int, nb: int) -> bool:
    """R is the union of the pairs below it."""
    return frozenset(cell for cell in product(range(na), range(nb)) if cell in r) == r


def odecompose_converse(r: Pairs, na: int, nb: int) -> bool:
    """R° is the union of the flipped pairs below R."""
    return frozenset((b, a) for a, b in product(range(na), range(nb)) if (a, b) in r) == oconverse(r)


def opair(a: int, b: int, na: int, nb: int) -> Pairs:
    """a∘⊤∘b for the points (a, a) of A and (b, b) of B, composed."""
    return ocompose(ocompose(frozenset({(a, a)}), otop(na, nb)), frozenset({(b, b)}))


def odecompose_compose(r: Pairs, s: Pairs, na: int, nb: int, nc: int) -> bool:
    """R∘S is the union of the pieces (a∘⊤∘b)∘(b'∘⊤∘c) over the pairs below
    R and S, each composed; a piece is a∘⊤∘c where b = b', and empty elsewhere."""
    union: set = set()
    for a, b in r:
        for b2, c in s:
            piece = ocompose(opair(a, b, na, nb), opair(b2, c, nb, nc))
            if piece != (opair(a, c, na, nc) if b == b2 else frozenset()):
                return False
            union |= piece
    return union == ocompose(r, s)


def opoint_saturation(p: Pairs, n: int) -> bool:
    """A coreflexive is the union of the points below it."""
    return frozenset(point for i in range(n) for point in [(i, i)] if point in p) == p


def opair_domains(r: Pairs) -> bool:
    """A pair's domains are particles."""
    return not ois_one_cell(r) or (ois_particle(oldom(r)) and ois_particle(ordom(r)))


def opair_point_sandwich(a: Pairs, b: Pairs, na: int, nb: int) -> bool:
    """a∘⊤∘b is a pair with domains a and b."""
    z = ocompose(ocompose(a, otop(na, nb)), b)
    return ois_one_cell(z) and oldom(z) == a and ordom(z) == b


def oparticle_point(z: Pairs) -> bool:
    """A particle, a symmetric pair, is a point, a coreflexive atom, and back."""
    return (oconverse(z) == z and ois_one_cell(z)) == (ois_coreflexive(z) and len(z) == 1)


def oper_index_equiv(p: Pairs, j: Pairs, n: int) -> bool:
    """For a per P and a coreflexive J: J ⊆ P<, J∘P∘J = J and P∘J∘P = P
    exactly when J meets the four index conditions for P."""
    simple = j <= oldom(p) and ocompose(ocompose(j, p), j) == j and ocompose(ocompose(p, j), p) == p
    return simple == _oindex_conditions(p, j, n, n)


def ocore_relation_own_index(r: Pairs, na: int, nb: int) -> bool:
    """R< = R≺ and R> = R≻ exactly when R indexes itself."""
    core = oldom(r) == operldom(r, na) and ordom(r) == operrdom(r, nb)
    return core == _oindex_conditions(r, r, na, nb)


def osym_division_columns(r: Pairs, na: int, nb: int) -> bool:
    """(b, d) is in R\\\\R = R\\R ∩ (R\\R)° exactly when columns b and d of R are equal."""
    res = oleft_residual(r, r, na, nb, nb)
    div = res & oconverse(res)
    cols = [frozenset(a for a in range(na) if (a, b) in r) for b in range(nb)]
    return all(((b, d) in div) == (cols[b] == cols[d]) for b in range(nb) for d in range(nb))


def ois_atom(r: Pairs) -> bool:
    """Non-empty, with no relation strictly between ⊥ and R: every non-empty
    subset of R is R."""
    cells = sorted(r)
    return bool(r) and all(len(chosen) == len(r) for k in range(1, len(r) + 1) for chosen in combinations(cells, k))


def opair_characterization(r: Pairs, na: int, nb: int) -> bool:
    """A single cell, an algebraic pair and a proper atom are the same."""
    return ois_one_cell(r) == ois_pair(r, na, nb) == ois_atom(r)


def owitness(r: Pairs, s: Pairs, phi: Pairs, psi: Pairs) -> bool:
    """The six witness equations of R ≅ S via (φ, ψ): φ∘φ° = R<, φ°∘φ = S<,
    ψ∘ψ° = R>, ψ°∘ψ = S>, R = φ∘S∘ψ° and φ°∘R∘ψ = S."""
    return (
        ocompose(phi, oconverse(phi)) == oldom(r)
        and ocompose(oconverse(phi), phi) == oldom(s)
        and ocompose(psi, oconverse(psi)) == ordom(r)
        and ocompose(oconverse(psi), psi) == ordom(s)
        and r == ocompose(ocompose(phi, s), oconverse(psi))
        and ocompose(ocompose(oconverse(phi), r), psi) == s
    )


def oiso_self_witness(r: Pairs) -> bool:
    """(R<, R>) witnesses R ≅ R."""
    return owitness(r, r, oldom(r), ordom(r))


def obijection_iso_coreflexive(r: Pairs) -> bool:
    """A bijection is isomorphic to its left domain via (R<, R°)."""
    return not (ois_functional(r) and ois_injective(r)) or owitness(r, oldom(r), oldom(r), oconverse(r))


def oper_min_index(p: Pairs) -> Pairs:
    """The coreflexive on the least member of each class of the per P."""
    return frozenset((a, a) for a, b in p if a == b and not any((h, a) in p for h in range(a)))


def oper_splits(p: Pairs) -> bool:
    """f = J∘P, J the min transversal, is functional with f°∘f = P and f∘f° = J."""
    j = oper_min_index(p)
    f = ocompose(j, p)
    return ocompose(oconverse(f), f) == p and ocompose(f, oconverse(f)) == j and ois_functional(f)


def oper_index_coreflexive(p: Pairs, n: int) -> bool:
    """The min transversal of P is a coreflexive index of P in both senses:
    one of oper_indexes, and one that meets the four index conditions."""
    j = oper_min_index(p)
    return j in oper_indexes(p, n) and _oindex_conditions(p, j, n, n)



def oindex_determined_by_domains(r: Pairs, j: Pairs, na: int, nb: int) -> bool:
    """An index J of R (one of oindexes) is J<∘R∘J>."""
    return not _oindex_conditions(r, j, na, nb) or j == ocompose(ocompose(oldom(j), r), ordom(j))


def oper_to_relation_index(r: Pairs, j: Pairs, k: Pairs, na: int, nb: int) -> bool:
    """Coreflexive indexes J of R≺ and K of R≻ (oper_indexes) sandwich an
    index J∘R∘K of R."""
    if j not in oper_indexes(operldom(r, na), na) or k not in oper_indexes(operrdom(r, nb), nb):
        return True
    return _oindex_conditions(r, ocompose(ocompose(j, r), k), na, nb)


def _ocore(r: Pairs, na: int, nb: int) -> tuple[Pairs, Pairs, Pairs, Pairs]:
    """The min-policy index J of R, the legs λ = J<∘R≺ and ρ = J>∘R≻, and the
    core C = λ∘R∘ρ°."""
    j = ocompose(ocompose(oper_min_index(operldom(r, na)), r), oper_min_index(operrdom(r, nb)))
    lam = ocompose(oldom(j), operldom(r, na))
    rho = ocompose(ordom(j), operrdom(r, nb))
    return j, lam, rho, ocompose(ocompose(lam, r), oconverse(rho))


def ocore_domains(r: Pairs, na: int, nb: int) -> bool:
    """For the core of _ocore: R< = λ>, C< = λ<, R> = ρ> and C> = ρ<."""
    _, lam, rho, c = _ocore(r, na, nb)
    return oldom(r) == ordom(lam) and oldom(c) == oldom(lam) and ordom(r) == ordom(rho) and ordom(c) == oldom(rho)


def ocore_decomposition(r: Pairs, na: int, nb: int) -> bool:
    """For the core of _ocore: λ°∘λ = R≺, λ∘λ° = λ<, ρ°∘ρ = R≻, ρ∘ρ° = ρ<,
    C< = C≺ and C> = C≻ (a core relation), λ> = R<, C< = λ<, ρ> = R>,
    C> = ρ<, and C = J, which meets the four index conditions."""
    j, lam, rho, c = _ocore(r, na, nb)
    return (
        ocompose(oconverse(lam), lam) == operldom(r, na) and ocompose(lam, oconverse(lam)) == oldom(lam)
        and ocompose(oconverse(rho), rho) == operrdom(r, nb) and ocompose(rho, oconverse(rho)) == oldom(rho)
        and oldom(c) == operldom(c, na) and ordom(c) == operrdom(c, nb)
        and ordom(lam) == oldom(r) and oldom(c) == oldom(lam) and ordom(rho) == ordom(r) and ordom(c) == oldom(rho)
        and c == j and _oindex_conditions(r, c, na, nb)
    )

# -- a compiled statement, read as plain data ----------------------------------------
#
# A statement compiles to a list of instructions (op, inputs, dims), each input
# the index of an earlier instruction and dims the type variables of the
# carriers the op needs; the last instruction is the statement's truth. A
# variable is ("var", (k,), ()), and a bound letter ("point", (slot,), (A,)).
# A binder's inputs are its term and guard (⋃) or its formula (∀, ∃), then its
# letters. oevaluate reads these one instance at a time with the functions
# above, and so shares nothing with the package's evaluator.


def _omin_index(r: Pairs, na: int, nb: int) -> Pairs:
    """The cells (i, j) of R where i is the least of its R≺-class and j of its R≻-class."""
    return ocompose(ocompose(oper_min_index(operldom(r, na)), r), oper_min_index(operrdom(r, nb)))


_OTERMS = {
    "⊥": lambda n: frozenset(),
    "⊤": lambda n: otop(*n),
    "𝕀": lambda n: oid(*n),
    "∘": lambda n, r, s: ocompose(r, s),
    "°": lambda n, r: oconverse(r),
    "¬": lambda n, r: otop(*n) - r,
    "∩": lambda n, r, s: r & s,
    "∪": lambda n, r, s: r | s,
    "<": lambda n, r: oldom(r),
    ">": lambda n, r: ordom(r),
    "≺": lambda n, r: operldom(r, n[0]),
    "≻": lambda n, r: operrdom(r, n[1]),
    "\\": lambda n, r, s: oleft_residual(r, s, *n),
    "/": lambda n, r, s: oright_residual(r, s, *n),
    # R\\S = R\S ∩ (S\R)° and R//S = R/S ∩ (S/R)°
    "\\\\": lambda n, r, s: oleft_residual(r, s, *n) & oconverse(oleft_residual(s, r, n[0], n[2], n[1])),
    "//": lambda n, r, s: oright_residual(r, s, *n) & oconverse(oright_residual(s, r, n[1], n[0], n[2])),
    "index": lambda n, r: _omin_index(r, *n),
    "⊆": lambda n, r, s: r <= s,
    "=": lambda n, r, s: r == s,
    "≠": lambda n, r, s: r != s,
    "≡": lambda n, a, b: a == b,
    "⇒": lambda n, a, b: not a or b,
    "and": lambda n, a, b: a and b,
    "or": lambda n, a, b: a or b,
}

# the binders, with the number of their inputs before their letters
_OBINDERS = {"⋃": 2, "∀": 1, "∃": 1}


def oevaluate(code, args, sizes) -> bool:
    """The truth of a compiled statement on one instance: args are its
    arguments as sets of cells, in variable order, and sizes maps each type
    variable to its carrier's size. A binder runs over the points of its
    letters' carriers (opoints), one combination at a time."""
    values: dict = {}  # (instruction, the members of the letters in scope) -> value

    def value(i: int, env: tuple):
        op, ins, dims = code[i]
        if op == "var":
            return args[ins[0]]
        if op == "point":
            return dict(env)[i]
        key = (i, env)
        if key not in values:
            n = [sizes[tv] for tv in dims]
            if op in _OBINDERS:
                kids, letters = ins[:_OBINDERS[op]], ins[_OBINDERS[op]:]
                combos = [env + tuple(zip(letters, members))
                          for members in product(*(opoints(sizes[code[k][2][0]]) for k in letters))]
                if op == "⋃":
                    body, guard = kids
                    out = frozenset().union(*(value(body, e) for e in combos if value(guard, e)))
                else:
                    out = (all if op == "∀" else any)(value(kids[0], e) for e in combos)
            else:
                out = _OTERMS[op](n, *(value(k, env) for k in ins))
            values[key] = out
        return values[key]

    return value(len(code) - 1, ())


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
