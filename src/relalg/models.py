"""Abstract (non-concrete) homogeneous relation-algebra models.

A model is a finite lattice-ordered monoid with converse, given entirely as
data: element names, the order, a composition table, a converse table, and
the three constants. Nothing here assumes the elements are relations between
sets — the point of these models is exactly that some of them cannot be.

Constructing an AbstractModel refuses, with ModelFormatError, data that is
no model: elements that are not a nonempty list of at most 256 distinct
strings, a table that is not n×n (conv n long), and a table entry, ident,
top or bot that is not an element index. load_model validates on top what
the type itself promises: name resolution, the order being a partial order
with all binary meets and joins, composition a monoid with 𝕀 unit and ⊥ zero
that distributes over joins, and converse an involutive order-isomorphism
reversing composition — each failure a distinct diagnostic naming the first
offending elements. That ⊥ and ⊤ bound the order and that meets distribute
over joins is left to check_axioms' lattice flag. The axioms under
investigation — the modular (Dedekind) law, the cone rule, existence of
indexes for pers, all-or-nothing, extensionality (saturation by points), and
the universal-choice variant — are *evaluated*, never assumed, by
check_axioms, which reports per-axiom verdicts plus a first counterexample
for each failure (it re-verifies the structural laws too, for models built
directly rather than loaded). recheck answers whether a stored
counterexample is one of the axiom's violations on a model, so reports stay
honest. The checks compare whole table rows (bytes.translate, order
bitmasks) and look at single elements only where rows differ, in search
order. product_model builds products from the factors' index tables, without
names or load_model: a product of valid models is valid by construction, and
check_axioms is what re-verifies one.

The tables are rows of element indexes, and n ≤ 256 lets one byte hold an
index. So every table is a tuple of bytes rows: comp, joins and meets hold
indexes, leq holds 0 and 1, and conv is one bytes object; indexing a row
still yields an int. Construction copies other rows into that form once (a
leq row by truth value), so a copy with tuple rows equals its original.
load_model and product_model build bytes rows and skip that step (_model).
product_model makes each row by joining blocks of the second factor's rows,
each shifted by a·n2 for the first factor's entry a.

The lattice, monoid and Dedekind laws are decided on join-irreducibles
first, in at most n²·|J| row comparisons instead of n³. In a finite lattice
every element is the join of the join-irreducibles J below it (⊥ of none),
so a law that is a join of its instances holds when it holds for arguments
in J. The preconditions are those AbstractModel._irreducibles vouches for:
leq a partial order, joins and meets its lubs and glbs, and bot the least
element. If they fail, or the reduced check finds a fault, the full ordered
search runs; it is the only thing that yields, so verdicts, first
counterexamples and diagnostics do not depend on the reduction.
- lattice (_lattice_holds): the bounds as one mask, ⊤ above every element
  (⊥ is least by the preconditions), and meet-over-join by join-primality:
  each y ∈ J is join-prime, y ≤ a∨b only if y ≤ a or y ≤ b (Birkhoff; Davey
  and Priestley, Introduction to Lattices and Order, ch. 5). The elements
  not above y form a down-set, and it is nonempty (it holds ⊥, as y ≠ ⊥)
  and closed under joins exactly when y is join-prime; in a finite lattice
  such a down-set is the down-set of its join. So y is join-prime iff the
  complement of its up-set is the down-set of some element: one set lookup
  per y. If the lattice is distributive, y ∈ J and y ≤ a∨b, then y =
  y∧(a∨b) = (y∧a)∨(y∧b), so y = y∧a or y = y∧b. Conversely, let every
  y ∈ J be join-prime. x∧(y∨z) ≥ (x∧y)∨(x∧z) in any lattice. Each j ∈ J
  below x∧(y∨z) is below x and below y or z, so below x∧y or x∧z, and
  x∧(y∨z), the join of those j, is below (x∧y)∨(x∧z).
- monoid (_monoid_holds): unit and zero as four whole rows, comp[𝕀] and
  column 𝕀 against 0, 1, …, n-1 and comp[⊥] and column ⊥ against ⊥ repeated;
  join-right (y∨z)∘x = y∘x ∨ z∘x for every x with y ∈ J (n·|J| rows); and
  join-left and associativity for x, y ∈ J only (|J|² rows). Join-right
  extends over y's decomposition by induction, with ⊥ a zero for y = ⊥, so ∘
  preserves joins in its left argument. Join-left extends over y the same way
  while x ∈ J. Then write x = ⋁xᵢ with xᵢ ∈ J (x = ⊥ is covered by the zero
  law): x∘w = ⋁xᵢ∘w for every w, so x∘(y∨z) = ⋁(xᵢ∘y ∨ xᵢ∘z) = x∘y ∨ x∘z.
  Associativity extends over y for x ∈ J, both sides now preserving joins in
  y, and then over x by the same decomposition: (x∘y)∘z = ⋁(xᵢ∘y)∘z =
  ⋁xᵢ∘(y∘z) = x∘(y∘z).
- Dedekind, r, s ∈ J, t any, once the reduced lattice and monoid checks hold
  and the converse law has no violation: R∘S ∩ T = ⋁(Rᵢ∘Sⱼ ∩ T) by
  distributivity, and each term is below R∘(S ∩ R°∘T) (and (R ∩ T∘S°)∘S)
  because ∘, ∩ and ° are monotone.
The converse law is not reduced: its search compares each x's rows over y
first, involution, contravariance as one bytes.translate comparison and
monotonicity as one mask inclusion, and looks at single y only where they
differ.

Each model keeps what the checks derive from its tables, as cached_propertys
on the instance: the rows of comp, its columns, joins, meets and leq, each
padded to a translate table, the order's up- and down-set masks (which
load_model presets with its own), the join-irreducibles, the points, the
reduced lattice and monoid verdicts and the converse verdict. So the loader,
check_axioms (whose Dedekind precondition reuses the three verdicts) and
recheck decide each once per model. That is safe because AbstractModel is
frozen and its tables are bytes, so no table changes under a cache, and
dataclasses.replace builds a new instance that recomputes everything.

load_bundled reads and validates each bundled model once per process and
returns that same AbstractModel to every later call (relalg.cache_clear
empties its memo). Sharing one instance is safe for the same reasons: its
fields cannot be rebound, its cached facts derive only from those fields,
and a changed copy made with dataclasses.replace is a new instance that
shares none of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from itertools import chain, compress, repeat
from operator import and_, eq, getitem, itemgetter, xor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Sized

from .rel import MAX_INPUT_SIZE, read_json


class ModelFormatError(ValueError):
    """Malformed model data. .category says which validation failed."""

    def __init__(self, category: str, message: str):
        super().__init__(f"{category}: {message}")
        self.category = category
        self.message = message


@dataclass(frozen=True)
class AbstractModel:
    name: str
    elements: tuple[str, ...]
    leq: tuple[bytes, ...]             # leq[i][j] == 1  ⇔  x_i ⊆ x_j
    comp: tuple[bytes, ...]            # comp[i][j] = index of x_i∘x_j
    conv: bytes
    ident: int
    top: int
    bot: int
    joins: tuple[bytes, ...] = field(repr=False)
    meets: tuple[bytes, ...] = field(repr=False)

    def __post_init__(self) -> None:
        """Store the tables as bytes rows (see the module docstring), or refuse them."""
        elements = _checked_elements(self.elements)
        n = len(elements)
        _square(self.leq, n, "leq")
        tables = {key: _square(getattr(self, key), n, key) for key in ("comp", "joins", "meets")}
        if not (isinstance(self.conv, Sized) and len(self.conv) == n):
            _fail("format", f"'conv' must hold {n} element indexes")
        for key in ("ident", "top", "bot"):
            _indexes((getattr(self, key),), n, key)
        self.__dict__.update(
            elements=elements,
            leq=tuple([bytes(map(bool, row)) for row in self.leq]),
            conv=_indexes(self.conv, n, "conv[{}]"),
            **{key: tuple([_indexes(row, n, f"{key}[{i}][{{}}]") for i, row in enumerate(rows)])
               for key, rows in tables.items()},
        )

    # -- little element calculus ------------------------------------------

    def idx(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise KeyError(f"model {self.name!r} has no element {name!r}") from None

    def join_all(self, xs: Iterable[int]) -> int:
        out = self.bot
        for x in xs:
            out = self.joins[out][x]
        return out

    def coreflexives(self) -> list[int]:
        return [x for x in range(len(self.elements)) if self.leq[x][self.ident]]

    def pers(self) -> list[int]:
        return [
            x
            for x in range(len(self.elements))
            if self.conv[x] == x and self.leq[self.comp[x][x]][x]
        ]

    def atoms(self) -> list[int]:
        """Elements whose only strict lower bound is ⊥ (⊥ qualifies vacuously)."""
        _, down, ones = self._masks
        lows = (0, ones[self.bot])
        return [x for x, (below, own) in enumerate(zip(down, ones)) if below & ~own in lows]

    def points(self) -> list[int]:
        return list(self._points)

    @cached_property
    def _points(self) -> tuple[int, ...]:
        return tuple(x for x in self.atoms() if x != self.bot and self.leq[x][self.ident])

    def rdom(self, x: int) -> int:
        return self.meets[self.ident][self.comp[self.conv[x]][x]]

    def ldom(self, x: int) -> int:
        return self.meets[self.ident][self.comp[x][self.conv[x]]]

    def index_of_per(self, p: int) -> int | None:
        """A coreflexive j with j ⊆ P<, j∘P∘j = j and P∘j∘P = P, if any."""
        return _index_among(self, p, self.coreflexives())

    @cached_property
    def _irreducibles(self) -> tuple[int, ...] | None:
        """The join-irreducible elements, which the reduced checks quantify over.

        None unless leq is a partial order, joins[i][j] is the lub and
        meets[i][j] the glb of x_i and x_j, and bot is the least element.
        Reflexivity and antisymmetry are up ∧ down = {x} on the _masks, and
        joins[i][j] is the lub iff its up-set is up[i] ∧ up[j], which in a
        reflexive antisymmetric relation implies transitivity too.
        """
        up, down, ones = self._masks
        if not (
            all(map(eq, map(and_, up, down), ones))
            and all(list(map(up.__getitem__, row)) == list(map(u.__and__, up)) for u, row in zip(up, self.joins))
            and all(list(map(down.__getitem__, row)) == list(map(d.__and__, down)) for d, row in zip(down, self.meets))
        ):
            return None
        return _join_irreducibles(down, ones, self.bot)

    @cached_property
    def _masks(self) -> tuple[list[int], list[int], list[int]]:
        """The order as (up-sets, down-sets, each element's own bit), one int
        mask per element with element j at bit j, from the leq rows and
        columns; load_model presets the same masks."""
        ones = [1 << x for x in range(len(self.leq))]
        up = [sum(compress(ones, row)) for row in self.leq]
        down = [sum(compress(ones, col)) for col in zip(*self.leq)]
        return up, down, ones

    # The tables as rows for the searches (see _rows), built on first use.

    @cached_property
    def _comp_rows(self) -> tuple[list[bytes], list[bytes]]:
        return _rows(self.comp)

    @cached_property
    def _col_rows(self) -> tuple[list[bytes], list[bytes]]:
        return _rows(zip(*self.comp))  # cols[x][y] == comp[y][x]

    @cached_property
    def _join_rows(self) -> tuple[list[bytes], list[bytes]]:
        return _rows(self.joins)

    @cached_property
    def _meet_rows(self) -> tuple[list[bytes], list[bytes]]:
        return _rows(self.meets)

    @cached_property
    def _leq_rows(self) -> tuple[list[bytes], list[bytes]]:
        return _rows(self.leq)

    # The verdicts (see the module docstring): True when the law holds, False
    # when the full ordered search has to run.

    @cached_property
    def _lattice_reduced(self) -> bool:
        return self._irreducibles is not None and _lattice_holds(self)

    @cached_property
    def _monoid_reduced(self) -> bool:
        return self._irreducibles is not None and _monoid_holds(self)

    @cached_property
    def _converse_verdict(self) -> bool:  # not reduced: see _converse_search
        return next(_converse_search(self), None) is None


def _index_among(m: AbstractModel, p: int, coreflexives: list[int]) -> int | None:
    """The first j of coreflexives that is an index of the per p, if any."""
    pdom = m.ldom(p)
    for j in coreflexives:
        if m.leq[j][pdom] and m.comp[m.comp[j][p]][j] == j and m.comp[m.comp[p][j]][p] == p:
            return j
    return None


# -- loading -------------------------------------------------------------------


def _fail(category: str, message: str) -> None:
    raise ModelFormatError(category, message)


def _checked_elements(elements: object) -> tuple[str, ...]:
    """The element names as a tuple, refused unless a nonempty list of at
    most 256 distinct strings (the tables hold element indexes in bytes)."""
    if not (isinstance(elements, (list, tuple)) and elements and all(isinstance(x, str) for x in elements)):
        _fail("format", "'elements' must be a nonempty list of strings")
    if len(set(elements)) != len(elements):
        _fail("format", "'elements' contains duplicates")
    if len(elements) > MAX_INPUT_SIZE:
        _fail("size", f"{len(elements)} elements, more than the {MAX_INPUT_SIZE} a model may have")
    return tuple(elements)


def _square(rows: object, n: int, key: str) -> Sequence:
    """The table rows, refused unless they are n rows of n entries."""
    if not (isinstance(rows, Sized) and len(rows) == n and all(isinstance(r, Sized) and len(r) == n for r in rows)):
        _fail("format", f"'{key}' must be a {n}x{n} table")
    return rows


def _indexes(row: Sequence, n: int, where: str) -> bytes:
    """A row of element indexes, ints 0..n-1, as bytes; refused at its first
    other entry, named by where.format(its column)."""
    try:
        out = bytes(row) if type(row) is bytes or set(map(type, row)) <= {int} else b""
    except ValueError:  # an int outside 0..255
        out = b""
    if out and max(out) < n:
        return out
    j, v = next((j, v) for j, v in enumerate(row) if type(v) is not int or not 0 <= v < n)
    _fail("format", f"{where.format(j)}: {v!r} is not an element index 0..{n - 1}")


def _model(**fields) -> AbstractModel:
    """The trusted constructor, for tables already stored as bytes rows: no
    __post_init__ runs, as rel._make builds relations unchecked."""
    m = object.__new__(AbstractModel)
    m.__dict__.update(fields)
    return m


def _refuse_order(elements: tuple[str, ...], up: list[int], down: list[int]) -> None:
    """Raise on the first failure of the order, then of the lattice, in element order."""
    n = len(elements)
    for i in range(n):
        if not up[i] >> i & 1:
            _fail("order", f"not reflexive: {elements[i]!r} ⊆ {elements[i]!r} missing")
    for i in range(n):
        for j in range(n):
            if not up[i] >> j & 1:
                continue
            if up[j] >> i & 1 and i != j:
                _fail("order", f"not antisymmetric: {elements[i]!r} and {elements[j]!r}")
            missing = up[j] & ~up[i]
            if missing:
                k = (missing & -missing).bit_length() - 1
                _fail(
                    "order",
                    f"not transitive: {elements[i]!r} ⊆ {elements[j]!r} ⊆ {elements[k]!r} "
                    f"but not {elements[i]!r} ⊆ {elements[k]!r}",
                )
    ups, downs = set(up), set(down)
    for i in range(n):
        for j in range(n):
            for kind, masks, found in (("join", up, ups), ("meet", down, downs)):
                if masks[i] & masks[j] not in found:
                    _fail("lattice", f"no unique {kind} for {elements[i]!r} and {elements[j]!r}")


def _join_irreducibles(down: list[int], ones: list[int], bot: int) -> tuple[int, ...] | None:
    """The x ≠ ⊥ with exactly one lower cover, from the down-sets of a lattice
    (ones[x] is x's own bit), or None if bot is not its least element.

    x has exactly one lower cover c iff the elements strictly below x are
    exactly those below c; ⊥ has none below it, and no down-set is empty.
    """
    if down[bot] != ones[bot]:
        return None
    principal = set(down)
    return tuple(x for x, below in enumerate(map(xor, down, ones)) if below in principal)


def _bound_table(masks: list[int]) -> tuple[bytes, ...]:
    """The table of the k with masks[k] == masks[i] & masks[j], as bytes rows.

    Each entry is looked up once per unordered pair: row i's upper part (j ≥ i)
    is derived, and its part below the diagonal is column i of the upper
    triangle, read back by stride, since & commutes. A missing entry is a
    None, which bytes() refuses with TypeError. Rows go through lists: a
    tuple built from an iterator of unknown length is resized as it grows,
    and over a load that fragments the heap.
    """
    n = len(masks)
    by_mask = {u: k for k, u in enumerate(masks)}
    upper = [bytes(map(by_mask.get, map(and_, repeat(u, n - i), masks[i:]))) for i, u in enumerate(masks)]
    tri = b"".join([bytes(i) + t for i, t in enumerate(upper)])  # n×n, zero below the diagonal
    return tuple([tri[i : i * n : n] + t for i, t in enumerate(upper)])


def load_model(source: str | Path | dict, name: str | None = None) -> AbstractModel:
    """Load and validate a model from a JSON file path or an already-parsed dict.

    Expected shape:
        {"elements": [names...],
         "leq": [[x, y], ...]            # the full order, reflexive pairs included
         "compose": [[name, ...], ...],  # row i, column j: name of x_i∘x_j
         "converse": [name, ...],
         "identity": name, "top": name, "bottom": name}
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if name is None:
            name = path.stem
        try:
            data = read_json(path)
        except json.JSONDecodeError as e:
            _fail("format", f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    else:
        data = source
    if not isinstance(data, dict):
        _fail("format", f"expected a JSON object, got {type(data).__name__}")
    if name is None:
        name = str(data.get("name", "unnamed"))

    for key in ("elements", "leq", "compose", "converse", "identity", "top", "bottom"):
        if key not in data:
            _fail("format", f"missing key {key!r}")

    elements = _checked_elements(data["elements"])
    n = len(elements)
    pos = {x: i for i, x in enumerate(elements)}

    # Names resolve a whole row at a time, into bytes (n ≤ 256); only a row
    # that fails is looked at one cell at a time, to name its first malformed
    # entry.
    def lookup(names: Iterable) -> bytes | None:
        try:
            return bytes(map(pos.__getitem__, names))
        except (KeyError, TypeError):
            return None

    def resolve(x: object, key: str, *at: int) -> int:
        if not isinstance(x, str) or x not in pos:
            _fail("format", f"{key}{''.join(f'[{a}]' for a in at)}: unknown element {x!r}")
        return pos[x]

    def resolve_row(row: list, key: str, *at: int) -> bytes:
        found = lookup(row)
        if found is None:
            found = bytes([resolve(x, key, *at, j) for j, x in enumerate(row)])
        return found

    raw_leq = data["leq"]
    if not isinstance(raw_leq, list):
        _fail("format", "'leq' must be a list of [x, y] pairs")
    pairs = None
    if all(map(isinstance, raw_leq, repeat(list))) and set(map(len, raw_leq)) <= {2}:
        pairs = lookup(chain.from_iterable(raw_leq))
    if pairs is None:
        pairs = []
        for k, entry in enumerate(raw_leq):
            if not (isinstance(entry, list) and len(entry) == 2):
                _fail("format", f"leq[{k}]: expected an [x, y] pair, got {entry!r}")
            pairs += resolve(entry[0], "leq", k), resolve(entry[1], "leq", k)
    ones = [1 << i for i in range(n)]
    up, down = [0] * n, [0] * n  # bitmasks of the elements above / below x_i
    ends = iter(pairs)
    for i, j in zip(ends, ends):
        up[i] |= ones[j]
        down[j] |= ones[i]

    raw_comp = data["compose"]
    if not (isinstance(raw_comp, list) and len(raw_comp) == n and all(isinstance(row, list) and len(row) == n for row in raw_comp)):
        _fail("format", f"'compose' must be a {n}x{n} matrix of element names")
    comp = tuple(resolve_row(row, "compose", i) for i, row in enumerate(raw_comp))

    raw_conv = data["converse"]
    if not (isinstance(raw_conv, list) and len(raw_conv) == n):
        _fail("format", f"'converse' must be a list of {n} element names")
    conv = resolve_row(raw_conv, "converse")

    ident = resolve(data["identity"], "identity")
    tp = resolve(data["top"], "top")
    bt = resolve(data["bottom"], "bottom")

    # In a partial order the join of x_i and x_j is the unique x_k whose
    # up-set is exactly their common up-set (dually for meets). If the order
    # is reflexive and antisymmetric (up[i] ∧ down[i] = {i}) and every join is
    # found, it is transitive as well (see AbstractModel._irreducibles);
    # otherwise _refuse_order names the first failure.
    try:
        joins, meets = _bound_table(up), _bound_table(down)
    except TypeError:  # a missing join or meet
        joins = meets = ()
    if not (joins and all(map(eq, map(and_, up, down), ones))):
        _refuse_order(elements, up, down)

    model = _model(
        name=name,
        elements=elements,
        leq=tuple([f"{u:0{n}b}"[::-1].encode().translate(_DIGITS) for u in up]),
        comp=comp,
        conv=conv,
        ident=ident,
        top=tp,
        bot=bt,
        joins=joins,
        meets=meets,
    )
    # the cached_propertys, from these masks
    model.__dict__.update(_irreducibles=_join_irreducibles(down, ones, bt), _masks=(up, down, ones))

    # Structural invariants of the type itself. These are data errors, not
    # axioms under investigation, so they refuse the load — one distinct
    # category per law, message naming the first offending elements.
    mv = next(_monoid_violations(model), None)
    if mv is not None:
        tag, *names = _names(model, mv)
        category = {
            "unit": "identity",
            "zero": "zero",
            "assoc": "associativity",
            "join-left": "distributivity",
            "join-right": "distributivity",
        }[tag]
        _fail(category, f"{tag} law fails at ({', '.join(names)})")
    cv = next(_converse_violations(model), None)
    if cv is not None:
        tag, *names = _names(model, cv)
        _fail("converse", f"{tag} fails at ({', '.join(names)})")
    return model


# -- axiom checking -------------------------------------------------------------
#
# Each axiom is one generator of its refuting instances, as tuples of element
# indexes in search order; where an axiom bundles several laws the tuple
# starts with the failing law's tag. check_axioms reports the first instance,
# recheck looks a stored one up among them, and load_model refuses a model on
# the first monoid or converse violation.


# bytes.translate tables: _NOT maps the byte 0 to 1 and every other byte to 0,
# _DIGITS the digits "0" and "1" to the bytes 0 and 1
_NOT = b"\1" + bytes(255)
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _rows(table) -> tuple[list[bytes], list[bytes]]:
    """A table's rows as bytes, and each padded to a bytes.translate table."""
    rows = [bytes(row) for row in table]
    return rows, [row.ljust(256, b"\0") for row in rows]


def _row_violations(tags: tuple, x: int, y: int, lhs: tuple, rhs: tuple) -> Iterator[tuple]:
    """(tag, x, y, z) for each z, then each tag, where the law's two rows differ."""
    for z in range(len(lhs[0])):
        for tag, left, right in zip(tags, lhs, rhs):
            if left[z] != right[z]:
                yield (tag, x, y, z)


def _lattice_search(m: AbstractModel) -> Iterator[tuple]:
    n = len(m.elements)
    if not (all(m.leq[m.bot]) and all(map(itemgetter(m.top), m.leq))):
        for x in range(n):
            if not (m.leq[m.bot][x] and m.leq[x][m.top]):
                yield ("bounds", x)
    meets, tmeets = m._meet_rows
    joins, tjoins = m._join_rows
    for x in range(n):
        for y in range(n):
            # meets[x][joins[y][z]] == joins[meets[x][y]][meets[x][z]] over z
            lhs, rhs = (joins[y].translate(tmeets[x]),), (meets[x].translate(tjoins[meets[x][y]]),)
            if lhs != rhs:
                yield from _row_violations(("meet-over-join",), x, y, lhs, rhs)


def _lattice_holds(m: AbstractModel) -> bool:
    """No lattice violation: top above every element, and every y ∈ J
    join-prime (see the module docstring). Needs the masks that
    m._irreducibles vouches for, and with them bot as the least element."""
    up, down, ones = m._masks
    full = sum(ones)
    principal = set(down)
    return down[m.top] == full and all(full ^ up[y] in principal for y in m._irreducibles)


def _monoid_search(m: AbstractModel) -> Iterator[tuple]:
    n = len(m.elements)
    for x in range(n):
        if m.comp[m.ident][x] != x or m.comp[x][m.ident] != x:
            yield ("unit", x)
        if m.comp[m.bot][x] != m.bot or m.comp[x][m.bot] != m.bot:
            yield ("zero", x)
    comp, tcomp = m._comp_rows
    cols, tcols = m._col_rows
    joins, tjoins = m._join_rows
    for x in range(n):
        cx, tx, colx, tcolx = comp[x], tcomp[x], cols[x], tcols[x]
        for y in range(n):
            # rows over z of assoc: comp[comp[x][y]][z] == comp[x][comp[y][z]]
            #          join-left: comp[x][joins[y][z]] == joins[comp[x][y]][comp[x][z]]
            #         join-right: comp[joins[y][z]][x] == joins[comp[y][x]][comp[z][x]]
            lhs = (comp[cx[y]], joins[y].translate(tx), joins[y].translate(tcolx))
            rhs = (comp[y].translate(tx), cx.translate(tjoins[cx[y]]), colx.translate(tjoins[colx[y]]))
            if lhs != rhs:
                yield from _row_violations(("assoc", "join-left", "join-right"), x, y, lhs, rhs)


def _monoid_holds(m: AbstractModel) -> bool:
    """No monoid violation, decided with arguments in J (see the module
    docstring). Needs the tables that m._irreducibles vouches for."""
    n = len(m.elements)
    irr = m._irreducibles
    comp, tcomp = m._comp_rows
    cols, tcols = m._col_rows
    joins, tjoins = m._join_rows
    unit, zero = bytes(range(n)), bytes([m.bot]) * n
    if not (comp[m.ident] == cols[m.ident] == unit and comp[m.bot] == cols[m.bot] == zero):
        return False
    for colx, tcolx in zip(cols, tcols):
        for y in irr:
            # join-right: comp[joins[y][z]][x] == joins[comp[y][x]][comp[z][x]] over z
            if joins[y].translate(tcolx) != colx.translate(tjoins[colx[y]]):
                return False
    for x in irr:
        cx, tx = comp[x], tcomp[x]
        for y in irr:
            # assoc and join-left, as in _monoid_search
            if comp[cx[y]] != comp[y].translate(tx) or joins[y].translate(tx) != cx.translate(tjoins[cx[y]]):
                return False
    return True


def _converse_search(m: AbstractModel) -> Iterator[tuple]:
    n = len(m.elements)
    conv = m.conv
    tconv = conv.ljust(256, b"\0")
    comp, _ = m._comp_rows
    _, tcols = m._col_rows
    leq, tleq = m._leq_rows
    if conv[m.ident] != m.ident:
        yield ("identity", m.ident)
    for x, cx in enumerate(conv):
        if conv[cx] != x:
            yield ("involution", x)
        # rows over y of contravariance: conv[comp[x][y]] == comp[conv[y]][conv[x]]
        #                  monotonicity: leq[x][y] ⟹ leq[conv[x]][conv[y]]
        lhs, rhs, mono = comp[x].translate(tconv), conv.translate(tcols[cx]), conv.translate(tleq[cx])
        if lhs != rhs or int.from_bytes(leq[x], "little") & ~int.from_bytes(mono, "little"):
            for y in range(n):
                if leq[x][y] and not mono[y]:
                    yield ("monotonic", x, y)
                if lhs[y] != rhs[y]:
                    yield ("contravariance", x, y)


def _dedekind_search(m: AbstractModel, rs: Iterable[int]) -> Iterator[tuple]:
    n = len(m.elements)
    comp, tcomp = m._comp_rows
    cols, tcols = m._col_rows
    meets, tmeets = m._meet_rows
    nleq = [row.translate(_NOT) for row in m.leq]  # nleq[l][v] == 1  ⇔  not l ⊆ v

    @lru_cache(maxsize=4096)  # some meets[c][t] ⊄ bound[t]; (c, bound) recurs over (r, s)
    def fails(c: int, bound: bytes) -> bool:
        return any(map(getitem, map(nleq.__getitem__, meets[c]), bound))

    for r in rs:
        for s in rs:
            c = comp[r][s]  # the left side over t is meets[c]
            # comp[r][meets[s][comp[conv[r]][t]]] and comp[meets[r][comp[t][conv[s]]]][s] over t
            a = comp[m.conv[r]].translate(tmeets[s]).translate(tcomp[r])
            b = cols[m.conv[s]].translate(tmeets[r]).translate(tcols[s])
            if fails(c, a) or fails(c, b):
                for t in range(n):
                    if nleq[meets[c][t]][a[t]] or nleq[meets[c][t]][b[t]]:
                        yield (r, s, t)


# The reduced decisions. Each generator below first decides its law on the
# join-irreducibles; the full ordered search runs, and is the only thing that
# yields, when that fails or m._irreducibles is None.


def _lattice_violations(m: AbstractModel) -> Iterator[tuple]:
    if not m._lattice_reduced:
        yield from _lattice_search(m)


def _monoid_violations(m: AbstractModel) -> Iterator[tuple]:
    if not m._monoid_reduced:
        yield from _monoid_search(m)


def _converse_violations(m: AbstractModel) -> Iterator[tuple]:
    if not m._converse_verdict:
        yield from _converse_search(m)


def _dedekind_violations(m: AbstractModel) -> Iterator[tuple]:
    if not (
        m._lattice_reduced
        and m._monoid_reduced
        and m._converse_verdict
        and next(_dedekind_search(m, m._irreducibles), None) is None  # r, s ∈ J
    ):
        yield from _dedekind_search(m, range(len(m.elements)))


def _cone_violations(m: AbstractModel) -> Iterator[tuple]:
    for r in range(len(m.elements)):
        if r != m.bot and m.comp[m.comp[m.top][r]][m.top] != m.top:
            yield (r,)


def _choice_violations(m: AbstractModel) -> Iterator[tuple]:
    coreflexives = m.coreflexives()
    for p in m.pers():
        if _index_among(m, p, coreflexives) is None:
            yield (p,)


def _all_or_nothing_violations(m: AbstractModel) -> Iterator[tuple]:
    n = len(m.elements)
    pts = m._points
    for a in pts:
        for b in pts:
            full = m.comp[m.comp[a][m.top]][b]
            for r in range(n):
                squeezed = m.comp[m.comp[a][r]][b]
                if squeezed != m.bot and squeezed != full:
                    yield (a, b, r)


def _extensional_violations(m: AbstractModel) -> Iterator[tuple]:
    pts = m._points
    for p in m.coreflexives():
        if p != m.join_all(q for q in pts if m.leq[q][p]):
            yield (p,)


def _universal_choice_violations(m: AbstractModel) -> Iterator[tuple]:
    n = len(m.elements)
    # the f with f∘f° ⊆ 𝕀, by their rdom(f): facts of f alone
    by_rdom: dict[int, list[int]] = {}
    for f in range(n):
        if m.leq[m.comp[f][m.conv[f]]][m.ident]:
            by_rdom.setdefault(m.rdom(f), []).append(f)
    for r in range(n):
        if not any(m.leq[f][r] for f in by_rdom.get(m.rdom(r), ())):
            yield (r,)


_VIOLATIONS: dict[str, Callable[[AbstractModel], Iterator[tuple]]] = {
    "lattice": _lattice_violations,
    "monoid": _monoid_violations,
    "converse": _converse_violations,
    "dedekind": _dedekind_violations,
    "cone": _cone_violations,
    "choice": _choice_violations,
    "all_or_nothing": _all_or_nothing_violations,
    "extensional": _extensional_violations,
    "universal_choice": _universal_choice_violations,
}


def _names(m: AbstractModel, instance: tuple) -> tuple[str, ...]:
    """An instance with its element indexes replaced by names (tags stay)."""
    return tuple(m.elements[x] if isinstance(x, int) else x for x in instance)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts; counterexamples maps a failed axiom's name to the
    tuple of element names (tagged, where an axiom bundles several laws) that
    refutes it. Every stored tuple re-evaluates via recheck."""

    lattice: bool
    monoid: bool
    converse: bool
    dedekind: bool
    cone: bool
    choice: bool
    all_or_nothing: bool
    extensional: bool
    universal_choice: bool
    counterexamples: dict[str, tuple[str, ...]] = field(default_factory=dict, compare=False)

    AXIOMS = tuple(_VIOLATIONS)

    def flags(self) -> dict[str, bool]:
        return {a: getattr(self, a) for a in self.AXIOMS}

    @property
    def ok(self) -> bool:
        return all(self.flags().values())


def check_axioms(m: AbstractModel) -> AxiomReport:
    flags: dict[str, bool] = {}
    ces: dict[str, tuple[str, ...]] = {}
    for axiom, violations in _VIOLATIONS.items():
        first = next(violations(m), None)
        flags[axiom] = first is None
        if first is not None:
            ces[axiom] = _names(m, first)
    return AxiomReport(counterexamples=ces, **flags)


def recheck(m: AbstractModel, axiom: str, counterexample: tuple[str, ...]) -> bool:
    """True iff the stored counterexample is one of the axiom's violations on this model."""
    if axiom not in _VIOLATIONS:
        raise ValueError(f"unknown axiom {axiom!r}")
    stored = tuple(counterexample)
    return any(_names(m, v) == stored for v in _VIOLATIONS[axiom](m))


# -- bundled models --------------------------------------------------------------


BUNDLED_NAMES = (
    "one_element", "two_element", "three_element", "three_element_unit_top",
    "four_element_point", "desharnais13", "product_two_two",
)


def _data_path(name: str):
    return resources.files("relalg").joinpath(f"data/{name}.json")


# One slot per bundled model: a model-axioms pass makes 541 loads of 6 names.
@lru_cache(maxsize=len(BUNDLED_NAMES))
def load_bundled(name: str) -> AbstractModel:
    if name not in BUNDLED_NAMES:
        raise KeyError(f"no bundled model {name!r}; have {', '.join(BUNDLED_NAMES)}")
    with resources.as_file(_data_path(name)) as path:
        return load_model(path, name=name)


def model_to_dict(m: AbstractModel) -> dict:
    """The JSON shape load_model accepts, with leq listed in index order."""
    elements = m.elements
    name = elements.__getitem__
    return {
        "elements": list(elements),
        "leq": [[x, y] for x, row in zip(elements, m.leq) for y in compress(elements, row)],
        "compose": [list(map(name, row)) for row in m.comp],
        "converse": list(map(name, m.conv)),
        "identity": elements[m.ident],
        "top": elements[m.top],
        "bottom": elements[m.bot],
    }


def product_model(m1: AbstractModel, m2: AbstractModel) -> AbstractModel:
    """Componentwise product of two models, built from the factors' tables.

    The product is named "<m1>x<m2>" after its factors, and the pair
    (x_i, y_j) is element i*n2 + j, named "x_i|y_j". The order is the
    conjunction of the factors' orders, and composition, converse, joins,
    meets and the constants act on each component, so the product of two
    valid models is a valid model and load_model is not run on it. So a
    factor built directly that breaks a structural law gives a product that
    breaks it too and is not refused with ModelFormatError: check_axioms
    reports the violation, as for any model built directly. Only a product
    of more than 256 elements (category size) or with colliding names
    (format) is refused.
    Products preserve the equational laws but break the cone rule as soon as
    both factors are nontrivial: (⊤,⊥) is neither ⊥ nor cone-full.
    """
    n2 = len(m2.elements)
    # factor names containing "|" can collide
    elements = _checked_elements([f"{a}|{b}" for a in m1.elements for b in m2.elements])

    # shift[a] maps b to the index a*n2 + b of (x_a, y_b)
    shift = [bytes(range(a * n2, (a + 1) * n2)).ljust(256, b"\0") for a in range(len(m1.elements))]

    def lift(t1: Iterable, t2: Iterable) -> tuple[bytes, ...]:
        # row (r1, r2) is the blocks r2 shifted by a, for a in r1
        blocks = [[r2.translate(s) for s in shift] for r2 in t2]
        return tuple([b"".join(map(block.__getitem__, r1)) for r1 in t1 for block in blocks])

    zero = bytes(n2)
    return _model(
        name=f"{m1.name}x{m2.name}",
        elements=elements,
        leq=tuple([b"".join([r2 if a else zero for a in r1]) for r1 in m1.leq for r2 in m2.leq]),
        comp=lift(m1.comp, m2.comp),
        conv=lift((m1.conv,), (m2.conv,))[0],
        ident=m1.ident * n2 + m2.ident,
        top=m1.top * n2 + m2.top,
        bot=m1.bot * n2 + m2.bot,
        joins=lift(m1.joins, m2.joins),
        meets=lift(m1.meets, m2.meets),
    )
