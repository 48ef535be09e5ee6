"""Finite binary relations as packed integer codes.

A Relation is an immutable boolean matrix between two named finite carriers,
stored as one Python int, its code: over carriers of sizes ``m`` and ``k``,
pair ``(i, j)`` is present iff bit ``i*k + j`` of the code is set, so row ``i``
is the ``k``-bit field at bit ``i*k``. Union, meet, complement and inclusion
are single int operations; composition, converse and the domain operators
shift and mask rows out of the code. That is what makes exhaustive law sweeps
over all relations of small carriers affordable.

The memoized operations (compose, converse and complement here, the residuals
and symmetric divisions in factors, the domain operators in domains, the
classes of a per, its min and max transversals and the quotient legs on them
in indexcore) cache codes keyed on codes and sizes, not Relation objects. A
cached answer is a bare int shared by every pair of carriers with those sizes,
and each call wraps it in its caller's own carriers, labels included. A
quotient leg also caches the carrier of its classes, whose labels are built
from the caller's, so that memo is keyed on the caller's labels too. The
carrier checks run before the lookup, so a mismatch raises whatever the cache
holds. Each memo is an LRU cache sized to the largest working set of the law
runs; the comment above it names that traffic, and `relalg laws --stats`
prints its hits and misses.

Enumeration order is code order: relation number ``n`` is the one with code
``n``. Carriers are interned, so carrier equality is mostly an identity test;
it is nominal (name and size), and labels are presentation only and never
participate in equality or hashing.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator
from weakref import WeakValueDictionary


class CarrierMismatch(TypeError):
    """An operation was applied to relations over incompatible carriers."""


class EnumerationLimit(ValueError):
    """An enumeration request would exceed the configured size bound."""


class RelationFormatError(ValueError):
    """A relation description (JSON dict) is malformed; .field says where."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


#: No enumeration walks more than 2**MAX_ENUM_BITS candidates: relations of
#: at most this many matrix bits, coreflexives of at most this many elements,
#: and (elsewhere) per cells, index sandwiches and law-runner pools. The 4x4
#: relation pool of the law runner is the largest.
MAX_ENUM_BITS = 16

#: Carriers read from outside (relation files, `relalg points`) have at most
#: this many elements, the bound abstract models have too: kernel work grows
#: with the cube of a carrier's size, so a short file could ask for hours.
MAX_INPUT_SIZE = 256


class Carrier:
    """A named finite type.

    Two carriers are interchangeable iff they agree on name and size; this is
    deliberate so that relations loaded from different files compose exactly
    when their endpoint declarations match. Construction interns: equal
    arguments give the same object.
    """

    __slots__ = ("name", "size", "labels", "_hash", "__weakref__")
    _interned: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, name: str, size: int, labels: Iterable[str] | None = None):
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise ValueError(f"carrier {name!r}: size must be a non-negative int, got {size!r}")
        if labels is not None:
            labels = tuple(labels)
            if not all(isinstance(x, str) for x in labels):
                raise ValueError(f"carrier {name!r}: labels must be strings, got {labels!r}")
            if len(labels) != size:
                raise ValueError(f"carrier {name!r}: {len(labels)} labels for size {size}")
            if len(set(labels)) != len(labels):
                raise ValueError(f"carrier {name!r}: labels must be pairwise distinct")
            if labels == tuple(map(str, range(size))):
                labels = None  # the default labels, given explicitly: one carrier, however built
        key = (str(name), size, labels)
        self = cls._interned.get(key)
        if self is None:
            self = super().__new__(cls)
            self.name, self.size = key[0], size
            self.labels = tuple(str(i) for i in range(size)) if labels is None else labels
            self._hash = hash(key[:2])
            cls._interned[key] = self
        return self

    def __getnewargs__(self) -> tuple:
        return self.name, self.size, self.labels

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Carrier) and self.name == other.name and self.size == other.size
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Carrier({self.name!r}, {self.size})"


class Relation:
    """An immutable relation between two carriers, stored as one int code."""

    __slots__ = ("src", "dst", "code")

    def __init__(self, src: Carrier, dst: Carrier, rows: Iterable[int]):
        """Validating constructor from one k-bit int per source element."""
        rows = tuple(rows)
        if len(rows) != src.size:
            raise ValueError(f"{len(rows)} rows for source carrier {src.name!r} of size {src.size}")
        k = dst.size
        code = 0
        for i, row in enumerate(rows):
            if not 0 <= row < 1 << k:
                raise ValueError(f"row {i} = {row!r} does not fit target carrier {dst.name!r} of size {k}")
            code |= row << (i * k)
        self.src, self.dst, self.code = src, dst, code

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Relation)
            and self.code == other.code
            and (self.src is other.src or self.src == other.src)
            and (self.dst is other.dst or self.dst == other.dst)
        )

    def __hash__(self) -> int:
        return hash((self.code, self.src._hash, self.dst._hash))

    def __repr__(self) -> str:
        pts = ",".join(f"({i},{j})" for i, j in self.pairs())
        return f"<{self.src.name}~{self.dst.name} {{{pts}}}>"

    # -- queries ----------------------------------------------------------

    @property
    def rows(self) -> tuple[int, ...]:
        """Row i as a k-bit int whose bit j is the entry (i, j)."""
        return _rows(self.code, self.src.size, self.dst.size)

    def pairs(self) -> Iterator[tuple[int, int]]:
        code, k = self.code, self.dst.size
        while code:
            low = code & -code
            yield divmod(low.bit_length() - 1, k)
            code ^= low

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        k = self.dst.size
        return 0 <= i < self.src.size and 0 <= j < k and bool(self.code >> (i * k + j) & 1)

    def __bool__(self) -> bool:
        return self.code != 0

    def bit_count(self) -> int:
        return self.code.bit_count()

    # -- operator sugar (delegates to the module-level functions) ----------

    def __matmul__(self, other: "Relation") -> "Relation":
        return compose(self, other)

    def __and__(self, other: "Relation") -> "Relation":
        return intersect(self, other)

    def __or__(self, other: "Relation") -> "Relation":
        return union(self, other)

    def __invert__(self) -> "Relation":
        return complement(self)

    def __le__(self, other: "Relation") -> bool:
        return is_subset(self, other)

    def __lt__(self, other: "Relation") -> bool:
        return is_subset(self, other) and self.code != other.code

    def __ge__(self, other: "Relation") -> bool:
        return is_subset(other, self)

    def __gt__(self, other: "Relation") -> bool:
        return is_subset(other, self) and self.code != other.code

    @property
    def conv(self) -> "Relation":
        return converse(self)


_new = object.__new__


def _make(src: Carrier, dst: Carrier, code: int) -> Relation:
    """The trusted constructor: every kernel result is built here, unchecked."""
    r = _new(Relation)
    r.src, r.dst, r.code = src, dst, code
    return r


# -- code arithmetic -------------------------------------------------------------


def _full(n: int, k: int) -> int:
    return (1 << (n * k)) - 1


def _rows(code: int, n: int, k: int) -> tuple[int, ...]:
    """The n rows of an n×k code, each a k-bit int."""
    full = (1 << k) - 1
    return tuple([code >> (i * k) & full for i in range(n)])


def _restride(code: int, n: int, width: int, old: int, new: int) -> int:
    """Move n rows of the given width from stride old to stride new."""
    full = (1 << width) - 1
    out = 0
    for i in range(n):
        out |= (code >> (i * old) & full) << (i * new)
    return out


def _compose_code(rc: int, sc: int, n: int, m: int, p: int) -> int:
    """Code of R∘S from the codes of R (n×m) and S (m×p).

    Column j of R as a selector with one bit per row at the row's start,
    times row j of S, copies that row into every selected row of the result.
    The copies never overlap, so the product is their union. Rows are laid
    out at stride q = max(m, p) while multiplying.
    """
    q = m if m > p else p
    if q == 0:
        return 0
    if m < q:
        rc = _restride(rc, n, m, m, q)
    sel = _full(n, q) // ((1 << q) - 1)
    full = (1 << p) - 1
    out = 0
    for j in range(m):
        row = sc >> (j * p) & full
        if row:
            out |= (rc >> j & sel) * row
    return out if p == q else _restride(out, n, p, q, p)


@lru_cache(maxsize=None)
def _spread(n: int) -> tuple[int, ...]:
    """For each 4-bit x, x with bit j moved to bit j*n (16 entries per n)."""
    return tuple(sum(1 << (j * n) for j in range(4) if x >> j & 1) for x in range(16))


def _converse_code(code: int, n: int, k: int) -> int:
    """Code of R° (k×n) from the code of R (n×k): row i spreads into column i."""
    spread = _spread(n)
    full = (1 << k) - 1
    out = 0
    for i in range(n):
        row = code >> (i * k) & full
        shift = i
        while row:
            out |= spread[row & 15] << shift
            row >>= 4
            shift += 4 * n
    return out


def _diagonal(mask: int, n: int) -> int:
    """Code of the sub-identity on n elements whose members are mask's bits."""
    out = 0
    while mask:
        low = mask & -mask
        out |= low << ((low.bit_length() - 1) * n)
        mask ^= low
    return out


# -- constructors -----------------------------------------------------------


def bottom(src: Carrier, dst: Carrier) -> Relation:
    return _make(src, dst, 0)


def top(src: Carrier, dst: Carrier) -> Relation:
    return _make(src, dst, _full(src.size, dst.size))


def identity(carrier: Carrier) -> Relation:
    return _make(carrier, carrier, _diagonal((1 << carrier.size) - 1, carrier.size))


def _in_range(x: object, size: int) -> bool:
    """Whether x is an int in range(size); a bool is refused, though Python counts it an int."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < size


def from_pairs(src: Carrier, dst: Carrier, pairs: Iterable[tuple[int, int]]) -> Relation:
    """Validating constructor: pairs must be in range and duplicate-free."""
    code = 0
    for n, pair in enumerate(pairs):
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise RelationFormatError(f"pairs[{n}]", f"expected an [i, j] pair, got {pair!r}") from None
        if not _in_range(i, src.size):
            raise RelationFormatError(
                f"pairs[{n}]", f"source index {i!r} is not an element of carrier {src.name!r} of size {src.size}"
            )
        if not _in_range(j, dst.size):
            raise RelationFormatError(
                f"pairs[{n}]", f"target index {j!r} is not an element of carrier {dst.name!r} of size {dst.size}"
            )
        bit = 1 << (i * dst.size + j)
        if code & bit:
            raise RelationFormatError(f"pairs[{n}]", f"duplicate pair [{i}, {j}]")
        code |= bit
    return _make(src, dst, code)


def coreflexive(carrier: Carrier, members: Iterable[int]) -> Relation:
    """The sub-identity with the given diagonal members."""
    mask = 0
    for i in members:
        if not _in_range(i, carrier.size):
            raise ValueError(f"member {i!r} is not an element of carrier {carrier.name!r} of size {carrier.size}")
        mask |= 1 << i
    return _make(carrier, carrier, _diagonal(mask, carrier.size))


def relation_code(r: Relation) -> int:
    """Little-endian integer code of a relation (inverse of relation_at)."""
    return r.code


def relation_at(src: Carrier, dst: Carrier, code: int) -> Relation:
    if not _in_range(code, _full(src.size, dst.size) + 1):
        raise ValueError(f"code {code!r} out of range for a {src.size}x{dst.size} relation, or not an int")
    return _make(src, dst, code)


def enumerate_relations(src: Carrier, dst: Carrier) -> Iterator[Relation]:
    """All relations src~dst in little-endian order.

    Refuses (rather than hangs) when the matrix has more than MAX_ENUM_BITS cells.
    """
    for code in _relation_codes(src, dst):
        yield _make(src, dst, code)


def _relation_codes(src: Carrier, dst: Carrier) -> range:
    """The codes of all relations src~dst, refused as enumerate_relations refuses."""
    bits = src.size * dst.size
    if bits > MAX_ENUM_BITS:
        raise EnumerationLimit(
            f"{src.size}x{dst.size} carrier pair has {bits} matrix bits; "
            f"refusing to enumerate 2**{bits} relations (limit {MAX_ENUM_BITS} bits)"
        )
    return range(1 << bits)


def enumerate_coreflexives(carrier: Carrier) -> Iterator[Relation]:
    """All sub-identities over the carrier, in little-endian order of the diagonal."""
    n = carrier.size
    if n > MAX_ENUM_BITS:
        raise EnumerationLimit(f"carrier {carrier.name!r} has {n} diagonal bits (limit {MAX_ENUM_BITS})")
    for mask in range(1 << n):
        yield _make(carrier, carrier, _diagonal(mask, n))


# -- lattice and monoid operations -------------------------------------------

def _require_same_type(r: Relation, s: Relation, what: str) -> None:
    if not ((r.src is s.src or r.src == s.src) and (r.dst is s.dst or r.dst == s.dst)):
        raise CarrierMismatch(
            f"{what}: operands have types {r.src.name}~{r.dst.name} and {s.src.name}~{s.dst.name}"
        )


def _served_by(memo):
    """Give a public operation the cache_info and cache_clear of the code memo
    that answers it, so its cache is inspected and emptied through its name."""

    def mark(fn):
        fn.cache_info, fn.cache_clear = memo.cache_info, memo.cache_clear
        return fn

    return mark


# Sized to the laws runs: laws-size3 leaves 3,173 compose codes, criterion 2 4,277.
_compose_memo = lru_cache(maxsize=1 << 13)(_compose_code)
# Sized to the laws runs: laws-size3 and criterion 2 leave the most converse codes, 686.
_converse_memo = lru_cache(maxsize=1 << 12)(_converse_code)


# No laws run or sweep calls it: term laws take ¬ on planes, and only complement and R.__invert__ reach it.
@lru_cache(maxsize=1 << 12)
def _complement_code(code: int, n: int, k: int) -> int:
    return code ^ _full(n, k)


def _middle_mismatch(a: Carrier, b: Carrier, c: Carrier, d: Carrier) -> CarrierMismatch:
    """The error of composing a relation a~b with one c~d when b is not c."""
    return CarrierMismatch(f"compose: middle carriers disagree ({a.name}~{b.name} then {c.name}~{d.name})")


@_served_by(_compose_memo)
def compose(r: Relation, s: Relation) -> Relation:
    if r.dst is not s.src and r.dst != s.src:
        raise _middle_mismatch(r.src, r.dst, s.src, s.dst)
    return _make(r.src, s.dst, _compose_memo(r.code, s.code, r.src.size, r.dst.size, s.dst.size))


@_served_by(_converse_memo)
def converse(r: Relation) -> Relation:
    return _make(r.dst, r.src, _converse_memo(r.code, r.src.size, r.dst.size))


def union(r: Relation, s: Relation) -> Relation:
    _require_same_type(r, s, "union")
    return _make(r.src, r.dst, r.code | s.code)


def intersect(r: Relation, s: Relation) -> Relation:
    _require_same_type(r, s, "intersect")
    return _make(r.src, r.dst, r.code & s.code)


@_served_by(_complement_code)
def complement(r: Relation) -> Relation:
    return _make(r.src, r.dst, _complement_code(r.code, r.src.size, r.dst.size))


def is_subset(r: Relation, s: Relation) -> bool:
    _require_same_type(r, s, "is_subset")
    return not r.code & ~s.code


def equals(r: Relation, s: Relation) -> bool:
    _require_same_type(r, s, "equals")
    return r.code == s.code


def is_coreflexive(r: Relation) -> bool:
    n = r.src.size
    return r.src == r.dst and not r.code & ~_diagonal((1 << n) - 1, n)


# -- JSON form ----------------------------------------------------------------


def carrier_to_dict(c: Carrier) -> dict:
    return {"name": c.name, "size": c.size, "labels": list(c.labels)}


def _carrier_from_dict(d: object, field: str) -> Carrier:
    if not isinstance(d, dict):
        raise RelationFormatError(field, f"expected an object, got {type(d).__name__}")
    if "name" not in d or "size" not in d:
        raise RelationFormatError(field, "carrier needs 'name' and 'size'")
    name, size = d["name"], d["size"]
    if not isinstance(name, str):
        raise RelationFormatError(f"{field}.name", f"expected a string, got {name!r}")
    if not _in_range(size, MAX_INPUT_SIZE + 1):
        raise RelationFormatError(
            f"{field}.size", f"expected a non-negative int of at most {MAX_INPUT_SIZE}, got {size!r}"
        )
    labels = d.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise RelationFormatError(f"{field}.labels", "expected a list of strings")
    try:
        return Carrier(name, size, labels)
    except ValueError as e:
        raise RelationFormatError(field, str(e)) from None


def to_dict(r: Relation) -> dict:
    return {
        "src": carrier_to_dict(r.src),
        "dst": carrier_to_dict(r.dst),
        "pairs": [[i, j] for i, j in r.pairs()],
    }


def from_dict(d: object) -> Relation:
    if not isinstance(d, dict):
        raise RelationFormatError("$", f"expected a JSON object, got {type(d).__name__}")
    for key in ("src", "dst", "pairs"):
        if key not in d:
            raise RelationFormatError(key, "missing")
    src = _carrier_from_dict(d["src"], "src")
    dst = _carrier_from_dict(d["dst"], "dst")
    pairs = d["pairs"]
    if not isinstance(pairs, list):
        raise RelationFormatError("pairs", f"expected a list, got {type(pairs).__name__}")
    checked = []
    for n, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 2 and all(isinstance(x, int) and not isinstance(x, bool) for x in p)):
            raise RelationFormatError(f"pairs[{n}]", f"expected a two-int list, got {p!r}")
        checked.append((p[0], p[1]))
    return from_pairs(src, dst, checked)


# Strings (skipped whole), brackets and integers: enough of JSON's tokens to
# say where a document that json.loads gave up on goes too deep or too long.
# Compiled on first use only, by re's cache: a compiled pattern held from
# import costs every process about 0.15 MB of peak memory.
_JSON_TOKENS = r'"(?:[^"\\]|\\.)*"|[][{}]|-?[0-9]+'


def read_json(path: str | Path) -> object:
    """The value of a JSON file, read as UTF-8.

    Every malformed file raises json.JSONDecodeError, whose lineno and colno
    place the fault: a byte that is not UTF-8, bad JSON, arrays and objects
    nested deeper than the parser's recursion allows (at the first of the
    deepest brackets), or an integer with more digits than int() converts.
    OSError passes through.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        before = raw[: e.start].decode("utf-8")
        raise json.JSONDecodeError(f"invalid UTF-8 byte 0x{raw[e.start]:02x}", before, len(before)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        depth = deepest = at = 0
        for token in re.finditer(_JSON_TOKENS, text):
            c = token.group()
            if c in ("[", "{"):
                depth += 1
                if depth > deepest:
                    deepest, at = depth, token.start()
            elif c in ("]", "}"):
                depth -= 1
        raise json.JSONDecodeError(f"arrays and objects nested {deepest} deep, too deep to parse", text, at) from None
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        numbers = (t for t in re.finditer(_JSON_TOKENS, text) if t.group()[0] not in '"[]{}')
        at = next((t.start() for t in numbers if len(t.group().lstrip("-")) > limit), 0)
        raise json.JSONDecodeError(f"integer of more than {limit} digits", text, at) from None
