"""Point-free statements parsed once and evaluated a batch of instances at a time.

A law statement such as ``T ⊆ R\\S ≡ R∘T ⊆ S`` is parsed into a Formula over
the law's variables. The grammar, from the loosest binding to the tightest:

    statement   := formula [ "for" KINDS LETTER* ] [ "where" binding ( "," binding )* ]
    binding     := LETTER "=" term
    formula     := implication ( "," implication )*        conjunction
    implication := disjunction [ "⇒" implication ]
    disjunction := conjunction ( "or" conjunction )*
    conjunction := equivalence ( "and" equivalence )*
    equivalence := comparison ( "≡" comparison )*          a chain
    comparison  := PREDICATE term
                 | ("∀" | "∃") binders implication
                 | "(" formula ")"
                 | term ( ("⊆" | "=" | "≠") term )+        a chain
    binders     := LETTER ":" "point" CARRIER ( "," LETTER ":" "point" CARRIER )* "."
    term        := meet ( "∪" meet )*
    meet        := product ( "∩" product )*
    product     := unary ( ("∘" | "\\" | "/" | "\\\\" | "//") unary )*
    unary       := ("¬" | "index") unary | postfix
    postfix     := primary ( "°" | "<" | ">" | "≺" | "≻" )*
    primary     := LETTER | constant | "(" term ")" | "⋃" binders term "if" conjunction
    constant    := ("⊥" | "⊤") [ "[" CARRIER "," CARRIER "]" ]
                 | "𝕀" [ "[" CARRIER "]" ]

A chain ``a = b = c`` means ``a = b and b = c``, as Python chains do, and
``\\``, ``/``, ``\\\\``, ``//`` are the left and right residuals and the
symmetric divisions (see factors). The trailing ``for pers P`` restates the
kinds of the named variables (of every variable, when none is named); the
parser checks it against them. Letters are bound to the law's variables
explicitly, one letter per variable in order, since a statement need not
mention its variables in that order. A parenthesis at the place of a
comparison opens a formula when a comparison, a connective, a predicate word
or a quantifier stands in it at its own depth before any ``⋃``, and a term
otherwise, so ``(A and B) ≡ (C and D)`` compares two conjunctions.

A binder ranges its fresh letters over a constant pool, one whose members are
the same for every instance: ``a:point A`` over the points of carrier A, the
coreflexives with one element. ``∀ a:point A . φ`` and ``∃ a:point A . φ``
hold when φ holds for every member, or for some; ``⋃ a:point A, b:point B .
a∘⊤∘b if a∘⊤∘b ⊆ R`` is the union of the term over the members on which the
guard holds, and ⊥ when there are none. A quantifier's formula and a union's
guard end at the next ``,`` (and ``or`` or ``⇒`` for a guard) or closing
parenthesis. The letters are visible in the binder alone.

A trailing ``where J = index R, λ = J<∘R≺`` binds new letters to terms in
order; a binding may use the letters bound before it. A bound letter costs
nothing, as equal subterms are evaluated once. ``index X`` is the index of X
with the least member of each per-domain class (relation_index, min policy).
It alone depends on the order of the carriers' elements, so a reduction to
orbits under renamings of the elements must skip any formula containing it.
A point binder does not stand in its way: renaming the elements of a carrier
permutes its points among themselves, so a union, ∀ or ∃ over them keeps its
value, and a law with point binders stays invariant under renaming.

A PREDICATE is one of the words ``per``, ``functional``, ``injective``,
``difunctional``, ``rectangle``, ``square``, ``pair``, ``particle`` and
``point``, each defined once, in this grammar, over a term X : A~B in
_DEFINITIONS. A word applies to the whole term after it, ``per R∘S`` is
``per (R∘S)``, and reads as its definition with X standing for that term and
A and B for its carriers. No letter of the statement is visible there, so a
variable or bound letter may be named X, a or b. ``per``, ``square``,
``particle`` and ``point`` first join the two carriers of their term.

The carriers of each ⊥, ⊤ and 𝕀 are inferred from the variables by
unification; brackets name them where the variables leave them open, as in
``⊤[A,A]∘R``, with the law's type variables. A statement whose constant's
carriers stay open, one that joins two different carriers, or one that does
not parse raises ValueError naming the law and the column.

A Formula has one evaluator, over an instruction list in which equal subterms
appear once. ``formula.failures(planes, sizes, full)`` evaluates a batch of
instances at once, ``full`` the mask of their bits. Each argument is a list of
planes, one int per matrix cell in code order, and bit x of every plane
belongs to instance x, so composition is an OR of ANDs and converse permutes
the planes. The instances' carriers are data of the batch, not its shape:
``sizes`` gives each type variable either one size for every instance or its
element masks, one plane per element of the largest carrier, with bit x set
where instance x's carrier holds that element; one size n stands for n masks
equal to ``full``. The planes are laid out at the largest sizes, and every
cell outside an instance's carriers is 0 on it. Only ⊤, 𝕀, ¬ (and through it
``\\`` and ``/``) and the row and column agreements ``\\\\`` and ``//`` read
the masks: cell (i, i) of 𝕀 is element i's mask, a cell of ⊤ is the AND of its
row's and its column's element masks, ¬ XORs each cell with that, and an
agreement of two rows is masked with it. Every other operation keeps zeros as
zeros, so the comparisons need no masks. A statement with binders takes one
size per type variable, as its pools and the spans of its values depend on it.
A predicate word is the instructions of its definition, so the evaluator knows
only the primitive operations and shares equal subterms between a definition
and its statement. ``index X`` keeps cell (i, j) of X where i is the least
member of its X≺-class and j of its X≻-class. A binder lays the combinations
of its members beside the instances, as more bits of the same planes; a union
masks its term's planes with its guard's plane and ORs the combinations
together, ∀ ANDs them and ∃ ORs them. The result has bit x set when the
statement fails on instance x (the bitslicing of E. Biham's DES
implementation, FSE 1997).

A call ``formula(args, carriers)`` on one instance, Relations over Carriers,
is a batch of one: it returns the statement's truth, so a Formula is a law
check, with which the runner shrinks and replays a failure. Shrinking drops
carrier elements down to none, so a carrier may be empty: nothing is related
through it, rows of no cells are all equal and all empty, and a binder over
it has no member combinations, so ∀ holds, ∃ fails and ⋃ is ⊥.

Every instruction is evaluated once per batch, in one pass over the list. A
value spans a unit times the member combinations of its span, the letters
around it up to the last one it uses: a binder's inputs span the binder's own
span, then its letters in order. The unit is the batch when the value uses a
variable or no letter, and one bit otherwise: a value on letters alone, such
as the piece (a∘⊤∘b)∘(b∘⊤∘c), is the same on every instance and is computed
once for all of them. Bit u + unit·x of a plane belongs to instance u at
combination x, where the first letter moves fastest. So an input is widened
to its reader's span: each bit of a one-bit value is stretched to a run as
wide as the batch, a batch-wide value with no letter (the ⊤ of a∘⊤∘b) is
narrowed to one bit, and the value is repeated, by doubling, over the
reader's further letters, which move slower. A binder's own letters are the
slowest of its inputs' span, and ∀, ∃ and ⋃ fold them by halving. The widest
planes (Formula.combinations) are the batch times the combinations of a
binder's inputs, and the runner shrinks the batch to keep them within one
plane's bits.
"""

from __future__ import annotations

import re
from collections import Counter
from copy import copy
from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import and_, or_, xor
from typing import Sequence

#: The plural kind words a trailing ``for`` clause may use.
KIND_WORDS = {
    "relations": "relation", "coreflexives": "coreflexive", "pers": "per",
    "difunctions": "difunction", "functionals": "functional", "points": "point",
}

# a symbol (𝕀 too, though Python counts it a letter), a word, or anything else
_TOKEN = re.compile(r"(\\\\|//|[\\/∘∪∩°¬⊥⊤𝕀()\[\]<>≺≻⊆=≠≡⇒,⋃∀∃:.])|([^\W\d_]+)|(\S)")
_PRODUCTS = ("∘", "\\", "/", "\\\\", "//")
_POSTFIX = ("°", "<", ">", "≺", "≻")
_COMPARISONS = ("⊆", "=", "≠")
_CONSTANTS = ("⊥", "⊤", "𝕀")
# the predicate words, each defined in the grammar over its term X : A~B (see
# _Parser.defined), as in G. Schmidt and T. Ströhlein, Relations and Graphs
# (1993); and those that join the two carriers of their term
_DEFINITIONS = {
    "per": "X° = X and X∘X ⊆ X",
    "functional": "X∘X° ⊆ 𝕀",
    "injective": "X°∘X ⊆ 𝕀",
    "difunctional": "X∘X°∘X ⊆ X",
    "rectangle": "X∘⊤∘X ⊆ X",
    "square": "X° = X and X∘⊤∘X ⊆ X",
    "pair": "∃ a:point A, b:point B . X = a∘⊤∘b",
    "particle": "∃ a:point A . X = a∘⊤∘a",
    "point": "∃ a:point A . X = a",
}
_HOMOGENEOUS = ("per", "square", "particle", "point")
# the binders, with the number of their inputs before their letters: a
# union's term and guard, a quantifier's formula
_BINDERS = {"⋃": 2, "∀": 1, "∃": 1}
# the constant pools a binder ranges over, each with its members' codes on a
# carrier of n elements, in code order; a bound letter's instruction is its pool
_POOLS = {"point": lambda n: [1 << i * (n + 1) for i in range(n)]}
# what makes a parenthesis at the place of a comparison a formula (see formula_group)
_FORMULA_TOKENS = _COMPARISONS + ("≡", "⇒", "and", "or", ",", "∀", "∃") + tuple(_DEFINITIONS)


class Formula:
    """A parsed statement over a law's variables; callable as a law check."""

    __slots__ = ("statement", "letters", "_code", "_steps", "_folds", "_plan", "_widest")

    def __init__(self, statement: str, letters: str, code: list[tuple[str, tuple, tuple]]):
        self.statement, self.letters, self._code = statement, letters, code
        # per instruction: op, inputs, dims, its span's carriers and unit
        # (None: no letters, batch wide) and how each input is read (None:
        # every one as it is, never for a binder); a binder's inputs are its kids
        self._steps: list[tuple] = [(op, ins, dims, None, None) for op, ins, dims in code]
        self._folds: dict[int, tuple[tuple[str, ...], bool]] = {}  # a binder's own carriers, its inputs' unit
        self._widest: tuple[tuple[str, ...], ...] = ()  # the spans of the binders' inputs, the widest
        if any(op in _BINDERS for op, _, _ in code):
            self._span_binders()
        self._plan = list(Counter((dims, *(span or ((), True))) for op, _, dims, span, _ in self._steps
                                  if op in _SLICED).items())

    def _span_binders(self) -> None:
        """Lay out the values of a statement with binders (see the module
        docstring): each one's span and unit, and how it reads its inputs."""
        code = self._code
        # an instruction's scope is the bound letters it uses, as a bit mask
        # of their instructions; a uniform one uses no variable
        scope: list[int] = []
        uniform: list[bool] = []
        for i, (op, ins, dims) in enumerate(code):
            kids = ins[:_BINDERS[op]] if op in _BINDERS else () if op in _POOLS or op == "var" else ins
            scope.append(1 << i if op in _POOLS else reduce(or_, [scope[k] for k in kids], 0)
                         & ~sum(1 << k for k in ins[len(kids):]))
            uniform.append(op != "var" and all(uniform[k] for k in kids))
        # around[k] is letter k's span; a binder comes after the binders
        # inside it, whose letters' spans extend its own
        around: dict[int, tuple[int, ...]] = {}

        def spanned(mask: int) -> tuple[int, ...]:
            """The span of a value using these letters: their spans are
            prefixes of one another, and the last letter's the longest."""
            return max((around[k] for k in around if mask >> k & 1), key=len, default=())

        for b in reversed(range(len(code))):
            op, ins, _ = code[b]
            if op in _BINDERS:
                own, outer = ins[_BINDERS[op]:], spanned(scope[b])
                around.update((k, outer + own[:p + 1]) for p, k in enumerate(own))
        spans = [spanned(sc) for sc in scope]
        wide = [not (u and s) for u, s in zip(uniform, spans)]  # batch wide, or one bit

        def carriers(letters: tuple[int, ...]) -> tuple[str, ...]:
            return tuple(code[k][2][0] for k in letters)

        def widening(k: int, to: tuple[int, ...], to_wide: bool):
            """How input k is widened to a reader's span and unit: (+1 to
            stretch it from one bit to the batch, -1 to narrow it to one
            bit, its span's carriers, the carriers to repeat it over, the
            reader's unit), or None as it is."""
            if wide[k] == to_wide and len(spans[k]) == len(to):
                return None
            return to_wide - wide[k], carriers(spans[k]), carriers(to[len(spans[k]):]), to_wide

        for i, (op, ins, dims) in enumerate(code):
            to, to_wide = spans[i], wide[i]
            if op in _BINDERS:  # its inputs span its own letters too, at its unit
                ins, own = ins[:_BINDERS[op]], ins[_BINDERS[op]:]
                to, to_wide = around[own[-1]], not uniform[i]
                self._folds[i] = carriers(own), to_wide
            reads = () if op == "var" or op in _POOLS else tuple(widening(k, to, to_wide) for k in ins)
            span = (carriers(spans[i]), wide[i]) if spans[i] else None
            self._steps[i] = (op, ins, dims, span, reads if any(reads) or op in _BINDERS else None)
        self._widest = tuple({carriers(around[code[b][1][-1]]) for b in self._folds})

    def __repr__(self) -> str:
        return f"Formula({self.statement!r}, letters={self.letters!r})"

    def __call__(self, args, carriers) -> bool:
        """The statement's truth on one instance of Relations over Carriers:
        failures on a batch of one."""
        planes = [fixed_planes(r.code, r.src.size * r.dst.size, 1) for r in args]
        return not self.failures(planes, {tv: c.size for tv, c in carriers.items()}, 1)

    def failures(self, planes: Sequence[list[int]], sizes: dict, full: int) -> int:
        """The plane of the instances of a batch on which the statement fails.
        sizes gives each type variable's carrier: its size, the same on
        every instance, or its element masks, one plane per element with
        the bit of each instance whose carrier holds it (see the module
        docstring). A statement with binders takes sizes alone."""
        carriers = {}
        for tv, n in sizes.items():
            if isinstance(n, int):
                carriers[tv] = [full] * n
            elif self._folds:
                raise ValueError(f"{self.statement!r} binds letters, so its carriers are one size per batch")
            else:
                carriers[tv] = n
        bits = full.bit_length()
        spans: dict[tuple, tuple] = {}  # a span's mask and carriers
        vals: list = [None] * len(self._steps)
        widened: dict[tuple, object] = {}  # an input as read, once for its readers

        def read(k: int, how) -> object:
            if how is None:
                return vals[k]
            if (k, how) not in widened:
                widened[k, how] = _widen(vals[k], how, sizes, full)
            return widened[k, how]

        for i, (op, ins, dims, span, reads) in enumerate(self._steps):
            if span is None and reads is None:  # a variable, or an operation on the batch alone
                if op == "var":
                    vals[i] = planes[ins[0]]
                else:
                    vals[i] = _SLICED[op](full, [carriers[tv] for tv in dims], *[vals[k] for k in ins])
                continue
            tvs, wide = span or ((), True)
            if op in _POOLS:  # held for every combination of the letters before it
                vals[i] = _letter_planes(op, sizes[dims[0]], _count(sizes, tvs[:-1]))
                continue
            args = [vals[k] for k in ins] if reads is None else [read(k, how) for k, how in zip(ins, reads)]
            if op in _BINDERS:  # it folds its own letters, the slowest combinations of its inputs
                own, unit = self._folds[i]
                period, count = (bits if unit else 1) * _count(sizes, tvs), _count(sizes, own)
                if op == "⋃":  # the term's planes masked with the guard's plane
                    out = [_fold(v & args[1], period, count, False) for v in args[0]]
                else:
                    out = _fold(args[0], period, count, op == "∀")
                vals[i] = out if unit == wide else _widen(out, (1, (), (), True), sizes, full)
                continue
            spanned = spans.get(span)  # an operation off the fast path has a span
            if spanned is None:  # every carrier whole on each bit of the span
                mask = (1 << (bits if wide else 1) * _count(sizes, tvs)) - 1
                spanned = spans[span] = mask, {tv: [mask] * n for tv, n in sizes.items()}
            vals[i] = _SLICED[op](spanned[0], [spanned[1][tv] for tv in dims], *args)
        return full & ~vals[-1]

    @property
    def binders(self) -> bool:
        """Whether the statement binds letters, so that its planes span
        member combinations, which depend on the carriers' sizes."""
        return bool(self._folds)

    def combinations(self, sizes: dict[str, int]) -> int:
        """The most member combinations a plane of the statement spans, so
        its widest planes are this many times the batch's width."""
        if not self._widest:
            return 1
        return max(_count(sizes, tvs) for tvs in self._widest)

    def runs(self, sizes: dict[str, int]) -> dict[tuple[int, int, bool], int]:
        """How often the evaluator runs a sliced operation on one batch, by
        the operation's carrier-size product, the member combinations its
        planes span and whether they are batch wide: each runs once per
        batch, on planes of that many bits, times the batch's width when
        batch wide (see the module docstring)."""
        out: dict[tuple[int, int, bool], int] = {}
        # the products are taken inline: run_law asks this of most size tuples
        for (dims, tvs, wide), count in self._plan:
            p = c = 1
            for tv in dims:
                p *= sizes[tv]
            for tv in tvs:
                c *= sizes[tv]
            out[p, c, wide] = out.get((p, c, wide), 0) + count
        return out


# -- parsing ----------------------------------------------------------------------


class _Node:
    """A parsed subterm or subformula. A term's src and dst are type slots,
    and dims the slots whose sizes its sliced operation needs, or, for a
    comparison or a lattice operation of terms, the carriers of its terms,
    which price it (Formula.runs). A variable's index is its position and a
    bound letter's a number of its own; a binder's letters are the nodes of
    the letters it binds."""

    __slots__ = ("op", "kids", "col", "src", "dst", "dims", "index", "letters")

    def __init__(self, op, kids, col, src=None, dst=None, dims=(), index=None, letters=()):
        self.op, self.kids, self.col, self.src, self.dst = op, kids, col, src, dst
        self.dims, self.index, self.letters = dims, index, letters


def parse(statement: str, vars: Sequence, letters: str, law_id: str = "",
          extra_tvs: Sequence[str] = ()) -> Formula:
    """Parse a statement whose letters name `vars` in order (each has .kind,
    .src and .dst), over the type variables of the vars and `extra_tvs`;
    raise ValueError naming the law and column if it fails."""
    return _Parser(statement, vars, letters, law_id, extra_tvs).run()


class _Parser:
    def __init__(self, statement: str, vars: Sequence, letters: str, law_id: str, extra_tvs: Sequence[str]):
        self.law_id = law_id
        if len(letters) != len(vars) or len(set(letters)) != len(letters) or not all(map(str.isalpha, letters)):
            raise ValueError(f"law {law_id!r}: letters {letters!r} must name its {len(vars)} "
                             "variables, one distinct letter each")
        self.statement, self.vars, self.letters = statement, vars, letters
        # the carriers a statement may name, each its own slot
        self.carriers = {tv: tv for tv in [tv for v in vars for tv in (v.src, v.dst)] + list(extra_tvs)}
        self.tokens = _tokens(statement, self.fail)
        self.pos = 0
        self.links: dict = {}  # union-find over type slots: carrier names and fresh ints
        self.fresh = 0
        self.bound: dict[str, _Node] = {}  # the where clause's letters bound so far
        self.heads: set[str] = set()  # and every letter it binds
        self.scope: dict[str, _Node] = {}  # the letters of the binders around the current token

    def fail(self, col: int, message: str):
        raise ValueError(f"law {self.law_id!r}: column {col}: {message} in {self.statement!r}")

    def shown(self, tok: str, col: int) -> str:
        if tok == "end":
            return "the end of the statement"
        return repr(self.statement[col - 1] if tok == "letter" else tok)

    # -- tokens ---------------------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> tuple[str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> int:
        tok, col = self.take()
        if tok != kind:
            self.fail(col, f"expected {kind!r}, got {self.shown(tok, col)}")
        return col

    # -- carriers ---------------------------------------------------------------

    def find(self, slot):
        while slot in self.links:
            slot = self.links[slot]
        return slot

    def unify(self, a, b, col: int, op: str) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if isinstance(a, str) and isinstance(b, str):
            self.fail(col, f"carrier mismatch: {op} joins carrier {a} with carrier {b}")
        if isinstance(a, str):
            a, b = b, a
        self.links[a] = b

    def new_slot(self) -> int:
        self.fresh += 1
        return self.fresh

    # -- grammar ----------------------------------------------------------------

    def run(self) -> Formula:
        # the where clause first, so that the formula before it sees its letters
        kinds = [tok for tok, _ in self.tokens]
        last = kinds.index("where") if "where" in kinds else len(kinds) - 1
        if kinds[last] == "where":
            self.pos = last + 1
            self.bindings()
            self.pos = 0
        root = self.formula()
        if self.peek() == "for":
            self.qualifier()
        tok, col = self.take()
        if self.pos - 1 != last:  # the formula ends at the where clause or at the end
            self.fail(col, f"unexpected {self.shown(tok, col)}")
        return Formula(self.statement, self.letters, self.compile(root))

    def bindings(self) -> None:
        # every letter that starts the clause or follows a "," outside
        # parentheses, and is followed by "=", is bound here: a term holds an
        # "=" only in a union's guard, which ends at such a ","
        heads, depth = self.heads, 0
        for at in range(self.pos - 1, len(self.tokens) - 2):
            tok, (head, col), nxt = self.tokens[at][0], self.tokens[at + 1], self.tokens[at + 2][0]
            depth += (tok == "(") - (tok == ")")
            if tok in ("where", ",") and depth == 0 and head == "letter" and nxt == "=":
                heads.add(self.statement[col - 1])
        while True:
            tok, col = self.take()
            if tok != "letter":
                self.fail(col, f"expected a binding such as 'J = index R', got {self.shown(tok, col)}")
            letter = self.statement[col - 1]
            if letter in self.letters:
                self.fail(col, f"{letter!r} is a variable; a where clause binds new letters")
            if letter in self.bound:
                self.fail(col, f"{letter!r} is bound twice")
            self.expect("=")
            self.bound[letter] = self.term()
            if self.peek() != ",":
                break
            self.take()
        tok, col = self.take()
        if tok != "end":
            self.fail(col, f"unexpected {self.shown(tok, col)}")

    def qualifier(self) -> None:
        self.take()
        word, col = self.take()
        kind = KIND_WORDS.get(word)
        if kind is None:
            self.fail(col, f"expected a kind such as 'pers' after 'for', got {self.shown(word, col)}")
        named = []
        while self.peek() == "letter":
            col = self.take()[1]
            named.append((self.vars[self.var_index(col)], col))
        for var, at in named or [(v, col) for v in self.vars]:
            if var.kind != kind:
                self.fail(at, f"'for {word}' but the variable is a {var.kind}")

    def var_index(self, col: int) -> int:
        letter = self.statement[col - 1]
        if letter in self.heads:
            self.fail(col, f"{letter!r} is used before its binding")
        if letter not in self.letters:
            self.fail(col, f"unknown letter {letter!r}; the variables are {', '.join(self.letters)}")
        return self.letters.index(letter)

    def formula(self) -> _Node:
        return self.joined(self.implication, ",", "and")

    def implication(self) -> _Node:
        node = self.disjunction()
        if self.peek() == "⇒":
            col = self.take()[1]
            node = _Node("⇒", (node, self.implication()), col)
        return node

    def disjunction(self) -> _Node:
        return self.joined(self.conjunction, "or", "or")

    def conjunction(self) -> _Node:
        return self.joined(self.equivalence, "and", "and")

    def joined(self, operand, word: str, op: str) -> _Node:
        """operand (word operand)*, grouped to the left."""
        node = operand()
        while self.peek() == word:
            col = self.take()[1]
            node = _Node(op, (node, operand()), col)
        return node

    def equivalence(self) -> _Node:
        return self.chain(self.comparison, ("≡",))

    def comparison(self) -> _Node:
        if self.peek() in _DEFINITIONS:
            word, col = self.take()
            node = self.term()
            if word in _HOMOGENEOUS:  # here, so that a mismatch names the word
                self.unify(node.src, node.dst, col, word)
            return self.defined(word, node)
        if self.peek() in ("∀", "∃"):
            op, col = self.take()
            named = self.binders()
            body = self.implication()
            return _Node(op, (body,), col, letters=self.release(named))
        if self.peek() == "(" and self.formula_group():
            self.take()
            node = self.formula()
            self.expect(")")
            return node
        node = self.chain(self.term, _COMPARISONS)
        if node.src is not None:  # a term, compared with nothing
            tok, col = self.take()
            self.fail(col, f"expected one of ⊆ = ≠ after a term, got {self.shown(tok, col)}")
        return node

    def formula_group(self, start: int | None = None) -> bool:
        """Whether the parenthesis at the current token (or at start) opens a
        formula: it closes, and a comparison, connective, predicate word,
        quantifier or formula group stands at its depth before any union,
        whose guard is a formula inside a term. An unclosed one is a term,
        which reports the missing ')'."""
        start = self.pos if start is None else start
        depth, formula, union = 0, False, False
        for at in range(start, len(self.tokens)):
            tok = self.tokens[at][0]
            if depth == 1 and not (formula or union):
                union = tok == "⋃"
                formula = tok in _FORMULA_TOKENS or tok == "(" and self.formula_group(at)
            depth += (tok == "(") - (tok == ")")
            if depth == 0:
                return formula
        return False

    def binders(self) -> dict[str, _Node]:
        """LETTER ":" POOL CARRIER ("," ...)* "." — puts fresh letters in
        scope, each a leaf over its pool, until release."""
        named: dict[str, _Node] = {}
        while True:
            tok, col = self.take()
            if tok != "letter":
                self.fail(col, f"expected a bound letter such as 'a:point A', got {self.shown(tok, col)}")
            letter = self.statement[col - 1]
            if letter in self.letters or letter in self.heads or letter in self.scope or letter in named:
                self.fail(col, f"{letter!r} is already bound; a binder binds new letters")
            self.expect(":")
            pool, at = self.take()
            if pool not in _POOLS:
                self.fail(at, f"expected a pool ({', '.join(_POOLS)}) after ':', got {self.shown(pool, at)}")
            tok, at = self.take()
            name = self.statement[at - 1] if tok == "letter" else None
            if name not in self.carriers:
                self.fail(at, f"expected a carrier of the law ({', '.join(self.carriers)}) after "
                              f"{pool!r}, got {self.shown(tok, at)}")
            slot = self.carriers[name]
            named[letter] = _Node(pool, (), col, slot, slot, (slot,), index=self.new_slot())
            if self.peek() != ",":
                break
            self.take()
        self.expect(".")
        self.scope.update(named)
        return named

    def release(self, named: dict[str, _Node]) -> tuple[_Node, ...]:
        """Take a binder's letters out of scope; their nodes, in order."""
        for letter in named:
            del self.scope[letter]
        return tuple(named.values())

    def defined(self, word: str, x: _Node) -> _Node:
        """A predicate word applied to the term x: its definition, parsed with
        X standing for x and A and B for x's carriers, and in a scope of its
        own, so that no letter of the statement clashes with the
        definition's. Its slots are the statement's: one union-find, one count."""
        sub = copy(self)
        sub.statement, sub.pos = _DEFINITIONS[word], 0
        sub.tokens = _tokens(sub.statement, sub.fail)
        sub.letters, sub.bound, sub.heads, sub.scope = "", {"X": x}, set(), {}
        sub.carriers = {"A": x.src, "B": x.dst}
        node = sub.formula()
        self.fresh = sub.fresh
        return node

    def chain(self, operand, ops) -> _Node:
        """operand (op operand)*, meaning each adjacent pair is related."""
        left, links = operand(), []
        while self.peek() in ops:
            op, col = self.take()
            right = operand()
            dims = ()
            if right.src is not None:  # terms, not formulas
                self.same_type(left, right, col, op)
                dims = (left.src, left.dst)
            links.append(_Node(op, (left, right), col, dims=dims))
            left = right
        return reduce(lambda a, b: _Node("and", (a, b), b.col), links) if links else left

    def term(self) -> _Node:
        return self.lattice(self.meet, "∪")

    def meet(self) -> _Node:
        return self.lattice(self.product, "∩")

    def lattice(self, operand, op: str) -> _Node:
        node = operand()
        while self.peek() == op:
            col = self.take()[1]
            right = operand()
            self.same_type(node, right, col, op)
            node = _Node(op, (node, right), col, node.src, node.dst, (node.src, node.dst))
        return node

    def same_type(self, left: _Node, right: _Node, col: int, op: str) -> None:
        self.unify(left.src, right.src, col, op)
        self.unify(left.dst, right.dst, col, op)

    def product(self) -> _Node:
        node = self.unary()
        while self.peek() in _PRODUCTS:
            op, col = self.take()
            r, s = node, self.unary()
            if op == "∘":
                self.unify(r.dst, s.src, col, op)
                node = _Node(op, (r, s), col, r.src, s.dst, (r.src, r.dst, s.dst))
            elif op in ("\\", "\\\\"):  # R : A~B, S : A~C give B~C
                self.unify(r.src, s.src, col, op)
                node = _Node(op, (r, s), col, r.dst, s.dst, (r.src, r.dst, s.dst))
            else:  # R : A~C, S : B~C give A~B
                self.unify(r.dst, s.dst, col, op)
                node = _Node(op, (r, s), col, r.src, s.src, (r.src, s.src, r.dst))
        return node

    def unary(self) -> _Node:
        if self.peek() in ("¬", "index"):
            op, col = self.take()
            inner = self.unary()
            return _Node(op, (inner,), col, inner.src, inner.dst, (inner.src, inner.dst))
        return self.postfix()

    def postfix(self) -> _Node:
        node = self.primary()
        while self.peek() in _POSTFIX:
            op, col = self.take()
            src, dst = {"°": (node.dst, node.src), "<": (node.src, node.src), "≺": (node.src, node.src),
                        ">": (node.dst, node.dst), "≻": (node.dst, node.dst)}[op]
            node = _Node(op, (node,), col, src, dst, (node.src, node.dst))
        return node

    def primary(self) -> _Node:
        tok, col = self.take()
        if tok == "letter":
            if self.statement[col - 1] in self.scope:
                return self.scope[self.statement[col - 1]]
            if self.statement[col - 1] in self.bound:
                return self.bound[self.statement[col - 1]]
            index = self.var_index(col)
            var = self.vars[index]
            return _Node("var", (), col, var.src, var.dst, index=index)
        if tok in _CONSTANTS:
            slots = (self.new_slot(),) if tok == "𝕀" else (self.new_slot(), self.new_slot())
            if self.peek() == "[":
                self.carriers_named(tok, slots)
            return _Node(tok, (), col, slots[0], slots[-1], slots)
        if tok == "(":
            node = self.term()
            self.expect(")")
            return node
        if tok == "⋃":
            named = self.binders()
            body = self.term()
            self.expect("if")
            guard = self.conjunction()
            return _Node("⋃", (body, guard), col, body.src, body.dst, (body.src, body.dst),
                         letters=self.release(named))
        self.fail(col, f"expected a term, got {self.shown(tok, col)}")

    def carriers_named(self, const: str, slots) -> None:
        """The bracketed carrier names of a constant, one per slot."""
        self.take()
        for k, slot in enumerate(slots):
            if k:
                self.expect(",")
            tok, col = self.take()
            name = self.statement[col - 1] if tok == "letter" else None
            if name not in self.carriers:
                self.fail(col, f"expected a carrier of the law ({', '.join(self.carriers)}) in the "
                               f"brackets of {const}, got {self.shown(tok, col)}")
            self.unify(slot, self.carriers[name], col, const)
        self.expect("]")

    # -- instructions -------------------------------------------------------------

    def compile(self, root: _Node) -> list[tuple[str, tuple, tuple]]:
        """Instructions in evaluation order, each (op, input indices, carrier
        names of its dims); the last one is the statement's truth."""
        code: list[tuple[str, tuple, tuple]] = []
        seen: dict[tuple, int] = {}

        def carrier(slot, node: _Node) -> str:
            name = self.find(slot)
            if not isinstance(name, str):
                self.fail(node.col, f"the carriers of {node.op} are not fixed by the variables")
            return name

        def emit(node: _Node) -> int:
            if node.index is not None:  # a variable or a bound letter
                ins = (node.index,)
            else:
                ins = tuple(emit(kid) for kid in node.kids + node.letters)
            key = (node.op, ins, tuple(carrier(slot, node) for slot in node.dims))
            if key not in seen:
                seen[key] = len(code)
                code.append(key)
            return seen[key]

        emit(root)
        return code


def _tokens(text: str, fail) -> list[tuple[str, int]]:
    """(kind, column) pairs; words are 'letter' or the keywords, then 'end'."""
    out = []
    for m in _TOKEN.finditer(text):
        sym, word, other = m.groups()
        col = m.start() + 1
        if sym:
            out.append((sym, col))
        elif word in ("and", "or", "for", "where", "index", "if") or word in KIND_WORDS or word in _DEFINITIONS:
            out.append((word, col))
        elif word and len(word) == 1:
            out.append(("letter", col))
        elif word:
            fail(col, f"unknown word {word!r}")
        else:
            fail(col, f"unknown symbol {other!r}")
    out.append(("end", len(text) + 1))
    return out


# -- the evaluator ---------------------------------------------------------------------
#
# A matrix value is a list of planes in code order (cell (i, j) of an n×k value
# at index i*k + j); a truth value is one plane. Every operation takes the
# batch mask and its instruction's carriers first, each a list of element
# masks (see the module docstring), whose length is the carrier's size.


def _any(planes) -> int:
    return reduce(or_, planes, 0)


def _top(a, b) -> list[int]:
    """The cells of an a×b value: cell (i, j) on the instances whose carriers
    hold both elements."""
    return [x & y for x in a for y in b]


def _compose(full, d, x, y):
    n, m, p = map(len, d)
    if not m:  # through an empty carrier nothing is related
        return [0] * (n * p)
    out = []
    for i in range(0, n * m, m):
        row = x[i:i + m]
        for j in range(p):
            acc = 0
            for a, b in zip(row, y[j::p]):
                acc |= a & b
            out.append(acc)
    return out


def _converse(full, d, x):
    k = len(d[1])
    return [v for j in range(k) for v in x[j::k]]


def _complement(full, d, x):
    return list(map(xor, _top(*d), x))


def _diagonal(n: int, cells) -> list[int]:
    out = [0] * (n * n)
    out[::n + 1] = cells
    return out


def _same_rows(full, d, x, y):
    """Cell (a, b) is set where row a of x (n×k) equals row b of y (m×k),
    for carriers d of sizes (n, m, k). Cells outside both rows' carriers
    are 0, and so compare equal."""
    top, k = _top(d[0], d[1]), len(d[2])
    if not k:  # rows of no cells are all equal
        return top
    xs = [x[i:i + k] for i in range(0, len(x), k)]
    ys = [y[i:i + k] for i in range(0, len(y), k)]
    return [cell & ~_any(map(xor, r, s)) for cell, (r, s) in zip(top, product(xs, ys))]


def _subset(full, d, x, y):
    # a cell empty in x cannot fail, and a spread constant is mostly empty
    return full & ~_any(a & ~b for a, b in zip(x, y) if a)


def _equal(full, d, x, y):
    return full & ~_any(map(xor, x, y))


def _ldom(full, d, x):
    n, k = map(len, d)
    if not k:  # rows of no cells are all empty
        return [0] * (n * n)
    return _diagonal(n, [_any(x[i:i + k]) for i in range(0, n * k, k)])


def _per_ldom(full, d, x):
    n, k = map(len, d)
    if not k:
        return [0] * (n * n)
    nonempty = [_any(x[i:i + k]) for i in range(0, n * k, k)]
    same = _same_rows(full, (d[0], d[0], d[1]), x, x)
    return [same[c] & nonempty[c // n] for c in range(n * n)]


def _index(full, d, x):
    """Cell (i, j) of X where i is the least member of its X≺-class and j of
    its X≻-class: Jl(i) = L[i,i] ∧ ¬⋁_{h<i} L[h,i] with L = X≺, and Jr
    likewise over X≻."""
    def least(per, m):
        return [per[i * m + i] & ~_any(per[i:i * m:m]) for i in range(m)]

    n, k = map(len, d)
    left, right = least(_per_ldom(full, d, x), n), least(_per_ldom(full, d[::-1], _converse(full, d, x)), k)
    return [left[i] & x[i * k + j] & right[j] for i in range(n) for j in range(k)]


def _left_residual(full, d, r, s):  # R\S = ¬(R°∘¬S)
    a, b, c = d
    return _complement(full, (b, c), _compose(full, (b, a, c), _converse(full, (a, b), r),
                                              _complement(full, (a, c), s)))


def _right_residual(full, d, r, s):  # R/S = ¬(¬R∘S°)
    a, b, c = d
    return _complement(full, (a, b), _compose(full, (a, c, b), _complement(full, (a, c), r),
                                              _converse(full, (b, c), s)))


_SLICED = {
    "⊥": lambda full, d: [0] * (len(d[0]) * len(d[1])),
    "⊤": lambda full, d: _top(*d),
    "𝕀": lambda full, d: _diagonal(len(d[0]), d[0]),
    "∘": _compose,
    "°": _converse,
    "¬": _complement,
    "∩": lambda full, d, x, y: list(map(and_, x, y)),
    "∪": lambda full, d, x, y: list(map(or_, x, y)),
    "<": _ldom,
    ">": lambda full, d, x: _diagonal(len(d[1]), [_any(x[j::len(d[1])]) for j in range(len(d[1]))]),
    "≺": _per_ldom,
    "≻": lambda full, d, x: _per_ldom(full, d[::-1], _converse(full, d, x)),
    "\\": _left_residual,
    "/": _right_residual,
    # columns (rows) of R and S that agree
    "\\\\": lambda full, d, r, s: _same_rows(full, (d[1], d[2], d[0]), _converse(full, d[:2], r),
                                              _converse(full, d[::2], s)),
    "//": _same_rows,
    "⊆": _subset,
    "=": _equal,
    "≠": lambda full, d, x, y: _any(map(xor, x, y)),
    "≡": lambda full, d, a, b: full & ~(a ^ b),
    "⇒": lambda full, d, a, b: full & ~(a & ~b),
    "and": lambda full, d, a, b: a & b,
    "or": lambda full, d, a, b: a | b,
    "index": _index,
}


# -- planes of the arguments ----------------------------------------------------------


def _repeat(value: int, period: int, count: int) -> int:
    """count copies of value, period bits apart, from bit 0: built by
    doubling a block of them, in shifts and ORs of whole words rather than
    a product or a string of bits."""
    out, block, width = 0, value, period  # block holds width // period copies
    while count:
        if count & 1:
            out = out << width | block
        count >>= 1
        if count:
            block |= block << width
            width *= 2
    return out


@lru_cache(maxsize=256)
def _repunit(period: int, count: int) -> int:
    """count ones, period bits apart, from bit 0."""
    return _repeat(1, period, count)


def range_planes(cells: int, stride: int, bits: int) -> list[int]:
    """Planes of the pool range(1 << cells) over a batch of `bits` instances,
    each code held for `stride` consecutive instances and the pool repeated
    to fill the batch. Bit c of the codes runs in blocks of stride·2^c zeros
    then ones, so each plane is one such block times a repunit."""
    out = []
    for c in range(cells):
        h = stride << c
        rep = _repunit(2 * h, bits // (2 * h))
        out.append(((rep << h) - rep) << h)
    return out


def code_planes(codes: Sequence[int], cells: int, stride: int = 1, reps: int = 1) -> list[int]:
    """Planes of a sequence of codes, each held for `stride` consecutive
    instances, the whole sequence repeated `reps` times: the transpose of
    the codes' bit matrix."""
    fmt = f"0{cells}b"
    # most significant first: the last code's bits lead, as the planes' do
    text = "".join([format(code, fmt) for code in reversed(codes)])
    cols = [text[cells - 1 - c::cells] for c in range(cells)]
    if stride > 1:
        widen = {48: "0" * stride, 49: "1" * stride}
        cols = [col.translate(widen) for col in cols]
    planes = [int(col, 2) for col in cols]
    if reps > 1:  # the repeats are doubled planes, not a longer string
        planes = [_repeat(plane, len(codes) * stride, reps) for plane in planes]
    return planes


def fixed_planes(code: int, cells: int, full: int) -> list[int]:
    """Planes of one code held for the whole batch."""
    return [full if code >> c & 1 else 0 for c in range(cells)]


# -- binders: planes over member combinations (see the module docstring) ----------------


@lru_cache(maxsize=64)
def _letter_planes(pool: str, n: int, stride: int) -> tuple[int, ...]:
    """Planes of a bound letter over its pool's members on a carrier of n
    elements, each member held for `stride` consecutive combinations."""
    return tuple(code_planes(_POOLS[pool](n), n * n, stride))


def _count(sizes: dict[str, int], tvs: tuple[str, ...]) -> int:
    """The member combinations of letters over carriers tvs."""
    return prod(map(sizes.__getitem__, tvs))


def _widen(value, how: tuple, sizes: dict[str, int], full: int):
    """A value on a reader's wider span and unit, as widening(...) in
    Formula._span_binders says how: each bit of a one-bit value stretched to a
    run as wide as the batch of mask full, or a batch-wide one with no
    letters narrowed to one bit; then repeated over the reader's further
    letters, which are slower than its own."""
    change, tvs, more, wide = how
    period, times = (full.bit_length() if wide else 1) * _count(sizes, tvs), _count(sizes, more)

    def each(v: int) -> int:
        if change > 0:  # a value on letters alone has few set bits
            v, bits = 0, v
            while bits:
                low = bits & -bits
                v |= full << (low.bit_length() - 1) * full.bit_length()
                bits ^= low
        elif change:
            v &= 1
        return _repeat(v, period, times)

    return each(value) if isinstance(value, int) else [each(v) for v in value]


def _fold(value: int, period: int, count: int, every: bool) -> int:
    """The AND (every) or the OR of count blocks of period bits, by halving:
    the top half of the blocks onto the bottom half. No blocks give all
    ones, or none."""
    if not count:
        return (1 << period) - 1 if every else 0
    while count > 1:
        half = count // 2
        keep = (count - half) * period
        top = value >> keep
        if every:  # the middle block, of an odd count, meets nothing
            value &= top | ((1 << keep) - (1 << half * period))
        else:
            value = (value & ((1 << keep) - 1)) | top
        count -= half
    return value

