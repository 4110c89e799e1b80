"""Definite Horn formulas: interned variables, clauses, parsing, normal form,
and the forward-chaining engine everything else is built on.

Bodies and variable sets are bitmasks over dense variable ids, so subset,
union and containment tests are single machine operations.  Variable names
appear only at the edges: `Universe` interns them, parsing reads them and
rendering writes them by the tokenizer's rule (`_reads_alone`).
Everything else, forward chaining and body analysis included, takes and
returns masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence


class ParseError(ValueError):
    """Malformed formula text; carries the offending item and position."""

    def __init__(self, message: str, item: Optional[str] = None,
                 position: Optional[int] = None):
        self.item = item
        self.position = position
        where = ""
        if item is not None:
            where = f" in {item!r}"
            if position is not None:
                where += f" at position {position}"
        super().__init__(message + where)


class Clause(NamedTuple):
    """One definite Horn clause: body bitmask -> head variable id."""

    head: int
    body: int

    def is_tautology(self) -> bool:
        return bool(self.body >> self.head & 1)


def bit_ids(mask: int) -> tuple[int, ...]:
    """Ascending variable ids set in a mask."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


def clause_key(clause: Clause) -> tuple:
    """Canonical clause order: head id, then body as an id sequence."""
    return (clause.head, bit_ids(clause.body))


class Universe:
    """Interned variable names; name <-> dense id is a bijection.

    Names are sorted, so ids are stable for a given name set regardless of
    the order variables were first seen.
    """

    __slots__ = ("names", "_ids")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(sorted(set(names)))
        self._ids = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, Universe) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __repr__(self) -> str:
        return f"Universe({list(self.names)!r})"

    def id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= 1 << self.id(name)
        return m

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.names[i] for i in bit_ids(mask))

    def body_text(self, mask: int) -> str:
        """The names of a mask, in a text that parses back to them
        (`parse_variables`): joined without commas only when every name of
        the universe is one lowercase letter, else with commas, and a lone
        name that does not read alone (`_reads_alone`), such as `foo`, with
        a comma after it (`foo,`)."""
        names = [self.names[i] for i in bit_ids(mask)]
        if all(map(_is_letter, self.names)):
            return "".join(names)
        if len(names) == 1 and not _reads_alone(names[0]):
            return names[0] + ","
        return ",".join(names)

    def clause_text(self, clause: Clause) -> str:
        """`body->head` with the body from `body_text`, or `body,->head`
        when that text has no comma and the head does not read alone."""
        body = self.body_text(clause.body)
        head = self.names[clause.head]
        if "," not in body and not _reads_alone(head):
            return body + ",->" + head
        return body + "->" + head


@dataclass(frozen=True)
class Formula:
    """Duplicate-free collection of clauses over a fixed universe.

    Clauses are stored in canonical order.  Tautologies are permitted until
    `normalize` removes them; `parse_formula` never produces any.
    """

    universe: Universe
    clauses: tuple[Clause, ...]

    def __init__(self, universe: Universe, clauses: Iterable[Clause]):
        ordered = tuple(sorted(set(clauses), key=clause_key))
        full = (1 << len(universe)) - 1
        for c in ordered:
            if c.body & ~full or not 0 <= c.head < len(universe):
                raise ValueError(f"clause {c} outside universe {universe}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "clauses", ordered)

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"Formula({' '.join(self.clause_texts()) or 'empty'})"

    def clause_texts(self) -> list[str]:
        return [self.universe.clause_text(c) for c in self.clauses]

    def body_masks(self) -> tuple[int, ...]:
        """Distinct clause bodies, canonical order."""
        return tuple(sorted({c.body for c in self.clauses}, key=bit_ids))


def is_single_head(f: Formula) -> bool:
    """True when no variable heads more than one clause."""
    heads = [c.head for c in f.clauses]
    return len(heads) == len(set(heads))


# ---------------------------------------------------------------------------
# parsing

_ARROW = "->"
_NAME_MARKS = frozenset("0123456789_")


def _is_letter(text: str) -> bool:
    """`text` is one lowercase letter."""
    return len(text) == 1 and text.isalpha() and text.islower()


def _reads_alone(name: str) -> bool:
    """A comma-free side holding only `name` reads as that one name: the
    name is one lowercase letter or holds a digit or `_` (`_NAME_MARKS`)."""
    return _is_letter(name) or not _NAME_MARKS.isdisjoint(name)


def _tokenize_side(text: str, item: str, offset: int,
                   comma_mode: bool) -> list[str]:
    """Split one side of an item into variable names.

    With `comma_mode`, set when the item holds a comma anywhere, the side
    is comma-separated multi-character names; so is a side holding a digit
    `0`-`9` or `_`, which without commas is one name.  Any other side is
    single lowercase letters.
    """
    if comma_mode or not _NAME_MARKS.isdisjoint(text):
        names = []
        pos = offset
        for piece in text.split(","):
            name = piece.strip()
            if name:
                if not name.replace("_", "a").isalnum() or name[0].isdigit():
                    raise ParseError(f"bad variable name {name!r}", item, pos)
                names.append(name)
            pos += len(piece) + 1
        return names
    names = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if not _is_letter(ch):
            raise ParseError(f"bad variable letter {ch!r}", item, offset + i)
        names.append(ch)
    return names


def _expand_item(item: str) -> tuple[list[str], list[tuple[list[str], str]]]:
    """Turn one text item into (occurring names, [(body names, head name)])."""
    op = _ARROW if _ARROW in item else "=" if "=" in item else None
    if op is None:
        raise ParseError("expected '->' or '='", item, len(item))
    left, _, right = item.partition(op)
    start = len(left) + len(op)
    if op in right:
        raise ParseError(f"more than one {op!r}", item,
                         start + right.index(op))
    comma_mode = "," in item
    xs = _tokenize_side(left, item, 0, comma_mode)
    ys = _tokenize_side(right, item, start, comma_mode)
    if op == _ARROW:
        if not ys:
            raise ParseError("empty head list", item, start)
        return xs + ys, [(xs, y) for y in ys]
    if not xs and not ys:
        raise ParseError("no variable on either side of '='", item,
                         len(left))
    pairs = [(xs, y) for y in ys if y not in xs]
    pairs += [(ys, x) for x in xs if x not in ys]
    return xs + ys, pairs


def parse_formula(items: Sequence[str],
                  universe: Optional[Universe] = None) -> Formula:
    """Parse text items like ``ab->cd`` or ``df=gh`` into a formula.

    ``X->Y`` gives one clause X->y per head y; ``X=Y`` gives the clauses
    making X and Y equivalent (X->y for y in Y\\X and Y->x for x in X\\Y).
    Tautologies arising from the expansion are dropped and duplicates are
    merged.  The universe is the set of occurring variables unless one is
    passed explicitly (extra declared-but-unused variables are then kept).
    """
    seen: list[str] = []
    raw: list[tuple[list[str], str]] = []
    for item in items:
        names, pairs = _expand_item(item)
        seen.extend(names)
        raw.extend(pairs)
    if universe is None:
        universe = Universe(seen)
    else:
        for name in seen:
            if name not in universe:
                raise ParseError(f"variable {name!r} not in declared universe")
    clauses = set()
    for body_names, head_name in raw:
        head = universe.id(head_name)
        body = universe.mask(body_names)
        if not body >> head & 1:
            clauses.add(Clause(head, body))
    return Formula(universe, clauses)


def parse_variables(text: str) -> list[str]:
    """Parse a standalone variable list (same tokenization as bodies)."""
    return _tokenize_side(text, text, 0, "," in text)


def normalize(f: Formula) -> Formula:
    """Drop tautological clauses and merge duplicates; idempotent."""
    return Formula(f.universe, (c for c in f.clauses if not c.is_tautology()))


# ---------------------------------------------------------------------------
# forward chaining

def propagate(clauses: Sequence[tuple[int, int]],
              seed: int) -> tuple[int, int]:
    """Forward chaining from a seed set of variables.

    `clauses` are `(head, body)` pairs, `Clause` tuples or plain ones.
    Each sweep over the clauses not yet fired fires those whose body lies
    inside the closure, adding their heads; chaining stops when a sweep
    adds nothing, so that sweep saw the final closure, and the fired
    clauses are exactly those whose body lies inside it.  Returns the
    closure mask and the mask of their heads.  Every sweep but the last
    adds a variable: at most |closure - seed| + 1 sweeps.
    """
    closure = seed
    fired_heads = 0
    pending = clauses
    while pending:
        before = closure
        rest = []
        for clause in pending:
            if clause[1] & ~closure:
                rest.append(clause)
            else:
                bit = 1 << clause[0]
                closure |= bit
                fired_heads |= bit
        if closure == before:
            break
        pending = rest
    return closure, fired_heads


# ---------------------------------------------------------------------------
# per-body analysis

@dataclass(frozen=True)
class BodyAnalysis:
    """What one forward-chaining pass from a body yields.

    `bcn_mask` is the closure, `rcn_mask` the heads of clauses that fired
    (variables derived by an actual inference, seed members included when
    rederived), and `ucl` the clauses whose whole body lies inside the
    closure.  Always: bcn_mask = body_mask | rcn_mask.
    """

    body_mask: int
    bcn_mask: int
    rcn_mask: int
    ucl: tuple[Clause, ...]


def analyze_body(f: Formula, body_mask: int) -> BodyAnalysis:
    closure, fired_heads = propagate(f.clauses, body_mask)
    ucl = tuple([c for c in f.clauses if not c.body & ~closure])
    return BodyAnalysis(body_mask, closure, fired_heads, ucl)


# ---------------------------------------------------------------------------
# rendering

def formula_items(f: Formula) -> list[str]:
    """Canonical text items, one clause each; they re-parse to `f`."""
    return f.clause_texts()


def letters(n: int) -> str:
    """First n single-letter variable names, for generated universes."""
    if n > 26:
        raise ValueError("only 26 single-letter names available")
    return "abcdefghijklmnopqrstuvwxyz"[:n]


def all_bodies(nvars: int, without: Optional[int] = None,
               max_size: Optional[int] = None,
               min_size: int = 0) -> list[int]:
    """All body masks over a universe, canonical order, optional bounds."""
    ids = [i for i in range(nvars) if i != without]
    top = max_size if max_size is not None else len(ids)
    masks = []
    for size in range(min_size, top + 1):
        for combo in itertools.combinations(ids, size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            masks.append(mask)
    masks.sort(key=bit_ids)
    return masks
