"""Mixed-radix words, decision assignment trees, and instrumented counters.

Every construction in this package produces a Counter: a pair of step
functions (next and prev) over a fixed mixed-radix domain, together with the
cycle length and the per-step read/write bounds the construction promises.
Steps run against Tape objects so the promises can be checked empirically:
a tape records which coordinates were read and how many assignments were
executed. Counter.next and prev may instead take a word path that returns
costs observed earlier on a tape (see Counter); audits never do.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional


class BoundExceeded(RuntimeError):
    """A configured resource limit (steps, tree nodes, factoring) was hit."""


def _integer(x, what: str) -> int:
    """operator.index(x), so numpy integers pass; a bool, or anything
    operator.index refuses, raises ValueError naming what."""
    if type(x) is int:  # the common case, checked first: set-up runs this often
        return x
    if type(x) is not bool:
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _at_least(x, least: int, what: str) -> int:
    """_integer(x), or ValueError when it is below least."""
    if (v := _integer(x, what)) < least:
        raise ValueError(f"{what} must be at least {least}, got {x!r}")
    return v


@dataclass(frozen=True)
class Domain:
    """A product Z_r1 x ... x Z_rn described by its per-coordinate radices."""

    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.radices:
            raise ValueError("domain needs at least one coordinate")
        for r in self.radices:
            _at_least(r, 2, "radix")

    @classmethod
    def uniform(cls, m: int, n: int) -> "Domain":
        return cls((m,) * _integer(n, "width"))

    @property
    def n(self) -> int:
        return len(self.radices)

    @property
    def size(self) -> int:
        return math.prod(self.radices)

    @functools.cached_property
    def separator(self) -> str:
        """Digit separator of the text form: none when every radix fits in
        one decimal digit, else a comma."""
        return "" if all(r <= 10 for r in self.radices) else ","

    @functools.cached_property
    def template(self) -> str:
        """The text form of a word as a %-format: one %d per digit, joined
        by the separator."""
        return self.separator.join(["%d"] * self.n)

    def validate(self, word) -> None:
        if len(word) != self.n:
            raise ValueError(f"expected {self.n} digits, got {len(word)}")
        for i, (d, r) in enumerate(zip(word, self.radices)):
            if not 0 <= _integer(d, f"digit at coordinate {i + 1}") < r:
                raise ValueError(f"digit {d} out of range at coordinate {i + 1}")

    def rank(self, word) -> int:
        """Mixed-radix rank; coordinate 1 is the most significant."""
        v = 0
        for d, r in zip(word, self.radices):
            v = v * r + d
        return v

    def unrank(self, i: int) -> tuple[int, ...]:
        if not 0 <= _integer(i, "rank") < self.size:
            raise ValueError(f"rank {i} out of range")
        digits = []
        for r in reversed(self.radices):
            i, d = divmod(i, r)
            digits.append(d)
        return tuple(reversed(digits))

    def words(self) -> Iterator[tuple[int, ...]]:
        """All words in rank order."""
        return itertools.product(*(range(r) for r in self.radices))


class StepStats(NamedTuple):
    """One step's cost: distinct cells read and assignments executed.

    Steps of equal cost return one shared instance, made on first use;
    compare costs with ==.
    """

    reads: int
    writes: int


class _Costs(dict):
    """(reads, writes) -> the StepStats every step of that cost returns,
    made on first use. A step then allocates no cost: the cyclic collector
    never untracks a tuple subclass, so every cost a caller kept would add
    to its work."""

    def __missing__(self, key: tuple[int, int]) -> StepStats:
        st = self[key] = tuple.__new__(StepStats, key)
        return st


_STATS = _Costs()


class Tape:
    """One step's view of a word.

    Reading a coordinate counts once no matter how often it is re-read, and
    reading back a value the step itself wrote is free. Every executed
    assignment counts as a write, including rewrites of the same value.

    Every tape class offers read_cells(cells), the tuple of read(i) for i in
    cells, read in that order.

    read, read_cells and write only index cells (cells[i], cells[i] = v),
    so materialize can replay a step on a Tape whose cells are a dict;
    word() and measure_counter take cells to be a list.
    """

    __slots__ = ("cells", "reads", "written", "writes")

    def __init__(self, word):
        self.cells = list(word)
        self.reads: set[int] = set()
        self.written: set[int] = set()
        self.writes = 0

    def read(self, i: int) -> int:
        if i not in self.written:
            self.reads.add(i)
        return self.cells[i]

    def read_cells(self, cells) -> tuple:
        if self.writes:
            return tuple(map(self.read, cells))
        # nothing written yet, so every cell counts as read
        self.reads.update(cells)
        c = self.cells
        return tuple([c[i] for i in cells])

    def write(self, i: int, v: int) -> None:
        self.cells[i] = v
        self.written.add(i)
        self.writes += 1

    def word(self) -> tuple[int, ...]:
        return tuple(self.cells)

    def stats(self) -> StepStats:
        return _STATS[len(self.reads), self.writes]


def tape_step(fn, word) -> tuple[tuple[int, ...], StepStats]:
    """(word, cost) of one run of the tape step function fn on a fresh
    Tape over word: the observed form of a counter step."""
    tape = Tape(word)
    fn(tape)
    return tuple(tape.cells), _STATS[len(tape.reads), tape.writes]


def apply_word(step, word) -> tuple[int, ...]:
    """The word step.apply_tape leaves on a fresh tape over word: the word
    form of a primitive step, from the same code the counters run."""
    return tape_step(step.apply_tape, word)[0]


class OffsetTape:
    """Window onto a larger tape, shifted by a fixed coordinate offset."""

    __slots__ = ("base", "offset")

    def __init__(self, base, offset: int):
        self.base = base
        self.offset = offset

    def read(self, i: int) -> int:
        return self.base.read(i + self.offset)

    def read_cells(self, cells) -> tuple:
        return tuple(map(self.read, cells))

    def write(self, i: int, v: int) -> None:
        self.base.write(i + self.offset, v)


@dataclass(frozen=True)
class Query:
    """Internal tree node: branch on the value of one coordinate."""

    coord: int
    children: tuple


@dataclass(frozen=True)
class Assign:
    """Leaf: write the listed (coordinate, value) pairs in order."""

    assignments: tuple[tuple[int, int], ...]


def dat_validate(tree, domain: Domain) -> None:
    """Check tree shape: full fan-out, no repeated query on a path, and
    every assignment in range and targeting a queried coordinate."""

    def walk(node, seen: frozenset) -> None:
        if isinstance(node, Query):
            if not 0 <= node.coord < domain.n:
                raise ValueError(f"query coordinate {node.coord + 1} out of range")
            if node.coord in seen:
                raise ValueError(f"coordinate {node.coord + 1} queried twice on a path")
            want = domain.radices[node.coord]
            if len(node.children) != want:
                raise ValueError(
                    f"query on coordinate {node.coord + 1} needs {want} children, "
                    f"got {len(node.children)}")
            for child in node.children:
                walk(child, seen | {node.coord})
        elif isinstance(node, Assign):
            for coord, value in node.assignments:
                if not 0 <= coord < domain.n:
                    raise ValueError(f"assignment coordinate {coord + 1} out of range")
                if not 0 <= value < domain.radices[coord]:
                    raise ValueError(
                        f"value {value} out of range for coordinate {coord + 1}")
                if coord not in seen:
                    raise ValueError(
                        f"leaf assigns coordinate {coord + 1} without reading it")
        else:
            raise ValueError(f"not a tree node: {node!r}")

    walk(tree, frozenset())


def dat_eval(tree, word) -> tuple[tuple[int, ...], StepStats]:
    """Run one step of the tree on a word. Raises ValueError when the word
    has no digit, or no child for its digit, at a queried coordinate."""
    cells = list(word)
    reads = 0
    node = tree
    try:
        while isinstance(node, Query):
            x = cells[node.coord]
            if x < 0:
                raise IndexError(x)
            node = node.children[x]
            reads += 1
    except IndexError:
        raise ValueError(
            f"word {tuple(word)} has no branch at coordinate {node.coord + 1}") from None
    if not isinstance(node, Assign):
        raise ValueError(f"not a tree node: {node!r}")
    writes = 0
    for coord, value in node.assignments:
        cells[coord] = value
        writes += 1
    return tuple(cells), _STATS[reads, writes]


def dat_read_complexity(tree) -> int:
    """Most queries on any root-to-leaf path."""
    if isinstance(tree, Assign):
        return 0
    return 1 + max(dat_read_complexity(c) for c in tree.children)


def dat_write_complexity(tree) -> int:
    """Largest assignment count over all leaves."""
    if isinstance(tree, Assign):
        return len(tree.assignments)
    return max(dat_write_complexity(c) for c in tree.children)


def dat_count_nodes(tree) -> int:
    if isinstance(tree, Assign):
        return 1
    return 1 + sum(dat_count_nodes(c) for c in tree.children)


def dat_to_json(tree):
    """Plain-dict form with 1-based coordinates."""
    if isinstance(tree, Query):
        return {"query": tree.coord + 1,
                "children": [dat_to_json(c) for c in tree.children]}
    if isinstance(tree, Assign):
        return {"assign": [[c + 1, v] for c, v in tree.assignments]}
    raise ValueError(f"not a tree node: {tree!r}")


def dat_from_json(obj):
    """Inverse of dat_to_json. Raises ValueError on any malformed node."""
    if not isinstance(obj, dict):
        raise ValueError("tree node must be an object")
    if "query" in obj:
        coord = _at_least(obj["query"], 1, "query coordinate")
        children = obj.get("children")
        if not isinstance(children, (list, tuple)):
            raise ValueError("query node needs a 'children' list")
        return Query(coord - 1, tuple(dat_from_json(c) for c in children))
    if "assign" in obj:
        pairs = obj["assign"]
        if not isinstance(pairs, (list, tuple)):
            raise ValueError("'assign' must be a list of [coordinate, value] pairs")
        out = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"assignment {pair!r} is not a [coordinate, value] pair")
            out.append((_at_least(pair[0], 1, "assignment coordinate") - 1,
                        _at_least(pair[1], 0, "assigned value")))
        return Assign(tuple(out))
    raise ValueError("tree node needs a 'query' or 'assign' key")


class _BranchOn(Exception):
    def __init__(self, coord):
        self.coord = coord


class _Known(dict):
    """One replay's cells: the coordinates fixed on the current path. A
    missing cell raises _BranchOn; assigns lists every write in order."""

    __slots__ = ("assigns",)

    def __missing__(self, i: int):
        raise _BranchOn(i)

    def __setitem__(self, i: int, v: int) -> None:
        self.assigns.append((i, v))
        dict.__setitem__(self, i, v)


def _replay_tape(known: dict) -> Tape:
    """A Tape over _Known(known), with no write yet."""
    tape = Tape(())
    tape.cells = cells = _Known(known)
    cells.assigns = []
    return tape


def materialize(step: Callable, domain: Domain, node_budget: int = 10 ** 6):
    """Unfold a deterministic tape step into an explicit decision tree.

    The step is replayed once per node on a Tape whose cells are only the
    coordinates fixed on the current path; the first read of any other cell
    becomes a query node, and a run that ends is a leaf of its writes.
    Raises BoundExceeded once node_budget nodes exist.
    """
    budget = node_budget = _at_least(node_budget, 0, "node_budget")

    def build(known: dict):
        nonlocal budget
        if budget <= 0:
            raise BoundExceeded(f"tree exceeds {node_budget} nodes")
        budget -= 1
        tape = _replay_tape(known)
        try:
            step(tape)
        except _BranchOn as b:
            children = tuple(build({**known, b.coord: v})
                             for v in range(domain.radices[b.coord]))
            return Query(b.coord, children)
        return Assign(tuple(tape.cells.assigns))

    tree = build({})
    dat_validate(tree, domain)
    return tree


class Counter:
    """A cyclic counter: instrumented step functions plus claimed bounds.

    next_fn and prev_fn mutate a tape in place, changing cells only through
    tape.write; they are kept as the next_tape and prev_tape attributes.
    claimed_length is the cycle length the construction promises through
    the start word, an integer of at least 1; claimed_reads and
    claimed_writes bound per-step coordinate touches, each None (no
    promise) or an integer of at least 0. Anything else raises ValueError.
    Audits check all of them against observed behaviour.

    next and prev take one of two paths. A step function may carry a
    word_step attribute, a function of a word that returns the same
    (word, StepStats) as a Tape run, without one: gray_counter,
    cycle_compose (within its pointer table bound; crt_compose products
    are cycle_compose counters over their clock) and stitch_radix over
    such a counter give theirs one. All but gray_counter's, whose steps
    all cost the same, return costs each observed on one Tape run for the
    same key (a pointer or clock word, or an inner pointer as a residue
    view shows it). next and prev call it when it is there (the word path)
    and otherwise run the step on a Tape (the Tape path, tape_step). A word
    path may itself take the Tape path for some steps: one whose data step
    has no word form does. measure_counter, and so audit, and materialize
    always take the Tape path, so what they report is observed on a Tape
    (one Tape reused for every step of a walk).

    next and prev take a tuple or a list and raise ValueError on a word of
    the wrong length, but do not check digit ranges per step. A word path
    follows the Tape on every word, digits in range or not: a digit out of
    range gives an unspecified word, the same on both paths, at the same
    cost. Domain.validate (or word_parse, which calls it) is the boundary
    check for words from outside the program.
    """

    def __init__(self, domain: Domain, next_fn: Callable, prev_fn: Callable,
                 claimed_length: int, start, *,
                 claimed_reads: Optional[int] = None,
                 claimed_writes: Optional[int] = None,
                 recipe: Optional[dict] = None):
        domain.validate(start)
        self.claimed_length = _at_least(claimed_length, 1, "claimed_length")
        self.claimed_reads, self.claimed_writes = (
            None if x is None else _at_least(x, 0, what)
            for x, what in ((claimed_reads, "claimed_reads"), (claimed_writes, "claimed_writes")))
        self.domain = domain
        self._n = domain.n
        self.next_tape = next_fn
        self.prev_tape = prev_fn
        self._next_word, self._prev_word = (
            getattr(fn, "word_step", None) or functools.partial(tape_step, fn)
            for fn in (next_fn, prev_fn))
        self.start = tuple(start)
        self.recipe = recipe

    def next(self, word) -> tuple[tuple[int, ...], StepStats]:
        if len(word) != self._n:
            raise ValueError(f"expected {self._n} digits, got {len(word)}")
        return self._next_word(word)

    def prev(self, word) -> tuple[tuple[int, ...], StepStats]:
        if len(word) != self._n:
            raise ValueError(f"expected {self._n} digits, got {len(word)}")
        return self._prev_word(word)

    def __repr__(self) -> str:
        kind = (self.recipe or {}).get("kind", "?")
        return (f"Counter(kind={kind}, domain={self.domain.radices}, "
                f"length={self.claimed_length})")


class Visited:
    """The ranks a walk visited, one byte each. rk in visited is False for
    any rank below 0 or at or above the domain size."""

    __slots__ = ("marks",)

    def __init__(self, size: int):
        self.marks = bytearray(size)

    def __contains__(self, rk) -> bool:
        return 0 <= rk < len(self.marks) and self.marks[rk] == 1

    def missing(self) -> Iterator[int]:
        """The ranks never visited, in increasing order."""
        rk = -1
        while (rk := self.marks.find(0, rk + 1)) >= 0:
            yield rk


@dataclass
class OrbitReport:
    """Result of walking a counter from its start word."""

    observed_length: int
    max_reads: int
    max_writes: int
    distinct: bool
    closed: bool
    truncated: bool
    visited_ranks: Optional[Visited]


# Above this many words the walk stops tracking the visited set; distinctness
# then rests on closure alone. At the limit the byte map takes 128 MB.
TRACK_LIMIT = 2 ** 27


def measure_counter(counter: Counter, max_steps: Optional[int] = None,
                    direction: str = "next") -> OrbitReport:
    """Walk the counter until it returns to start, revisits a word, or runs
    out of budget. max_steps defaults to the claimed length; one that is
    not an integer of at least 0 raises ValueError before any step. Every
    step runs on one Tape, reset before each step, so the costs are
    observed, never taken from a word path. The word's rank follows the
    cells in tape.written, so a step must change cells only through write;
    a written digit outside its radix raises ValueError. The visited words
    are tracked up to TRACK_LIMIT words."""
    if direction not in ("next", "prev"):
        raise ValueError("direction must be 'next' or 'prev'")
    domain = counter.domain
    size = domain.size
    track = size <= TRACK_LIMIT
    max_steps = (counter.claimed_length if max_steps is None
                 else _at_least(max_steps, 0, "max_steps"))
    fn = counter.next_tape if direction == "next" else counter.prev_tape
    radices = domain.radices
    weight = [math.prod(radices[i + 1:]) for i in range(domain.n)]
    start = list(counter.start)
    first = rk = domain.rank(start)
    visited = Visited(size) if track else None
    if track:
        marks = visited.marks
        marks[rk] = 1
    prev = start[:]
    tape = Tape(start)
    cells, reads, written = tape.cells, tape.reads, tape.written
    max_reads = max_writes = 0
    distinct = True
    closed = False
    steps = 0
    while steps < max_steps:
        reads.clear()
        written.clear()
        tape.writes = 0
        fn(tape)
        steps += 1
        if len(reads) > max_reads:
            max_reads = len(reads)
        if tape.writes > max_writes:
            max_writes = tape.writes
        for i in written:
            v = cells[i]
            if not 0 <= v < radices[i]:
                raise ValueError(f"step {steps} wrote {v} at coordinate {i + 1}")
            rk += (v - prev[i]) * weight[i]
            prev[i] = v
        if rk == first and cells == start:
            closed = True
            break
        if track:
            if marks[rk]:
                distinct = False
                break
            marks[rk] = 1
    truncated = not closed and distinct
    return OrbitReport(steps, max_reads, max_writes, distinct, closed,
                       truncated, visited)


def word_parse(text: str, domain: Domain) -> tuple[int, ...]:
    """Parse a word, either comma-separated or one character per digit.

    The contiguous form is only meaningful when every radix fits in one
    decimal digit.
    """
    text = text.strip()
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
    elif domain.n == 1:
        tokens = [text]
    elif not domain.separator:
        tokens = list(text)
    else:
        raise ValueError("radices above 10 need comma-separated digits")
    if len(tokens) != domain.n:
        raise ValueError(f"expected {domain.n} digits, got {len(tokens)}")
    try:
        digits = tuple(int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"malformed word {text!r}") from None
    domain.validate(digits)
    return digits


def word_format(word, domain: Domain) -> str:
    return domain.template % tuple(word)
