"""Composition engines: step lists driven by a Gray pointer over Z_m^r
(cycle_compose, one _pointer_step per direction), co-prime counter
products (crt_compose, a Gray pointer over one _ComponentStep per further
component), and the residue views (_MixedTape over the (cell, d, q, u)
coordinates of _residues) that general and stitch counters step their
parts on. Each engine's steps run on a Tape; a pointer step's word path
and walk (_pointer_step) give the words and costs of Tape runs on every
word, digits in range or not, and a walk steps a residue view by its
word path's cursor (_ResidueStep.word_path).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (Counter, Domain, OffsetTape, Tape, _TapeBase, _at_least, _integer,
                   _iterate, tape_step)
# gray_rank is not called here but stays a module attribute: the traced
# benchmark run rebinds compose.gray_rank and compose.gray_unrank
from .graycode import _valid_digits, gray_rank, gray_scan, gray_unrank  # noqa: F401


# widest pointer, in words, that cycle_compose steps through a table
_TABLE_BOUND = 1 << 12


@dataclass
class StepList:
    """Bijective steps sigma_1..sigma_k over one domain, in a sequence that
    cycle_compose only indexes and takes the len() of. ell is the length of
    the cycle their composition traces through the intended start word.
    Each step must offer apply_tape(tape) and shifted(d, inverse=False),
    the step or its inverse moved d coordinates up. A step that reads and
    writes the same cells on every word may also offer word_fn(), a
    function that does what apply_tape does to a list of digits, in place,
    for cycle_compose's word path to run; a _Primitive's apply_tape runs
    that same function on the tape. A step whose cost varies with its data
    cells may offer word_path instead (see _pointer_step)."""

    steps: Sequence
    domain: Domain
    ell: int


def _tape_cost(step, word, got, out):
    """out[1], the Tape run out's cost, once got, step's word form on word, is seen to be out[0]."""
    if got != out[0]:
        raise RuntimeError(f"word form of {step!r} gives {got} on {tuple(word)}, "
                           f"its Tape run {out[0]}")
    return out[1]


def _pointer_step(shift, k: int, m: int, r: int, delta: int, store: bool):
    """One direction of a cycle_compose step over a Gray pointer of r
    radix-m cells and k steps (delta +1 for next, -1 for prev): a tape
    step function. shift(j) is step j on the caller's tape, shift(~j) its
    inverse. Within the table bound (store), its word_step and word_walk
    attributes are its word path and walk.

    Its table maps a pointer word, cells r-1 .. 0, to one entry: (the data
    step or None, the pointer cell the step writes, the digit written, the
    word form or word path, the cost). On a miss, entry builds the first
    three fields with gray_scan, which is all the Tape path reads, and
    stores the entry only when store is set and every digit is an int in
    0 .. m-1.

    The word path fills the last two fields from one Tape run on the first
    word with that pointer word: _tape_cost checks the data step's word
    form (word_fn, or None) against the run and gives the cost, which the
    pointer word fixes, since each such step reads and writes fixed cells.
    A step whose cost varies with its data cells keeps its own word path,
    step.word_path(fn, cell, g) (_ResidueStep, _ComponentStep), or else
    the Tape path, in the fourth field, and None as the cost. A word with
    no stored entry takes the Tape path. The word path's entry attribute
    gives the filled entry of a word's pointer word, or None, and its
    width attribute is r: _ResidueStep.word_path reads an inner counter's
    steps through them, and its delta attribute gives their direction.

    walk (see Counter.walk) decodes the pointer's rank once and steps
    through by_rank, the table's own filled entries indexed by rank,
    allocated on the first walk and filled through the word path. An
    entry that holds a word path with a cursor (_ResidueStep.word_path)
    steps the walk's list through one cursor per rank and call, made the
    first time the rank comes up; any other word path, or a cursor refused
    for a digit out of range, is taken on every step. A pointer digit out
    of range or not an int iterates the word path instead.
    """
    size = m ** r
    cells = range(r - 1, -1, -1)
    top = slice(r - 1, None, -1)  # pointer cells r-1 .. 0, the key order
    table = {}
    by_rank = []

    def entry(key):
        rank, up, down = gray_scan(key[::-1], m)
        # next runs step rank and then moves cell up; prev moves cell down
        # and then runs the inverse of step rank - 1
        cell, i = (up, rank) if delta > 0 else (down, (rank - 1) % size)
        e = (None if i >= k else shift(i if delta > 0 else ~i), cell,
             (key[r - 1 - cell] + delta) % m, None, None)
        if store and _valid_digits(key, m):
            table[key] = e
        return e

    if delta > 0:
        def tape_fn(tape) -> None:
            key = tape.read_cells(cells)
            step, cell, g, _, _ = table.get(key) or entry(key)
            if step is not None:
                step.apply_tape(tape)
            tape.write(cell, g)
    else:
        def tape_fn(tape) -> None:
            key = tape.read_cells(cells)
            step, cell, g, _, _ = table.get(key) or entry(key)
            tape.write(cell, g)
            if step is not None:
                step.apply_tape(tape)

    if not store:
        return tape_fn

    def fill(word, key):
        out = tape_step(tape_fn, word)
        if (e := table.get(key)) is None:
            return out  # no pointer word
        step, cell, g, _, _ = e
        f = None
        if step is not None:
            word_fn = getattr(step, "word_fn", None)
            if word_fn is None:
                path = getattr(step, "word_path", None)
                path = path and path(tape_fn, cell, g) or functools.partial(tape_step, tape_fn)
                table[key] = (step, cell, g, path, None)
                return path(word)
            f = word_fn()
        w = list(word)
        if f is not None:
            f(w)
        w[cell] = g
        table[key] = (step, cell, g, f, _tape_cost(step, word, tuple(w), out))
        return out

    def word_step(word):
        key = tuple(word[top])
        e = table.get(key)
        if e is not None:
            _, cell, g, f, cost = e
            if cost is not None:
                w = list(word)
                if f is not None:
                    f(w)
                w[cell] = g
                return tuple(w), cost
            if f is not None:
                return f(word)
        return fill(word, key)

    def filled(word):
        word_step(word)
        return table.get(tuple(word[top]))

    def walk(word, count):
        if not _valid_digits(word[:r], m):
            return _iterate(word_step, word, count)
        if not by_rank:
            by_rank.extend([None] * size)
        rank = gray_scan(word[:r], m)[0]
        w = list(word)
        out = []
        cursors = {}  # rank -> its word path's cursor on w, or None
        for _ in range(count):
            e = by_rank[rank]
            if e is not None and e[4] is not None:
                _, cell, g, f, _ = e
                if f is not None:
                    f(w)
                w[cell] = g
            else:  # not filled yet, or a word path
                if e is not None and rank not in cursors:
                    cursor = getattr(e[3], "cursor", None)
                    cursors[rank] = cursor and cursor(w)
                advance = cursors.get(rank)
                if advance:
                    advance()
                else:
                    nxt = word_step(tuple(w))[0]
                    by_rank[rank] = table[tuple(w[top])]
                    w[:] = nxt
            out.append(tuple(w))
            rank = (rank + delta) % size
        return out

    word_step.entry = filled
    word_step.width, word_step.delta = r, delta
    tape_fn.word_step = word_step
    tape_fn.word_walk = walk
    return tape_fn


def cycle_compose(steps: StepList, m: int, r: int, start_inner, *,
                  claimed_reads=None, claimed_writes=None, recipe=None) -> Counter:
    """Drive a step list with a Gray-code pointer over Z_m^r.

    The pointer's rank selects which step to apply to the inner word (ranks
    past the end of the list do nothing), then the pointer advances one Gray
    step. One full pointer revolution applies the whole list once, so the
    cycle through <pointer start, start_inner> has length m^r * ell.

    A step reads the r pointer cells with one read_cells call, top down
    from cell r-1 to cell 0, and looks the word up in its direction's
    table (_pointer_step). On a miss, gray_scan decodes it into the rank,
    which picks the step, and the one pointer digit the Gray step moves,
    which is the pointer's single write. A table stores pointer words only,
    every digit an int in 0 .. m-1, and only when the pointer has at most
    _TABLE_BOUND words: a wider pointer, or any other key, is decoded on
    every step. Step j is shifted by r, to run on the caller's tape, on
    the first next step from the pointer word of rank j, and its inverse
    the first time prev runs it, through one cache. prev writes the pointer
    before it runs the inverse step.

    That is the Tape path, which audits and materialize run. Within the
    bound, Counter.next and prev take the word path on a plain list, from
    the same table entry, which gives the word and cost a Tape run gives on
    every word, digits in range or not; and Counter.walk (so gen) decodes
    the pointer's rank once per call and steps through the table's entries
    by rank, iterating the word path instead when a pointer digit is out of
    range or not an int. A rank whose step runs on a residue view (a
    general counter's binary and odd steps) steps by that view's cursor,
    which decodes the inner pointer once per call. Past the bound, walk
    iterates next or prev.
    """
    pointer_start = gray_unrank(0, m, r)  # checks m and r
    k = len(steps.steps)
    k_prime = m ** r
    if k_prime < k:
        raise ValueError(f"pointer cycle {k_prime} shorter than step list {k}")
    steps.domain.validate(start_inner)

    @functools.cache
    def shift(j):
        # step j moved r cells up, or for j < 0 the inverse of step ~j
        return (steps.steps[j].shifted(r) if j >= 0
                else steps.steps[~j].shifted(r, inverse=True))

    next_fn, prev_fn = (_pointer_step(shift, k, m, r, delta, k_prime <= _TABLE_BOUND)
                        for delta in (1, -1))
    start = pointer_start + tuple(start_inner)
    return Counter(Domain((m,) * r + steps.domain.radices), next_fn, prev_fn,
                   k_prime * steps.ell, start, claimed_reads=claimed_reads,
                   claimed_writes=claimed_writes, recipe=recipe)


def crt_compose(components: list[Counter]) -> Counter:
    """Product counter over the concatenated domains.

    The first component is the clock, a base Gray counter over Z_m^n, and
    steps every time. Component i+1 steps exactly when the clock shows its
    word of Gray rank i, so the components advance at co-prime rates and the
    product closes after the product of all lengths. Lengths of components
    2..r must be pairwise co-prime and the clock must be long enough to
    give each of the others its own trigger word.

    That is cycle_compose with the clock as its Gray pointer and one
    _ComponentStep per further component: the component's whole step
    through an OffsetTape onto its cells. So the clock is read top down,
    and the word path, its table bound and the lazy inverses are the
    pointer's; a trigger word takes the component's own word path.
    """
    if len(components) < 2:
        raise ValueError("need at least two components")
    clock, rest = components[0], components[1:]
    rec = clock.recipe or {}
    if rec.get("kind") != "base" or clock.claimed_length != rec["m"] ** rec["n"]:
        raise ValueError(
            f"the clock must be a base Gray counter of length m^n, got kind "
            f"{rec.get('kind')!r} of length {clock.claimed_length}")
    lengths = [c.claimed_length for c in components]
    if lengths[0] < len(rest):
        raise ValueError(
            f"first component length {lengths[0]} cannot host {len(rest)} trigger words")
    for a, b in itertools.combinations(lengths[1:], 2):
        if (g := math.gcd(a, b)) != 1:
            raise ValueError(
                f"component lengths {a} and {b} share factor {g}; they must be co-prime")

    offsets = itertools.accumulate([c.domain.n for c in rest], initial=0)
    steps = [_ComponentStep(c, lo) for c, lo in zip(rest, offsets)]
    reads = [c.claimed_reads for c in rest]
    writes = [c.claimed_writes for c in components]
    recipe = {"kind": "crt", "lengths": lengths,
              "components": [c.recipe for c in components]}
    inner = Domain(tuple(x for c in rest for x in c.domain.radices))
    return cycle_compose(
        StepList(steps, inner, math.prod(lengths[1:])), rec["m"], rec["n"],
        tuple(x for c in rest for x in c.start),
        claimed_reads=None if None in reads else rec["n"] + max(reads),
        claimed_writes=None if None in writes else writes[0] + max(writes[1:]),
        recipe=recipe)


@dataclass(frozen=True)
class _ComponentStep:
    """One whole step of a counter on the cells from offset on, through an
    OffsetTape: its next_tape, or its prev_tape when inverse, as a step of
    crt_compose's pointer-driven list."""

    counter: Counter
    offset: int
    inverse: bool = False

    def apply_tape(self, tape) -> None:
        c = self.counter
        (c.prev_tape if self.inverse else c.next_tape)(OffsetTape(tape, self.offset))

    def shifted(self, d: int, inverse: bool = False) -> "_ComponentStep":
        """This step, or its inverse, on cells d higher."""
        return _ComponentStep(self.counter, self.offset + d, self.inverse != inverse)

    def word_path(self, tape_fn, cell: int, g: int):
        """The word path of tape_fn, a pointer step that runs this step and
        then writes g to pointer cell cell: the counter's own next or prev
        on its slice of the word. The cost of tape_fn is fixed by the
        counter's cost, so it is observed, and the word form checked, on one
        Tape run per counter cost. The counter's own word path matches its
        Tape on every word, so this one does too, digits in range or not."""
        step = self.counter.prev if self.inverse else self.counter.next
        lo, hi = self.offset, self.offset + self.counter.domain.n
        costs = {}

        def word_step(word):
            cells = list(word)
            cells[lo:hi], c = step(word[lo:hi])
            cells[cell] = g
            got = tuple(cells)
            cost = costs.get(c)
            if cost is None:
                cost = costs[c] = _tape_cost(self, word, got, tape_step(tape_fn, word))
            return got, cost

        return word_step


def multiplicative_order(o: int) -> int:
    """The order of 2 modulo o."""
    if (o := _at_least(o, 1, "modulus")) % 2 == 0:
        raise ValueError(f"2 is not invertible modulo {o}")
    e, x = 1, 2 % o
    while x != 1 % o:
        e, x = e + 1, x * 2 % o
    return e


class _MixedTape(_TapeBase):
    """Shows radix-m data cells as the virtual coordinates of a view
    (_residues), each (cell, d, q, u): digit x of its cell reads as
    x // d % q, and writing v sets the cell to (x + (v - x // d % q) * u) % m,
    which changes that residue to v and keeps the others for v in 0 .. q-1.
    A larger v, which only a broken inner step writes, may differ from
    masking v into the bits, but the word path shares the formula."""

    __slots__ = ("base", "view", "m")

    def __init__(self, base, view, m):
        self.base, self.view, self.m = base, view, m

    def read(self, v: int) -> int:
        cell, d, q, _ = self.view[v]
        return self.base.read(cell) // d % q

    def write(self, v: int, val: int) -> None:
        cell, d, q, u = self.view[v]
        x = self.base.read(cell)
        self.base.write(cell, (x + (val - x // d % q) * u) % self.m)


def _residues(m: int, n_data: int):
    """(bit view, odd view) of radix-m data cells 0 .. n_data - 1 for
    _MixedTape, m = 2^l * o with o odd. Bit s of a cell's residue mod 2^l is
    (cell, 2^s, 2, 2^s * e2 mod m), l per cell, most significant first; its
    residue mod o is (cell, 1, o, e_o), and there is no odd view if o = 1.
    e2 is 1 mod 2^l and 0 mod o, and e_o the reverse."""
    ell = (m & -m).bit_length() - 1
    o = m >> ell
    e2 = o * pow(o, -1, 1 << ell) % m
    bits = tuple((j, 1 << s, 2, (e2 << s) % m)
                 for j in range(n_data) for s in range(ell - 1, -1, -1))
    odd = tuple((j, 1, o, (1 - e2) % m) for j in range(n_data)) if o > 1 else ()
    return bits, odd


def _residue_word(virtual, view, m: int, n_data: int) -> tuple:
    """The word of n_data radix-m data cells that a _MixedTape over them
    with view shows as virtual."""
    tape = Tape((0,) * n_data)
    write = _MixedTape(tape, view, m).write
    for v, x in enumerate(virtual):
        write(v, x)
    return tape.word()


@dataclass(frozen=True)
class _ResidueStep:
    """One whole step of a counter that lives on residues of radix-m data
    cells: run (its next_tape, or prev_tape once inverted) on one
    _MixedTape with view, as a step of general_counter's pointer-driven
    list or as a stitch_radix step."""

    run: Callable
    undo: Callable
    view: tuple
    m: int

    def apply_tape(self, tape) -> None:
        self.run(_MixedTape(tape, self.view, self.m))

    def shifted(self, d: int, inverse: bool = False) -> "_ResidueStep":
        """This step, or its inverse, on data cells d higher."""
        run, undo = (self.undo, self.run) if inverse else (self.run, self.undo)
        return _ResidueStep(run, undo, tuple([(c + d, *rest) for c, *rest in self.view]),
                            self.m)

    def word_path(self, tape_fn, cell=None, g=0):
        """The word path of tape_fn, a step that runs this step on the word's
        data cells and then, when cell is given, writes g to pointer cell cell;
        None when its inner counter has no word path.

        The inner counter's word path (a cycle_compose counter's) steps fixed
        virtual cells on each of its pointer words, so the physical cells a
        step touches, and so its cost, are fixed by the inner pointer as the
        view shows it, view[:width]. The table maps that key, read from the
        physical word, to the inner entry's word form, pointer cell and digit,
        the coordinates the inner step reads and writes (seen on one Tape run
        of it), and the cost of one Tape run of tape_fn on a word with that
        key, checked against the word form before it is stored: the touched
        coordinates read from the physical list, stepped as a virtual list
        and written back by the view's formula. A digit out of range reads
        the same on both, so such a word takes this path too.

        A table's first miss fills only its own key: a general counter's
        first step from its start word runs the bit view, and 2^width Tape
        runs there would slow its set-up. A later miss fills every key in one
        pass, from the missing word with the key rewritten, all checked
        before any is stored; there are at most _TABLE_BOUND keys, since only
        an inner pointer with a table has a word path. Filled one key at a
        time, the small entries fragmented the allocator's arenas: the peak
        memory of the benchmark's walk-crt run rose from 55.5 to 61 MB.

        Its cursor attribute serves _pointer_step's walk, so a general
        counter's binary and odd steps; a stitch_radix counter's walk
        iterates its word path. cursor(cells), for a list that is then
        changed only by advance and by writes to other residues or cells,
        gives advance, which does to cells what word_step does, in place,
        or None when a digit of a view cell is not an int in 0 .. m-1. It reads the virtual word once, decodes the inner
        pointer's rank with gray_scan, and on each call steps that virtual
        list by the rank's table entry, held in by_rank (one per inner
        pointer word, shared by every cursor of this path), writes back
        the written coordinates and g, and moves the rank by the inner
        step's delta. A () entry takes the Tape path and reads the view
        afresh. In a general counter the other view writes other residues
        of the same cells and the clock writes other cells, so the virtual
        word stays current through a walk.
        """
        inner = getattr(self.run, "word_step", None)
        entry = getattr(inner, "entry", None)
        if entry is None:
            return None
        view, m, width = self.view, self.m, inner.width
        key_view = view[:width]
        pad = (0,) * (len(view) - width)
        located = [(j, *x) for j, x in enumerate(view)]
        shapes = {}
        # key -> (closure or None, virtual pointer cell, its new value, the
        #   (j, *view[j]) of each data coordinate read and of each written,
        #   cost), or () when the inner entry has no word form or the key
        #   is no inner pointer word
        table = {}

        def virtual_of(word):
            # the virtual list the view shows
            return [word[c] // d % q for c, d, q, _ in view]

        def put(e, v, cells):
            # step the virtual list v by entry e and write it back to cells
            f, v_cell, v_g, _, writes, _ = e
            if f is not None:
                f(v)
            v[v_cell] = v_g
            for j, c, d, q, u in writes:
                x = cells[c]
                cells[c] = (x + (v[j] - x // d % q) * u) % m
            if cell is not None:
                cells[cell] = g

        def form(word, key, e):
            v = [*key, *pad]
            for j, c, d, q, _ in e[3]:
                v[j] = word[c] // d % q
            cells = list(word)
            put(e, v, cells)
            return tuple(cells)

        def observed(word, key):
            # the entry of key, from a Tape run of tape_fn on word and one of
            # the inner step on the virtual word, checked against form
            out = tape_step(tape_fn, word)
            virtual = virtual_of(word)
            e = entry(virtual)
            if e is None or e[4] is None:  # no pointer word, or no word form
                return ()
            _, v_cell, v_g, f, _ = e
            tape = Tape(virtual)
            self.run(tape)
            reads = tuple([located[j] for j in sorted((tape.reads | tape.written)
                                                      - set(range(width)))])
            writes = tuple([located[j] for j in sorted(tape.written)])
            # shared tuples: fewer small objects pin fewer of the arenas
            e = (f, v_cell, v_g, shapes.setdefault(reads, reads),
                 shapes.setdefault(writes, writes), out[1])
            _tape_cost(self, word, form(word, key, e), out)
            return e

        def fill(word, key):
            # the first miss fills its own key, a later one every key
            tape = Tape(word)
            mixed = _MixedTape(tape, key_view, m)
            filled = {}
            for k in (itertools.product(*[range(q) for _, _, q, _ in key_view])
                      if table else (key,)):
                if k not in table:
                    for j, v in enumerate(k):
                        mixed.write(j, v)
                    filled[k] = observed(tape.word(), k)
            table.update(filled)

        def word_step(word):
            key = tuple([word[c] // d % q for c, d, q, _ in key_view])
            e = table.get(key)
            if e is None:
                fill(word, key)
                e = table[key]
            if not e:
                return tape_step(tape_fn, word)
            return form(word, key, e), e[5]

        radix, delta = key_view[0][2], inner.delta
        size = radix ** width
        by_rank = []  # inner rank -> its table entry, allocated on first use

        def cursor(cells):
            # None when a digit of a view cell is not an int in 0 .. m-1
            if not _valid_digits([cells[c] for c, *_ in view], m):
                return None
            if not by_rank:
                by_rank.extend([None] * size)
            v = virtual_of(cells)
            rank = gray_scan(v[:width], radix)[0]

            def advance():
                nonlocal rank
                e = by_rank[rank]
                if e is None:
                    key = tuple(v[:width])
                    if key not in table:
                        fill(tuple(cells), key)
                    e = by_rank[rank] = table[key]
                if e:
                    put(e, v, cells)
                else:  # the Tape path, then the view read afresh
                    cells[:] = tape_step(tape_fn, cells)[0]
                    v[:] = virtual_of(cells)
                rank = (rank + delta) % size

            return advance

        word_step.cursor = cursor
        return word_step


def stitch_radix(k: int, counter: Counter) -> Counter:
    """View a counter over bits as one over radix-2^k cells of k bits each,
    the first bit of a cell its most significant. A step is one
    _ResidueStep over the bit view of every cell (_residues, o = 1): the
    inner counter's whole step through a _MixedTape.

    Reads and writes then count per cell: touching any bit of a cell
    touches the cell once. When the inner counter has a word path keyed by
    its pointer (a cycle_compose counter within its table bound), so does
    this one (_ResidueStep.word_path), keyed by the inner pointer's bits
    and matching the Tape on every word; otherwise they run on a Tape.
    """
    if (k := _at_least(k, 1, "block size")) == 1:
        return counter
    inner = counter.domain
    if any(r != 2 for r in inner.radices):
        raise ValueError("inner counter must be over bits")
    if inner.n % k:
        raise ValueError(f"width {inner.n} is not divisible by block size {k}")
    n_data = inner.n // k
    bits, _ = _residues(2 ** k, n_data)
    domain = Domain.uniform(2 ** k, n_data)
    step = _ResidueStep(counter.next_tape, counter.prev_tape, bits, 2 ** k)
    fns = []
    for s in (step, step.shifted(0, inverse=True)):
        fn = functools.partial(_ResidueStep.apply_tape, s)
        fn.word_step = s.word_path(fn)
        fns.append(fn)
    return Counter(domain, *fns, counter.claimed_length,
                   _residue_word(counter.start, bits, 2 ** k, n_data),
                   claimed_reads=counter.claimed_reads,
                   claimed_writes=counter.claimed_writes,
                   recipe={"kind": "stitch", "block": k, "inner": counter.recipe})


def general_counter(m: int, n: int) -> Counter:
    """Counter over Z_m^n for even m = 2^l * o, o odd, that writes at most
    3 cells per step.

    The data cells carry two independent counters at once: the bits of
    their residues mod 2^l run a pointer-driven linear counter and, when
    o > 1, their residues mod o run the odd-radix counter. A Gray pointer on
    the leading cells drives the two as a two-step list: pointer rank 0
    runs one whole binary step and rank 1 one whole odd step, each through
    a residue view of the data cells, and every other rank only moves the
    pointer. That is the crt product of the two parts with a Gray clock.
    The clock width is chosen to make the data cycle lengths co-prime, so
    the whole thing is one cycle. Scan order is deterministic: every clock
    width at the minimal pointer first, then extra pointer padding.

    Inner widths whose 2^n_in - 1 is past the factoring limit cannot get a
    primitive polynomial, so they are skipped: on wide words the pointer
    takes the bits the inner vector cannot, and the claimed reads grow with
    it.

    Counter.next and prev run every rank on plain words (see
    cycle_compose); the binary and odd steps take _ResidueStep.word_path on
    the bit and odd views of _residues, keyed by the inner pointer as each
    view shows it, and Counter.walk steps them by that path's cursor.
    """
    from .linear import _FACTOR_LIMIT, Field, linear_counter, row_op_count
    from .permdecomp import min_width, odd_counter

    m, n = _at_least(m, 2, "radix"), _integer(n, "width")
    if m % 2:
        raise ValueError("even radix required; odd radices have their own construction")
    ell = (m & -m).bit_length() - 1
    o = m >> ell
    f2 = Field(2)
    ord2 = multiplicative_order(o) if o > 1 else 1
    d_min = min_width(o) if o > 1 else 1
    # widest inner vector with 2^n_in - 1 <= _FACTOR_LIMIT
    max_in = (_FACTOR_LIMIT + 1).bit_length() - 1

    def fits(r, n_in):
        # k row operations fix a subspace of dimension >= n_in - k, and a primitive
        # companion matrix of width n_in >= 2 (every probed width) fixes only 0, so
        # k >= n_in: a pointer with 2^r < n_in fails without a decomposition
        return 2 ** r >= n_in and 2 ** r >= row_op_count(f2, n_in)

    def candidates():
        # (clock, data cells, inner width, smallest Gray pointer covering
        # the row operations at that width) for each usable clock width
        found = []
        for i in range(1, ord2 + 1):
            d = n - i
            if d < d_min or ell * d < 3:
                break
            r = next((r for r in range(max(1, ell * d - max_in), ell * d - 1)
                      if fits(r, ell * d - r)), None)
            if r:
                found.append((i, d, ell * d - r, r))
                yield found[-1]
        # pad the pointer beyond its minimum: consecutive inner widths make
        # a co-prime one appear within ord(2 mod o) tries
        for i, d, n_in, r in found:
            for extra in range(1, min(ord2, n_in - 2) + 1):
                if fits(r + extra, n_in - extra):
                    yield i, d, n_in - extra, r + extra

    chosen = next((c for c in candidates() if math.gcd(2 ** c[2] - 1, o) == 1),
                  None)
    if chosen is None:
        odd_need = f"the odd part needs {d_min} data cells and " if o > 1 else ""
        raise ValueError(
            f"width {n} too small for radix {m}: {odd_need}"
            f"the binary part needs at least 3 bits")

    i, d, n_in, r = chosen
    bits, odd = _residues(m, d)
    parts = [linear_counter(f2, n_in, r)] + ([odd_counter(o, d)] if o > 1 else [])
    steps = [_ResidueStep(p.next_tape, p.prev_tape, v, m) for p, v in zip(parts, (bits, odd))]
    start = _residue_word([x for p in parts for x in p.start], bits + odd, m, d)
    lengths = {"clock": m ** i, "binary": parts[0].claimed_length,
               "odd": o ** d if o > 1 else 1}
    recipe = {"kind": "general", "m": m, "n": n, "clock": i,
              "binary": {"bits": ell * d, "inner": n_in, "pointer": r},
              "odd": ({"radix": o, "width": d} if o > 1 else None),
              "lengths": lengths}
    # the part lengths are co-prime, so the two-step list closes after their
    # product. The r pointer bits fill the first ceil(r / l) data cells and a
    # row operation touches at most two more
    return cycle_compose(
        StepList(steps, Domain.uniform(m, d), math.prod(p.claimed_length for p in parts)),
        m, i, start,
        claimed_reads=i + max([-(-r // ell) + 2] + [p.claimed_reads for p in parts[1:]]),
        claimed_writes=1 + max(p.claimed_writes for p in parts), recipe=recipe)
