"""Pointer-driven steps on the caller's tape: shifted primitives and residue
steps, the pointer and primitive read orders, bulk reads on every tape
class, the pointer table and its bound, whole-domain agreement with the
materialized trees, the audit walk against a plain reference walk, the
word path against the Tape path, and the input contract at the Counter
boundary."""

import functools
import itertools
import math
import pickle
import random

import pytest

from quasigray import compose
from quasigray.compose import (StepList, _MixedTape, _residues, _ResidueStep,
                               crt_compose, cycle_compose, general_counter,
                               stitch_radix)
from quasigray.core import (Counter, Domain, OffsetTape, StepStats, Tape, _BranchOn,
                            _replay_tape, apply_word, dat_count_nodes, dat_eval,
                            dat_read_complexity, dat_to_json, dat_write_complexity,
                            materialize, measure_counter, tape_step)
from quasigray.graycode import gray_counter, gray_rank, gray_scan, gray_unrank
from quasigray.linear import (AddRow, Field, Scale, _companion_ops, companion_counter,
                              linear_counter)
from quasigray.permdecomp import RFunction, odd_counter
from quasigray.verify import audit


def _rfunctions(m):
    # 0, 1 and 2 sources over 3 cells, targets below and above the sources
    return [
        RFunction(m, 3, (), 1, {(): 1}),
        RFunction(m, 3, (2,), 0, {(a,): (2 * a + 1) % m for a in range(m)}),
        RFunction.product(m, 3, 0, 1, 2),
        RFunction(m, 3, (2, 0), 1, {(a, b): (a + 2 * b) % m
                                    for a in range(m) for b in range(m)}),
    ]


def _row_ops(q):
    f = Field(q)
    ops = [Scale(f, i, c) for i in range(3) for c in range(1, q)]
    ops += [AddRow(f, i, j, c) for i in range(3) for j in range(3) if i != j
            for c in range(1, q)]
    return ops


def _run(step, word):
    tape = Tape(word)
    step.apply_tape(tape)
    return tape.word(), tape.stats()


PRIMITIVES = [(m, p) for m in (2, 3, 4) for p in _rfunctions(m) + _row_ops(m)]


@pytest.mark.parametrize("m,prim", PRIMITIVES, ids=repr)
@pytest.mark.parametrize("d", [1, 2])
def test_shifted_primitive_matches_unshifted(m, prim, d):
    moved = prim.shifted(d)
    back = prim.inverse().shifted(d)
    back_one = prim.shifted(d, inverse=True)
    for w in itertools.product(range(m), repeat=3):
        want, stats = _run(prim, w)
        for prefix in itertools.product(range(m), repeat=d):
            got, got_stats = _run(moved, prefix + w)
            assert got == prefix + want and got_stats == stats
            assert _run(back, got)[0] == prefix + w
            assert _run(back_one, got) == _run(back, got)


class _RecordingTape(Tape):
    """A Tape that logs every cell it reads, in the order read."""

    def __init__(self, word):
        super().__init__(word)
        self.order = []

    def read(self, i: int) -> int:
        self.order.append(i)
        return super().read(i)

    def read_cells(self, cells) -> tuple:
        return tuple(map(self.read, cells))


@pytest.mark.parametrize("r", [12, 14], ids=["table", "past-bound"])
def test_pointer_is_read_top_down_before_any_data_cell(r):
    # a step reads pointer cells r-1 .. 0, each once, and then only data
    # cells: that order is the query order of every pointer-driven tree
    c = linear_counter(Field(2), 4, r)
    rng = random.Random(13)
    words = [tuple(rng.randrange(2) for _ in range(r + 4)) for _ in range(300)]
    words += [gray_unrank(rank, 2, r) + (1, 0, 1, 1) for rank in range(40)]
    for w in words:
        for fn in (c.next_tape, c.prev_tape):
            tape = _RecordingTape(w)
            fn(tape)
            assert tape.order[:r] == list(range(r - 1, -1, -1))
            assert all(j >= r for j in tape.order[r:])


class _LoggingTape(Tape):
    """A Tape that logs each read and write, in order, as ("r", i) or ("w", i)."""

    def __init__(self, word):
        super().__init__(word)
        self.log = []

    def read(self, i: int) -> int:
        self.log.append(("r", i))
        return super().read(i)

    def write(self, i: int, v: int) -> None:
        self.log.append(("w", i))
        super().write(i, v)


def _one_cell_steps():
    # RFunctions with 0 to 3 sources over radix 3 and 4, and Scale and
    # AddRow over F_3 and F_4, sources below and above the target
    out = []
    for m in (3, 4):
        for src, t in [((), 2), ((4,), 1), ((3, 0), 4), ((1, 4, 2), 0)]:
            table = {k: (sum(k) + 1) % m for k in itertools.product(range(m), repeat=len(src))}
            out.append(RFunction(m, 5, src, t, table))
        f = Field(m)
        out += [Scale(f, 3, m - 1), AddRow(f, 1, 4, 2), AddRow(f, 4, 0, 1)]
    return out


def _sources_target(p):
    if isinstance(p, RFunction):
        return p.sources, p.target
    return ((p.j,), p.i) if isinstance(p, AddRow) else ((), p.i)


@pytest.mark.parametrize("prim", _one_cell_steps(), ids=repr)
@pytest.mark.parametrize("view", ["tape", "offset", "mixed"])
def test_primitive_reads_its_sources_in_order_then_its_target(prim, view):
    # apply_tape reads the sources in order, then the target, and writes the
    # target once, on the tape's own read and write: a Tape subclass that
    # overrides them sees every subscript. The word form is built once
    q = prim.m if isinstance(prim, RFunction) else prim.field.q
    rng = random.Random(5)
    for p in (prim, prim.inverse(), prim.shifted(2), prim.shifted(2, inverse=True)):
        assert p.word_fn() is p.word_fn()
        src, t = _sources_target(p)
        n = max((*src, t)) + 1
        word = tuple(rng.randrange(q) for _ in range(n))
        if view == "tape":
            cell = list(range(n))
            base = tape = _LoggingTape(word)
        elif view == "offset":
            cell = [v + 3 for v in range(n)]
            base = _LoggingTape((0, 1, 2) + word)
            tape = OffsetTape(base, 3)
        else:  # virtual cell v is physical cell n-1-v
            cell = list(range(n - 1, -1, -1))
            base = _LoggingTape(word[::-1])
            tape = _MixedTape(base, tuple((c, 1, q, 1) for c in cell), q)
        p.apply_tape(tape)
        # a _MixedTape reads a cell's digit again to write its residue
        again = [("r", cell[t])] if view == "mixed" else []
        assert base.log == ([("r", cell[s]) for s in src] + [("r", cell[t])] + again
                            + [("w", cell[t])])
        assert [base.cells[c] for c in cell] == list(p.apply(word))


def _crt84():
    return crt_compose([gray_counter(2, 2), gray_counter(3, 1),
                        companion_counter(Field(2), 3)])


# (counter, (nodes, depth, largest leaf) of both its next and prev tree).
# The shapes are pinned so that a change to how steps run on the tape
# cannot change the trees. odd(3,11) is the smallest odd counter
# (min_width(3) == 11).
WHOLE_DOMAIN = {
    "odd(3,11)": (lambda: odd_counter(3, 11), (5554, 8, 2)),
    "linear(F2,5)": (lambda: linear_counter(Field(2), 5), (97, 6, 2)),
    "linear(F4,2)": (lambda: linear_counter(Field(4), 2), (49, 3, 2)),
    "base(3,4)": (lambda: gray_counter(3, 4), (121, 4, 1)),
    "general(4,6)": (lambda: general_counter(4, 6), (305, 5, 3)),
    "crt(84)": (_crt84, (24, 5, 4)),
    "stitch(2,linear(F2,3,3))": (lambda: stitch_radix(2, linear_counter(Field(2), 3, 3)),
                                 (61, 3, 2)),
}


@pytest.mark.parametrize("label", list(WHOLE_DOMAIN))
def test_counter_agrees_with_its_trees_on_every_word(label):
    make, shape = WHOLE_DOMAIN[label]
    c = make()
    tn = materialize(c.next_tape, c.domain)
    tp = materialize(c.prev_tape, c.domain)
    for tree in (tn, tp):
        assert (dat_count_nodes(tree), dat_read_complexity(tree),
                dat_write_complexity(tree)) == shape
    for w in c.domain.words():
        nxt = c.next(w)
        prv = c.prev(w)
        assert nxt == dat_eval(tn, w) and prv == dat_eval(tp, w)
        assert c.prev(nxt[0])[0] == w
        for st in (nxt[1], prv[1]):
            assert isinstance(st, StepStats)
            assert st.reads <= c.claimed_reads and st.writes <= c.claimed_writes


def _reference_walk(c, direction, max_steps):
    """measure_counter's walk written plainly: a fresh Tape per step
    (tape_step), Domain.rank of every word and a set of visited ranks."""
    fn = c.next_tape if direction == "next" else c.prev_tape
    limit = c.claimed_length if max_steps is None else max_steps
    w = c.start
    seen = {c.domain.rank(w)}
    steps = max_reads = max_writes = 0
    distinct, closed = True, False
    while steps < limit:
        w, st = tape_step(fn, w)
        steps += 1
        max_reads = max(max_reads, st.reads)
        max_writes = max(max_writes, st.writes)
        if w == c.start:
            closed = True
            break
        rk = c.domain.rank(w)
        if rk in seen:
            distinct = False
            break
        seen.add(rk)
    return (steps, max_reads, max_writes, distinct, closed, not closed and distinct), seen


def _revisiting():
    # 0 -> 1 -> 2 -> 1: falls into a loop that skips the start
    return Counter(Domain.uniform(3, 1),
                   lambda t: t.write(0, {0: 1, 1: 2, 2: 1}[t.read(0)]),
                   lambda t: None, 3, (0,))


def _short_cycle():
    base = gray_counter(2, 2)
    return Counter(base.domain, base.next_tape, base.prev_tape, 8, base.start)


# (counter, max_steps): every whole-domain counter, a counter with missing
# words, and walks that close early, revisit a word or run out of steps
WALKS = {**{label: (make, None) for label, (make, _) in WHOLE_DOMAIN.items()},
         "linear(F2,2,3)": (lambda: linear_counter(Field(2), 2, 3), None),
         "short-cycle": (_short_cycle, None),
         "revisit": (_revisiting, None),
         "truncated": (lambda: gray_counter(2, 4), 5)}


@pytest.mark.parametrize("direction", ["next", "prev"])
@pytest.mark.parametrize("label", list(WALKS))
def test_walk_matches_a_plain_reference_walk(label, direction):
    make, max_steps = WALKS[label]
    c = make()
    rep = measure_counter(c, max_steps=max_steps, direction=direction)
    want, seen = _reference_walk(c, direction, max_steps)
    assert (rep.observed_length, rep.max_reads, rep.max_writes, rep.distinct,
            rep.closed, rep.truncated) == want
    ranks = range(-1, c.domain.size + 1)
    assert [rk in rep.visited_ranks for rk in ranks] == [rk in seen for rk in ranks]
    if direction == "prev":
        return
    missing = [c.domain.unrank(rk) for rk in range(c.domain.size) if rk not in seen]
    if not (rep.closed and rep.distinct):
        missing = []
    for cap in (3, c.domain.size) if missing else (10,):
        assert audit(c, max_steps=max_steps, sample_cap=cap).missing_sample == missing[:cap]


WRONG_LENGTH = {
    "base": lambda: gray_counter(3, 3),
    "linear": lambda: linear_counter(Field(2), 4),
    "odd": lambda: odd_counter(3, 11),
    "general": lambda: general_counter(4, 6),
    "crt": _crt84,
}


@pytest.mark.parametrize("kind", list(WRONG_LENGTH))
def test_counter_rejects_wrong_length_words(kind):
    c = WRONG_LENGTH[kind]()
    for word in (c.start[:-1], c.start + (0,)):
        with pytest.raises(ValueError, match="digits"):
            c.next(word)
        with pytest.raises(ValueError, match="digits"):
            c.prev(word)


def test_step_stats_is_a_light_value():
    st = StepStats(3, 2)
    assert (st.reads, st.writes) == (3, 2)
    assert st == StepStats(3, 2) and st != StepStats(2, 3)
    assert hash(st) == hash(StepStats(3, 2))
    assert not hasattr(st, "__dict__")


def _residue_step(part, view, m):
    return _ResidueStep(part.next_tape, part.prev_tape, view, m)


def _residue_steps(m):
    # (data cells, l, o, [(part, step)]) for m = 2^l * o: residue steps over
    # 3 (m = 6) or 2 (m = 4) radix-m data cells, a linear counter on the
    # bits of their residues mod 2^l and, for m = 6, a Gray counter on
    # their residues mod 3
    if m == 6:
        bits, odd_view = _residues(6, 3)
        binary = linear_counter(Field(2), 2, 1)
        odd = gray_counter(3, 3)
        return 3, 1, 3, [(binary, _residue_step(binary, bits, 6)),
                         (odd, _residue_step(odd, odd_view, 6))]
    bits, _ = _residues(4, 2)
    binary = linear_counter(Field(2), 2, 2)
    return 2, 2, 1, [(binary, _residue_step(binary, bits, 4))]


@pytest.mark.parametrize("m", [6, 4])
def test_residue_step_shifted_matches_unshifted(m):
    n_data, ell, o, steps = _residue_steps(m)
    shifts = range(ell - 1, -1, -1)

    def bits_of(w):
        return tuple(x >> s & 1 for x in w for s in shifts)

    def odd_of(w):
        return tuple(x % o for x in w)

    for part, step in steps:
        # every coordinate of a bit view has q = 2, of an odd view q = o
        assert {q for _, _, q, _ in step.view} in ({2}, {o})
        seen, other = (bits_of, odd_of) if step.view[0][2] == 2 else (odd_of, bits_of)
        for w in itertools.product(range(m), repeat=n_data):
            want, stats = _run(step, w)
            # the part's whole next step on the residues the step shows it;
            # the other residue of every cell stays
            assert seen(want) == part.next(seen(w))[0]
            assert other(want) == other(w)
            for d in (1, 2):
                moved = step.shifted(d)
                back = step.shifted(d, inverse=True)
                for prefix in itertools.product(range(m), repeat=d):
                    got, got_stats = _run(moved, prefix + w)
                    assert got == prefix + want and got_stats == stats
                    assert _run(back, got)[0] == prefix + w


@pytest.mark.parametrize("m", [6, 4])
def test_residue_steps_under_cycle_compose_agree_with_trees(m):
    n_data, _, _, steps = _residue_steps(m)
    ell = math.lcm(*(part.claimed_length for part, _ in steps))
    c = cycle_compose(StepList([s for _, s in steps], Domain.uniform(m, n_data), ell),
                      m, 1, (0,) * n_data)
    tn = materialize(c.next_tape, c.domain)
    tp = materialize(c.prev_tape, c.domain)
    for w in c.domain.words():
        nxt = c.next(w)
        assert nxt == dat_eval(tn, w) and c.prev(w) == dat_eval(tp, w)
        assert c.prev(nxt[0])[0] == w


WORD = (4, 1, 5, 0, 3, 2)
CELL_ORDERS = [(), (3,), (5, 4, 3, 2, 1, 0), (2, 0, 2, 4), range(5, 0, -2)]


def _mixed(tape):
    # radix-6 cells 0..2 seen as 3 bits (residues mod 2), then 3 residues mod 3
    bits, odd = _residues(6, 3)
    return _MixedTape(tape, bits + odd, 6)


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 24])
def test_residue_views_read_and_write_by_one_formula(m):
    # every coordinate of both views of two radix-m cells, m = 2^l * o, on
    # every digit x in -1 .. m of its cell: the read is bit s of x or x mod
    # o, and writing any v in 0 .. q-1 gives the cell the residue mod m
    # that recombines the new bits with the old residue mod o, or the old
    # bits with v, leaving the other cell as it was
    ell = (m & -m).bit_length() - 1
    o, two = m >> ell, 1 << ell

    def recombine(a, b):
        # the residue mod m that is a mod 2^l and b mod o
        return (a * o * pow(o, -1, two) + b * two * pow(two, -1, o)) % m

    bits, odd = _residues(m, 2)
    view = bits + odd
    assert len(bits) == 2 * ell and len(odd) == (2 if o > 1 else 0)
    for j, (cell, _, q, _) in enumerate(view):
        is_bit = j < len(bits)
        assert cell == (j // ell if is_bit else j - len(bits))
        assert q == (2 if is_bit else o)
        s = ell - 1 - j % ell
        for x in range(-1, m + 1):
            word = [(3 * x + 1) % m] * 2
            word[cell] = x
            assert _MixedTape(Tape(word), view, m).read(j) == (x >> s & 1 if is_bit
                                                               else x % o)
            for v in range(q):
                tape = Tape(word)
                _MixedTape(tape, view, m).write(j, v)
                want = list(word)
                want[cell] = (recombine(x & ~(1 << s) | v << s, x) if is_bit
                              else recombine(x, v))
                assert tape.word() == tuple(want)


@pytest.mark.parametrize("k", [2, 3])
def test_stitch_steps_see_the_bit_view(k):
    # radix 4 and 8, o = 1: a stitch step is its inner step on the bit view
    inner = linear_counter(Field(2), 3, 3)
    c = stitch_radix(k, inner)
    bits, odd = _residues(2 ** k, 6 // k)
    assert odd == ()
    assert c.next_tape.args == (_ResidueStep(inner.next_tape, inner.prev_tape, bits, 2 ** k),)
    assert c.prev_tape.args == (_ResidueStep(inner.prev_tape, inner.next_tape, bits, 2 ** k),)


@pytest.mark.parametrize("cells", CELL_ORDERS, ids=repr)
@pytest.mark.parametrize("written", [None, 2], ids=["fresh", "after-write"])
@pytest.mark.parametrize("view", ["tape", "offset", "mixed"])
def test_read_cells_matches_per_cell_reads(view, written, cells):
    def make():
        base = Tape(WORD)
        if written is not None:
            base.write(written, 1)  # reading it back afterwards is free
        if view == "offset":
            return base, OffsetTape(base, 1)
        return base, (_mixed(base) if view == "mixed" else base)

    if view == "offset":
        cells = [c for c in cells if c < 5]
    base, tape = make()
    ref_base, ref = make()
    got = tape.read_cells(cells)
    assert type(got) is tuple
    assert got == tuple(ref.read(c) for c in cells)
    assert base.reads == ref_base.reads and base.written == ref_base.written
    assert base.writes == ref_base.writes == (written is not None)
    assert base.word() == ref_base.word()


def test_read_cells_on_probe_tape_raises_at_first_unknown_cell():
    probe = _replay_tape({0: 2, 3: 1})
    probe.write(5, 4)
    assert probe.read_cells((5, 3, 0, 3)) == (4, 1, 2, 1)
    for cells, first in [((3, 1, 2), 1), ((2, 1), 2), ((0, 5, 4, 1), 4)]:
        with pytest.raises(_BranchOn) as exc:
            probe.read_cells(cells)
        assert exc.value.coord == first
    assert probe.cells.assigns == [(5, 4)]


@pytest.mark.parametrize("r", [12, 14], ids=["table", "past-bound"])
def test_steps_either_side_of_the_pointer_table_bound(r):
    # 2^12 pointer words fill the table exactly; 2^14 are past its bound.
    # Up to 5,000 distinct pointer ranks, every rank that runs a step or its
    # inverse among them
    q, n = 2, 4
    c = linear_counter(Field(q), n, r)
    ops = _companion_ops(q, n)[1]
    k, size = len(ops), q ** r
    rng = random.Random(9)
    ranks = list(range(k + 1)) + rng.sample(range(k + 1, size), min(size, 5000) - k - 1)
    rng.shuffle(ranks)
    for rank in ranks:
        data = tuple(rng.randrange(q) for _ in range(n))
        w = gray_unrank(rank, q, r) + data
        nxt, st_n = c.next(w)
        assert gray_rank(nxt[:r], q, r) == (rank + 1) % size
        assert nxt[r:] == (apply_word(ops[rank], data) if rank < k else data)
        prv, st_p = c.prev(w)
        back = (rank - 1) % size
        assert gray_rank(prv[:r], q, r) == back
        assert prv[r:] == (apply_word(ops[back].inverse(), data) if back < k else data)
        assert c.prev(nxt)[0] == w and c.next(prv)[0] == w
        for st in (st_n, st_p):
            assert st.reads <= c.claimed_reads and st.writes <= c.claimed_writes


class _Idle:
    """A step that changes nothing and logs the inverses shifted from it."""

    def __init__(self, idx, log):
        self.idx, self.log = idx, log

    def apply_tape(self, tape):
        pass

    def shifted(self, d, inverse=False):
        if inverse:
            self.log.append(self.idx)
        return self


@pytest.mark.parametrize("r", [12, 13], ids=["table", "past-bound"])
def test_inverses_are_shifted_once_and_only_for_prev(r):
    shifted_inverses = []
    k = 2 ** r - 100
    c = cycle_compose(StepList([_Idle(i, shifted_inverses) for i in range(k)],
                               Domain((2,)), 1), 2, r, (0,))
    w = c.start
    for _ in range(2 ** r):
        w, _ = c.next(w)
    assert w == c.start and shifted_inverses == []
    for _ in range(2 * 2 ** r):
        w, _ = c.prev(w)
    assert sorted(shifted_inverses) == list(range(k))


@pytest.mark.parametrize("r,scans_per_word", [(6, 2), (7, 4)], ids=["table", "past-bound"])
def test_only_pointers_within_the_bound_build_a_table(monkeypatch, r, scans_per_word):
    # with the bound lowered to 64 words, a 2^6-word pointer scans each word
    # once per direction, on its first step that way; a 2^7-word pointer
    # scans on every step. Two revolutions each way tell the two apart
    scans = []

    def counting_scan(ptr, m):
        scans.append(1)
        return gray_scan(ptr, m)

    monkeypatch.setattr(compose, "_TABLE_BOUND", 64)
    monkeypatch.setattr(compose, "gray_scan", counting_scan)
    c = cycle_compose(StepList([_Idle(i, []) for i in range(50)], Domain((2,)), 1),
                      2, r, (0,))
    w = c.start
    for _ in range(2 * 2 ** r):
        w, _ = c.next(w)
    for _ in range(2 * 2 ** r):
        w, _ = c.prev(w)
    assert w == c.start and len(scans) == scans_per_word * 2 ** r


BOTH_SIDES = {label: WHOLE_DOMAIN[label][0] for label in
              ("linear(F2,5)", "linear(F4,2)", "general(4,6)", "stitch(2,linear(F2,3,3))")}


@pytest.mark.parametrize("label", list(BOTH_SIDES))
def test_one_pointer_step_on_either_side_of_the_bound(monkeypatch, label):
    # built with the table bound at 1 word, every pointer is past it: no
    # table entry is stored and no word path is built, yet each Tape step
    # and both materialized trees match the default build's
    within = BOTH_SIDES[label]()
    monkeypatch.setattr(compose, "_TABLE_BOUND", 1)
    past = BOTH_SIDES[label]()
    assert _has_word_path(within) and not _has_word_path(past)
    for fn, past_fn in ((within.next_tape, past.next_tape),
                        (within.prev_tape, past.prev_tape)):
        for w in within.domain.words():
            word, cost = tape_step(fn, w)
            past_word, past_cost = tape_step(past_fn, w)
            assert word == past_word and cost is past_cost
        assert (dat_to_json(materialize(fn, within.domain))
                == dat_to_json(materialize(past_fn, past.domain)))
    assert all(not t for t in _tables(past))


def test_step_results_are_step_stats():
    c = linear_counter(Field(2), 3)
    tape = Tape(c.start)
    c.next_tape(tape)
    tree = materialize(c.next_tape, c.domain)
    for st in (c.next(c.start)[1], c.prev(c.start)[1], tape.stats(),
               dat_eval(tree, c.start)[1]):
        assert type(st) is StepStats
        assert st == StepStats(st.reads, st.writes)


def _closed_over(fn, name):
    """The variable name that the closure fn holds."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def _tables(c):
    """The tables of c that hold one entry per key at most, one per
    direction: the table a pointer step's Tape path and word path share
    (keyed by pointer or clock word), or a stitch counter's residue table
    (keyed by inner pointer bits)."""
    tables = {}
    for f in (c.next_tape, c.prev_tape, c._next_word, c._prev_word):
        if "table" in getattr(f, "__code__", _tables.__code__).co_freevars:
            table = _closed_over(f, "table")
            tables[id(table)] = table
    return list(tables.values())


def _word_paths(word_fn):
    """{pointer word: the word path its entry holds} in the table of
    word_fn, one direction of a pointer step's word path: the entries of
    data steps with no word form, each filled with no cost."""
    return {key: e[3] for key, e in _closed_over(word_fn, "table").items()
            if e[3] is not None and e[4] is None}


def _has_word_path(c):
    return (getattr(c.next_tape, "word_step", None) is not None
            and getattr(c.prev_tape, "word_step", None) is not None)


def _pointer_words(c):
    """How many keys each table of c can hold: m^r for the Gray pointer (or
    clock) on the first r cells of c, the clock's words for a crt product,
    the inner pointer's bit words for a stitch counter."""
    rec = c.recipe
    if rec["kind"] == "crt":
        rec = rec["components"][0]
        return rec["m"] ** rec["n"]
    if rec["kind"] == "stitch":
        return 2 ** rec["inner"]["r"]
    r = rec.get("clock") or rec.get("pointer") or rec.get("r")
    return c.domain.radices[0] ** r


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001
        return type(e)


@pytest.mark.parametrize("m,prim", PRIMITIVES, ids=repr)
def test_word_fn_matches_apply_tape(m, prim):
    # every word of digits -1 .. m+1, in range and out of it, for the
    # primitive over 3 cells and its inverse moved one cell up
    for p, n in ((prim, 3), (prim.shifted(1, inverse=True), 4)):
        f = p.word_fn()
        for w in itertools.product(range(-1, m + 2), repeat=n):
            cells = list(w)
            f(cells)
            assert tuple(cells) == apply_word(p, w)


@pytest.mark.parametrize("m,prim", PRIMITIVES, ids=repr)
def test_primitive_pickles_after_its_word_fn_is_built(m, prim):
    # the cached form is left out and built again: the copy has the same
    # fields, and the same word on every word of digits 0 .. m-1
    for p in (prim, prim.shifted(1, inverse=True)):
        p.word_fn()
        copy = pickle.loads(pickle.dumps(p))
        assert type(copy) is type(p) and copy.__getstate__() == p.__getstate__()
        assert not isinstance(p, (Scale, AddRow)) or copy == p
        for w in itertools.product(range(m), repeat=p.n if isinstance(p, RFunction) else 4):
            assert apply_word(copy, w) == apply_word(p, w)


@pytest.mark.parametrize("label", list(WHOLE_DOMAIN))
def test_word_path_matches_tape_path_on_every_word(label):
    c = WHOLE_DOMAIN[label][0]()
    for w in c.domain.words():
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            word, cost = step(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost
    assert _has_word_path(c)
    if label.startswith("base"):
        return
    # every word was stepped, so each table holds one entry per key
    tables = _tables(c)
    assert [len(t) for t in tables] == [_pointer_words(c)] * len(tables)
    if label.startswith("crt"):
        # 2 of the 4 clock words trigger a component each way and delegate
        # to its word path, which caches the one cost its component's steps
        # all have
        for fn in (c._next_word, c._prev_word):
            paths = _word_paths(fn)
            assert [len(_closed_over(p, "costs")) for p in paths.values()] == [1, 1]
        return
    if label.startswith("stitch"):
        # every inner pointer word has a word form
        assert all(all(t.values()) for t in tables)
        return
    # Only the general counter's residue step (rank 0; its odd part is 1)
    # has no fixed cost: its entry holds the residue step's own word path,
    # one entry per inner pointer word. The other ranks only move the
    # pointer
    for fn in (c._next_word, c._prev_word):
        table, paths = _closed_over(fn, "table"), _word_paths(fn)
        pointer_only = [e for e in table.values() if e[0] is None]
        if label.startswith("general"):
            assert len(paths) == 1 and len(pointer_only) == len(table) - 1
            (residue,) = paths.values()
            inner = _closed_over(residue, "table")
            assert len(inner) == 2 ** c.recipe["binary"]["pointer"]
            assert all(inner.values())
        else:
            assert not paths


class _Liar:
    """A step whose word form adds 1 where its tape form adds 2, mod q."""

    def __init__(self, d=0, q=5):
        self.d, self.q = d, q

    def apply_tape(self, tape):
        tape.write(self.d, (tape.read(self.d) + 2) % self.q)

    def shifted(self, d, inverse=False):
        return _Liar(self.d + d, self.q)

    def word_fn(self):
        d, q = self.d, self.q

        def f(cells):
            cells[d] = (cells[d] + 1) % q
        return f


def test_word_form_that_disagrees_with_its_tape_run_raises():
    c = cycle_compose(StepList([_Liar()], Domain((5,)), 5), 2, 1, (0,))
    with pytest.raises(RuntimeError, match="word form"):
        c.next(c.start)


def test_residue_step_over_a_lying_inner_counter_raises():
    # the inner counter's rank-0 step lies on bits; stitched in blocks of 2,
    # the first step on a word with inner pointer bit 0 raises, both ways
    inner = cycle_compose(StepList([_Liar(q=2)], Domain((2, 2, 2)), 1), 2, 1, (0, 0, 1))
    for step in ("next", "prev"):
        c = stitch_radix(2, inner)
        with pytest.raises(RuntimeError, match="word form"):
            getattr(c, step)((0, 1) if step == "next" else (2, 1))


class _OrForXor:
    """x_d ^= x_s on a Tape, whose word form sets x_d |= x_s: the two agree
    unless both bits are 1. Its own inverse."""

    def __init__(self, s=1, d=0):
        self.s, self.d = s, d

    def apply_tape(self, tape):
        tape.write(self.d, tape.read(self.d) ^ tape.read(self.s))

    def shifted(self, d, inverse=False):
        return _OrForXor(self.s + d, self.d + d)

    def word_fn(self):
        s, d = self.s, self.d

        def f(cells):
            cells[d] |= cells[s]
        return f


@pytest.mark.parametrize("direction", ["next", "prev"])
def test_residue_word_path_that_fails_its_check_raises_every_time(direction):
    # the inner entry is filled from a word where both forms agree; on the
    # stitched word both data bits are 1, so the residue check fails, on the
    # first call and on every retry, and nothing unchecked is stored
    inner = cycle_compose(StepList([_OrForXor()], Domain((2, 2, 2)), 1), 2, 1, (0, 0, 1))
    c = stitch_radix(2, inner)
    if direction == "next":
        assert inner.next((0, 0, 1, 0)) == tape_step(inner.next_tape, (0, 0, 1, 0))
        word, want, step, fn = (1, 2), (2, 2), c._next_word, c.next_tape
    else:
        assert inner.prev((1, 0, 1, 0)) == tape_step(inner.prev_tape, (1, 0, 1, 0))
        word, want, step, fn = (3, 2), (0, 2), c._prev_word, c.prev_tape
    assert tape_step(fn, word)[0] == want
    for _ in range(3):
        with pytest.raises(RuntimeError, match="word form"):
            step(word)
    assert not _closed_over(step, "table")


# stitch counters over general counters: the inner rank-0 step is a
# residue step with no word_fn, so its inner pointer bits key a () entry
RESIDUE_OVER_GENERAL = {
    "stitch(2,general(2,6))": lambda: stitch_radix(2, general_counter(2, 6)),
    "stitch(3,general(2,6))": lambda: stitch_radix(3, general_counter(2, 6)),
    "stitch(2,general(2,8))": lambda: stitch_radix(2, general_counter(2, 8)),
}


@pytest.mark.parametrize("label", list(RESIDUE_OVER_GENERAL))
def test_residue_word_path_over_an_inner_step_without_word_form(label):
    # every word, both ways: the word path gives the Tape's word and cost,
    # and each direction's table holds one () entry among the inner
    # clock's 2^clock pointer words
    c = RESIDUE_OVER_GENERAL[label]()
    assert _has_word_path(c)
    for w in c.domain.words():
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            word, cost = step(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost
    for t in _tables(c):
        assert len(t) == 2 ** c.recipe["inner"]["clock"]
        assert [e for e in t.values() if not e] == [()]
    assert audit(c).ok


class _Steps:
    """A step sequence that may be measured with len() and indexed from 0,
    but not iterated."""

    def __init__(self, steps):
        self._steps = steps

    def __len__(self):
        return len(self._steps)

    def __getitem__(self, j):
        assert 0 <= j < len(self._steps)
        return self._steps[j]

    def __iter__(self):
        raise AssertionError("the step list was iterated")


class _Logged:
    """A step that changes nothing, has a word form, and logs every shift
    made from it as (index, inverse)."""

    def __init__(self, idx, log):
        self.idx, self.log = idx, log

    def apply_tape(self, tape):
        pass

    def shifted(self, d, inverse=False):
        self.log.append((self.idx, inverse))
        return self

    def word_fn(self):
        return lambda cells: None


@pytest.mark.parametrize("r", [12, 13], ids=["table", "past-bound"])
def test_steps_are_shifted_on_first_use_from_an_indexed_sequence(r):
    # building shifts nothing. A next walk shifts step j on rank j's first
    # step and never again; a prev walk shifts each inverse once, and next
    # never shifts one
    log = []
    k, size = 2 ** r - 100, 2 ** r
    c = cycle_compose(StepList(_Steps([_Logged(i, log) for i in range(k)]),
                               Domain((2,)), 1), 2, r, (0,))
    assert log == []
    w = c.start
    for rank in range(2 * size):
        w, _ = c.next(w)
        assert len(log) == min(rank + 1, k) and log[-1] == (min(rank, k - 1), False)
    for rank in range(2 * size):
        w, _ = c.prev(w)
    assert w == c.start
    assert log[:k] == [(j, False) for j in range(k)]
    assert log[k:] == [(j, True) for j in range(k - 1, -1, -1)]


def _lying_counter():
    """A Counter over Z_5 whose Tape steps add 2 and whose word path adds 1."""
    def tape_fn(delta):
        def fn(tape):
            tape.write(0, (tape.read(0) + 2 * delta) % 5)
        fn.word_step = lambda w: (((w[0] + delta) % 5,), StepStats(1, 1))
        return fn

    return Counter(Domain((5,)), tape_fn(1), tape_fn(-1), 5, (0,),
                   claimed_reads=1, claimed_writes=1)


def test_crt_component_whose_word_path_lies_raises():
    # the clock word 0 triggers the component: next leaves it, prev enters it
    for step, w in (("next", (0, 0)), ("prev", (1, 0))):
        c = crt_compose([gray_counter(2, 1), _lying_counter()])
        assert c.next_tape.word_step is not None
        with pytest.raises(RuntimeError, match="word form"):
            getattr(c, step)(w)


# counters too big for WHOLE_DOMAIN, checked on seeded words
BIG = {
    "general(6,12)": lambda: general_counter(6, 12),
    "general(12,12)": lambda: general_counter(12, 12),
    "general(10,14)": lambda: general_counter(10, 14),
    "crt[base(6,2),linear(F2,5),odd(3,11)]": lambda: crt_compose([
        gray_counter(6, 2), linear_counter(Field(2), 5), odd_counter(3, 11)]),
}


@pytest.mark.parametrize("label", list(BIG))
def test_word_path_matches_tape_path_on_seeded_words(label):
    # 5,000 words of a Tape-path walk from the start, then 5,000 random words
    c = BIG[label]()
    assert _has_word_path(c)
    rng = random.Random(17)
    words = [c.start]
    for _ in range(4999):
        words.append(tape_step(c.next_tape, words[-1])[0])
    words += [tuple(rng.randrange(b) for b in c.domain.radices) for _ in range(5000)]
    for w in words:
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            word, cost = step(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost


def _rank_words(c, j):
    """{word path of c: the pointer word, in its key order, whose step in
    that direction is step j of the list}: rank j runs it on next, and
    rank j + 1 its inverse on prev."""
    m, i = c.recipe["m"], c.recipe["clock"]
    return {c._next_word: gray_unrank(j, m, i)[::-1],
            c._prev_word: gray_unrank(j + 1, m, i)[::-1]}


def _odd_table(word_fn, key):
    return _closed_over(_word_paths(word_fn)[key], "table")


def _assert_filled_in_one_pass(c, j, keys):
    # the first step of residue step j in each direction fills the entry of
    # its own key; a step with a second key fills all keys entries, one per
    # inner pointer word, each with a word form; 20,000 further steps each
    # way add none
    m, i = c.recipe["m"], c.recipe["clock"]
    tables = []
    for word_fn, key in _rank_words(c, j).items():
        w = key[::-1] + c.start[i:]
        fn = c.next_tape if word_fn is c._next_word else c.prev_tape
        assert word_fn(w) == tape_step(fn, w)
        table = _odd_table(word_fn, key)
        assert len(table) == 1 and all(table.values())
        # one more on the first data cell changes its bits and residue mod o
        w = w[:i] + ((w[i] + 1) % m,) + w[i + 1:]
        assert word_fn(w) == tape_step(fn, w)
        assert len(table) == keys and all(table.values())
        tables.append((table, dict(table)))
    for step in (c.next, c.prev):
        w = c.start
        for _ in range(20_000):
            w, _ = step(w)
    for table, before in tables:
        assert table == before


@pytest.mark.parametrize("label", ["general(6,12)", "general(10,14)"])
def test_odd_residue_table_is_filled_in_one_pass(label):
    c = BIG[label]()
    rec = c.recipe
    o = rec["odd"]["radix"]
    width = odd_counter(o, rec["odd"]["width"]).recipe["pointer"]
    _assert_filled_in_one_pass(c, 1, o ** width)


def test_bit_residue_table_is_filled_in_one_pass():
    c = general_counter(4, 8)
    assert c.recipe["binary"]["pointer"] == 5
    _assert_filled_in_one_pass(c, 0, 2 ** 5)


def test_odd_residue_step_over_a_lying_inner_counter_raises():
    # the inner counter's rank-0 step lies on residues mod 3. As the odd
    # step of a pointer-driven list over radix-6 cells, a word whose inner
    # pointer residue runs it raises each way, on every retry, and the odd
    # residue table stores nothing
    inner = cycle_compose(StepList([_Liar(q=3)], Domain((3, 3, 3)), 1), 3, 1, (0, 0, 1))
    _, odd = _residues(6, 4)
    step = _residue_step(inner, odd, 6)
    c = cycle_compose(StepList([step], Domain.uniform(6, 4), 1), 2, 1, (0, 0, 0, 0))
    for word_fn, w in ((c._next_word, (0, 3, 1, 0, 4)), (c._prev_word, (1, 4, 1, 0, 4))):
        for _ in range(3):
            with pytest.raises(RuntimeError, match="word form"):
                word_fn(w)
        assert not _odd_table(word_fn, w[:1])


class _Clamped:
    """x_d += x_s mod 3 on a Tape (-= when inverted), whose word form adds
    min(x_s, 1): the two agree unless x_s is 2."""

    def __init__(self, s=1, d=0, sign=1):
        self.s, self.d, self.sign = s, d, sign

    def apply_tape(self, tape):
        tape.write(self.d, (tape.read(self.d) + self.sign * tape.read(self.s)) % 3)

    def shifted(self, d, inverse=False):
        return _Clamped(self.s + d, self.d + d, -self.sign if inverse else self.sign)

    def word_fn(self):
        s, d, sign = self.s, self.d, self.sign

        def f(cells):
            cells[d] = (cells[d] + sign * min(cells[s], 1)) % 3
        return f


@pytest.mark.parametrize("direction", ["next", "prev"])
def test_odd_residue_word_path_that_fails_its_check_raises_every_time(direction):
    # the inner entry is filled from a word where both forms agree; on the
    # outer word the source residue is 2, so the odd residue check itself
    # fails, on the first call and on every retry, and nothing is stored
    inner = cycle_compose(StepList([_Clamped()], Domain((3, 3, 3)), 1), 3, 1, (0, 0, 0))
    _, odd = _residues(6, 4)
    step = _residue_step(inner, odd, 6)
    c = cycle_compose(StepList([step], Domain.uniform(6, 4), 1), 2, 1, (0, 0, 0, 0))
    if direction == "next":
        assert inner.next((0, 0, 0, 0)) == tape_step(inner.next_tape, (0, 0, 0, 0))
        word_fn, w = c._next_word, (0, 0, 0, 2, 0)
    else:
        assert inner.prev((1, 0, 0, 0)) == tape_step(inner.prev_tape, (1, 0, 0, 0))
        word_fn, w = c._prev_word, (1, 1, 0, 2, 0)
    for _ in range(3):
        with pytest.raises(RuntimeError, match="word form of _ResidueStep"):
            word_fn(w)
    assert not _odd_table(word_fn, w[:1])


@pytest.mark.parametrize("label", ["general(6,12)", "general(10,14)"])
def test_odd_residue_step_on_digits_out_of_range(label):
    # words on the odd rank with digits -1 and m on the odd cells, the
    # first of them filling the table: the word path gives the Tape's word
    # and the identical cost, both ways
    c = BIG[label]()
    m, i = c.recipe["m"], c.recipe["clock"]
    rng = random.Random(29)
    for word_fn, key in _rank_words(c, 1).items():
        fn = c.next_tape if word_fn is c._next_word else c.prev_tape
        for _ in range(500):
            w = list(key[::-1]) + [rng.randrange(m) for _ in range(c.domain.n - i)]
            for j in rng.sample(range(i, c.domain.n), rng.randrange(1, 5)):
                w[j] = rng.choice([-1, m])
            word, cost = word_fn(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost
        assert all(_odd_table(word_fn, key).values())


@pytest.mark.parametrize("kind", ["past-bound", "no-word-form"])
def test_steps_without_a_word_path_match_the_tape_path(kind):
    rng = random.Random(11)
    if kind == "past-bound":
        c = linear_counter(Field(2), 4, 14)
        assert not _has_word_path(c)
        words = [tuple(rng.randrange(2) for _ in range(18)) for _ in range(3000)]
    else:
        c = cycle_compose(StepList([_Idle(i, []) for i in range(50)], Domain((3,)), 1),
                          2, 6, (0,))
        words = list(c.domain.words())
    for w in words:
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            word, cost = step(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost
    if kind == "no-word-form":
        # the 50 ranks that run an _Idle step hold the Tape path
        for word_fn in (c._next_word, c._prev_word):
            paths = _word_paths(word_fn)
            assert len(paths) == 50
            assert all(isinstance(p, functools.partial) for p in paths.values())


def test_audit_observes_costs_on_a_tape():
    c = linear_counter(Field(2), 5)
    want = audit(linear_counter(Field(2), 5))
    cheap = StepStats(0, 0)
    c._next_word = lambda w: (tape_step(c.next_tape, w)[0], cheap)
    c._prev_word = lambda w: (tape_step(c.prev_tape, w)[0], cheap)
    assert c.next(c.start)[1] == cheap and c.prev(c.start)[1] == cheap
    got = audit(c)
    assert got.to_json() == want.to_json() and got.ok
    assert (got.max_reads, got.max_writes) == (c.claimed_reads, c.claimed_writes)
    back = measure_counter(c, direction="prev")
    assert (back.max_reads, back.max_writes) == (got.max_reads, got.max_writes)


def test_out_of_range_pointer_words_store_no_entry():
    # odd(3,13) has a 6-cell pointer, 729 words. 10k words whose pointer
    # has a digit out of range, stepped on both paths, leave each table at
    # 729 entries or fewer
    c = odd_counter(3, 13)
    r = c.recipe["pointer"]
    rng = random.Random(5)
    for _ in range(10_000):
        ptr = [rng.randrange(3) for _ in range(r)]
        ptr[rng.randrange(r)] = rng.choice([-2, -1, 3, 4, 7])
        w = tuple(ptr) + tuple(rng.randrange(3) for _ in range(13 - r))
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            assert step(w) == tape_step(fn, w)
    for w in itertools.islice(c.domain.words(), 0, None, 997):
        c.next(w)
        c.prev(w)
    assert all(0 < len(t) <= 3 ** r for t in _tables(c))


CONTRACT = {
    "odd(3,11)": lambda: odd_counter(3, 11),
    "linear(F2,5)": lambda: linear_counter(Field(2), 5),
    "linear(F4,2)": lambda: linear_counter(Field(4), 2),
    "base(3,4)": lambda: gray_counter(3, 4),
    "general(4,6)": lambda: general_counter(4, 6),
    "past-bound": lambda: linear_counter(Field(2), 4, 14),
    "crt(84)": _crt84,
    "stitch(2,linear(F2,3,3))": lambda: stitch_radix(2, linear_counter(Field(2), 3, 3)),
    "general(6,12)": lambda: general_counter(6, 12),
}


@pytest.mark.parametrize("label", list(CONTRACT))
def test_lists_and_out_of_range_digits_on_both_paths(label):
    # a word with digits out of range gives the same word, or raises the
    # same exception type, on the word path as on the Tape path, whether it
    # comes as a list or a tuple
    c = CONTRACT[label]()
    radices = c.domain.radices
    rng = random.Random(7)
    for _ in range(2000):
        w = [rng.randrange(b) for b in radices]
        for _ in range(rng.randrange(1, 3)):
            i = rng.randrange(len(w))
            w[i] = rng.choice([-1, -3, radices[i], radices[i] + 2])
        v = [rng.randrange(b) for b in radices]
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            got = _outcome(step, w)
            assert got == _outcome(tape_step, fn, w) == _outcome(step, tuple(w))
            assert type(got[0]) is tuple and len(got[0]) == len(w)
            assert step(v) == step(tuple(v)) == tape_step(fn, v)
    if _has_word_path(c) and c.recipe["kind"] != "base":
        assert all(len(t) <= _pointer_words(c) for t in _tables(c))


def _pointer_cells(c):
    """The cells of c that hold a Gray pointer or crt clock digit, those of
    its crt components included. A word with one of them out of range is
    keyed by no table, so it steps on a Tape every time."""
    rec = c.recipe
    if rec["kind"] == "crt":
        n = rec["components"][0]["n"]
        shift = _closed_over(_closed_over(c.next_tape, "entry"), "shift").__wrapped__
        return set(range(n)).union(
            *({n + s.offset + j for j in _pointer_cells(s.counter)}
              for s in _closed_over(shift, "steps").steps))
    return set(range(rec.get("clock") or rec.get("pointer") or rec.get("r") or 0))


def _bad_data_word(rng, c, pointer, prefix=()):
    """A word of c that starts with prefix, has every pointer cell in range
    and one or two other cells out of range."""
    radices = c.domain.radices
    w = list(prefix) + [rng.randrange(b) for b in radices[len(prefix):]]
    data = [i for i in range(len(w)) if i not in pointer]
    for i in rng.sample(data, rng.randrange(1, 3)):
        w[i] = rng.choice([-1, -3, radices[i], radices[i] + 2])
    return tuple(w)


def _delegates(c, word_fn):
    """{pointer word: the residue or trigger word path it hands its words
    to} for one direction of c's word path; a stitch counter's whole word
    path is one, under the empty pointer word."""
    if c.recipe["kind"] == "stitch":
        return {(): word_fn}
    return {k: d for k, d in _word_paths(word_fn).items()
            if not isinstance(d, functools.partial)}


def _cache(delegate):
    """The table of a residue word path, or the cost cache of a trigger
    word path: one entry per Tape run of the step it stands for."""
    names = delegate.__code__.co_freevars
    return _closed_over(delegate, "table" if "table" in names else "costs")


OUT_OF_RANGE_FIRST = {
    "crt(84)": _crt84,
    "crt(big)": BIG["crt[base(6,2),linear(F2,5),odd(3,11)]"],
    "general(4,6)": lambda: general_counter(4, 6),
    "general(6,12)": BIG["general(6,12)"],
    "general(12,12)": BIG["general(12,12)"],
    "general(10,14)": BIG["general(10,14)"],
    "stitch(2,linear(F2,3,3))": lambda: stitch_radix(2, linear_counter(Field(2), 3, 3)),
    "stitch(3,linear(F2,3,3))": lambda: stitch_radix(3, linear_counter(Field(2), 3, 3)),
}


@pytest.mark.parametrize("label", list(OUT_OF_RANGE_FIRST))
def test_out_of_range_data_digits_take_the_word_path(monkeypatch, label):
    # a fresh counter steps 2,000 words with a data digit out of range
    # first, so they fill its tables, then words in range. Every step gives
    # what its Tape run gives, and no table outgrows its pointer words
    c = OUT_OF_RANGE_FIRST[label]()
    pointer = _pointer_cells(c)
    rng = random.Random(23)
    words = [_bad_data_word(rng, c, pointer) for _ in range(2000)]
    if c.domain.size <= 4096:
        words += c.domain.words()
    else:
        words += [tuple(rng.randrange(b) for b in c.domain.radices) for _ in range(2000)]
    for w in words:
        for step, fn in ((c.next, c.next_tape), (c.prev, c.prev_tape)):
            word, cost = step(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost
    assert all(len(t) <= _pointer_words(c) for t in _tables(c))
    # then such words on a residue or trigger pointer word run the step on
    # a Tape only to observe a cost key its word path does not hold yet
    runs = []
    tape_run = compose.tape_step
    monkeypatch.setattr(compose, "tape_step", lambda fn, w: runs.append(fn) or tape_run(fn, w))
    for word_fn, fn in ((c._next_word, c.next_tape), (c._prev_word, c.prev_tape)):
        delegates = _delegates(c, word_fn)
        caches = [_cache(d) for d in delegates.values()]
        keys = sorted(delegates)
        assert keys
        before = sum(map(len, caches))
        runs.clear()
        for _ in range(1000):
            w = _bad_data_word(rng, c, pointer, rng.choice(keys))
            word, cost = word_fn(w)
            want, want_cost = tape_step(fn, w)
            assert word == want and cost is want_cost
        assert runs.count(fn) <= sum(map(len, caches)) - before
    assert all(len(t) <= _pointer_words(c) for t in _tables(c))


def _iterated(c, word, count, direction):
    """The count words count calls of c.next or c.prev give from word."""
    step = c.next if direction == "next" else c.prev
    out = []
    for _ in range(count):
        word = step(word)[0]
        out.append(word)
    return out


def test_walk_matches_iterated_steps_on_the_zoo():
    # from the start and from one seeded word, over a whole claimed cycle and
    # two steps more: at least one pointer (or base Gray) revolution, so the
    # rank wraps
    from test_fingerprint import _zoo

    rng = random.Random(31)
    for label, c in _zoo():
        count = c.claimed_length + 2
        for w in (c.start, tuple(rng.randrange(b) for b in c.domain.radices)):
            for direction in ("next", "prev"):
                assert c.walk(w, count, direction) == _iterated(c, w, count, direction), (
                    label, w, direction)


@pytest.mark.parametrize("m,r", [(m, r) for m in range(2, 6) for r in range(1, 5)])
def test_gray_walk_matches_iterated_steps_from_every_word(m, r):
    c = gray_counter(m, r)
    assert c.next_tape.word_walk is c._next_walk and c.prev_tape.word_walk is c._prev_walk
    for w in c.domain.words():
        for direction in ("next", "prev"):
            assert c.walk(w, m ** r + 1, direction) == _iterated(c, w, m ** r + 1, direction)


def test_pointer_walk_steps_through_the_table_entries_by_rank():
    # each direction keeps one table, which its Tape path, word path and
    # walk share. After a walk over a whole revolution, the rank list
    # holds, for each rank, the very entry the table holds for its pointer
    # word, filled with its word form and cost
    c = odd_counter(3, 11)
    m, r = 3, c.recipe["pointer"]
    size = m ** r
    assert _closed_over(c.next_tape, "table") is not _closed_over(c.prev_tape, "table")
    for walk, word_fn, tape_fn, direction in (
            (c._next_walk, c._next_word, c.next_tape, "next"),
            (c._prev_walk, c._prev_word, c.prev_tape, "prev")):
        table = _closed_over(tape_fn, "table")
        assert _closed_over(word_fn, "table") is table is _closed_over(walk, "table")
        assert _closed_over(walk, "by_rank") == []  # allocated on the first walk
        c.walk(c.start, size + 1, direction)
        by_rank = _closed_over(walk, "by_rank")
        assert len(by_rank) == len(table) == size
        assert all(by_rank[i] is table[gray_unrank(i, m, r)[::-1]] for i in range(size))
        assert all(len(e) == 5 and type(e[4]) is StepStats for e in by_rank)


FLOAT_TWINS = {
    "odd(3,11)": (lambda: odd_counter(3, 11), 5),
    "linear(F2,5)": (lambda: linear_counter(Field(2), 5), 4),
    "general(4,8)": (lambda: general_counter(4, 8), 1),
    "crt(84)": (_crt84, 2),
}


@pytest.mark.parametrize("label", list(FLOAT_TWINS))
def test_a_float_pointer_word_stores_no_entry(label):
    # for each pointer rank and direction, a fresh counter first steps the
    # word whose pointer digits are floats (a rank that runs a data step
    # raises TypeError there), then the int word of the same rank: next,
    # prev and walk from it give what a counter that never saw a float
    # gives, with int digits only
    make, r = FLOAT_TWINS[label]
    ref = make()
    m = ref.domain.radices[0]
    count = 3
    for rank in range(m ** r):
        word = gray_unrank(rank, m, r) + ref.start[r:]
        twin = tuple(map(float, word[:r])) + word[r:]
        want = [ref.next(word), ref.prev(word)] + [ref.walk(word, count, d)
                                                   for d in ("next", "prev")]
        for direction in ("next", "prev"):
            c = make()
            _outcome(getattr(c, direction), twin)
            got = [c.next(word), c.prev(word)] + [c.walk(word, count, d)
                                                  for d in ("next", "prev")]
            assert got == want, (rank, direction)
            words = [got[0][0], got[1][0], *got[2], *got[3]]
            assert all(type(d) is int for w in words for d in w)


WALK_FALLBACKS = {
    # a pointer digit out of range, negative or not an int
    "base(3,3) digit 3": (lambda: gray_counter(3, 3), (3, 1, 0)),
    "base(3,3) digit -1": (lambda: gray_counter(3, 3), (0, -1, 2)),
    # float digits: the odometer's sums would round unlike _gray_move's
    "base(3,3) digits 1.3, 0.7": (lambda: gray_counter(3, 3), (0, 1.3, 0.7)),
    "odd(3,11) pointer digit 5": (lambda: odd_counter(3, 11), (0, 5) + (1,) * 9),
    "linear(F2,5) pointer digit -1": (lambda: linear_counter(Field(2), 5),
                                      (1, -1, 0, 0, 1, 0, 1, 1, 0)),
    # a float key finds the entry of its int twin, stepped first
    "crt(84) clock digit 1.0": (_crt84, (1.0, 1, 0, 1, 1, 0)),
    # data digits out of range keep the rank walk and its table entries
    "general(4,6) data digit 7": (lambda: general_counter(4, 6), None),
    "crt(84) data digit -3": (_crt84, None),
    # no word_walk: a pointer past the table bound and a stitch counter
    "linear(F2,4,13) past the bound": (lambda: linear_counter(Field(2), 4, r=13), None),
    "stitch(2,linear(F2,3,3))": (lambda: stitch_radix(2, linear_counter(Field(2), 3, 3)),
                                 None),
}


@pytest.mark.parametrize("label", list(WALK_FALLBACKS))
def test_walk_fallbacks_match_iterated_steps(label):
    make, word = WALK_FALLBACKS[label]
    c = make()
    rng = random.Random(41)
    if "data digit" in label:
        word = _bad_data_word(rng, c, _pointer_cells(c))
    words = [word] if word else [c.start, tuple(rng.randrange(b) for b in c.domain.radices)]
    if "past the bound" in label or "stitch" in label:
        assert not hasattr(c.next_tape, "word_walk") and not hasattr(c.prev_tape, "word_walk")
    if label.startswith("crt(84) clock"):
        c.next(tuple(map(int, word)))
        c.prev(tuple(map(int, word)))
    for w in words:
        for direction in ("next", "prev"):
            # the same words, or the same exception
            assert (_outcome(c.walk, w, 300, direction)
                    == _outcome(_iterated, c, w, 300, direction))
            assert c.walk(w, 0, direction) == []


@pytest.mark.parametrize("label", ["base(3,4)", "odd(3,11)", "crt(84)",
                                   "stitch(2,linear(F2,3,3))"])
def test_walk_checks_its_arguments(label):
    c = WHOLE_DOMAIN[label][0]()
    assert c.walk(c.start, 0) == [] and c.walk(list(c.start), 1) == [c.next(c.start)[0]]
    for bad, args in (("expected", (c.start[1:], 2)), ("direction", (c.start, 2, "up")),
                      ("count", (c.start, -1)), ("count", (c.start, 2.0))):
        with pytest.raises(ValueError, match=bad):
            c.walk(*args)


def _inner_pointer_words(c):
    """The most words an inner pointer of the general counter c has: its
    binary part's, or its odd part's when it has one and that is more."""
    rec = c.recipe
    words = [2 ** rec["binary"]["pointer"]]
    if rec["odd"]:
        o, d = rec["odd"]["radix"], rec["odd"]["width"]
        words.append(o ** odd_counter(o, d).recipe["pointer"])
    return max(words)


def _residue_paths(c, direction):
    """The residue word paths the walk of c in direction keeps, one per
    outer rank that runs a binary or odd step, as {rank: path}."""
    walk = c._next_walk if direction == "next" else c._prev_walk
    return {rank: e[3] for rank, e in enumerate(_closed_over(walk, "by_rank"))
            if e is not None and e[4] is None}


def _assert_cursor_holds_the_table(path):
    """The by-rank list of path's cursors holds, for every inner rank, the
    very entry path's table holds for that inner pointer word, and has at
    most _TABLE_BOUND entries."""
    by_rank, table = _closed_over(path.cursor, "by_rank"), _closed_over(path, "table")
    radix, width = (_closed_over(path.cursor, x) for x in ("radix", "width"))
    assert len(by_rank) == radix ** width <= compose._TABLE_BOUND
    assert all(by_rank[i] is table[gray_unrank(i, radix, width)]
               for i in range(radix ** width))


# bit views of 1, 2, 2 and 1 bits a cell, odd views of o = 3, none, 3 and 5
CURSOR_GENERAL = [(6, 12), (4, 8), (12, 12), (10, 14)]


@pytest.mark.parametrize("direction", ["next", "prev"])
@pytest.mark.parametrize("m,n", CURSOR_GENERAL)
def test_general_walk_by_cursor_matches_iterated_steps(m, n, direction):
    # from the start and two seeded words, over 1, 7 and enough steps for
    # each inner pointer to wrap twice
    c = general_counter(m, n)
    wraps = 2 * m ** c.recipe["clock"] * _inner_pointer_words(c) + 3
    rng = random.Random(m * n)
    for w in (c.start, *(tuple(rng.randrange(m) for _ in range(n)) for _ in range(2))):
        for count in (1, 7, wraps):
            assert c.walk(w, count, direction) == _iterated(c, w, count, direction), (w, count)
    # float data digits make no cursor
    i = c.recipe["clock"]
    w = c.start[:i] + tuple(map(float, c.start[i:]))
    assert c.walk(w, 300, direction) == _iterated(c, w, 300, direction)
    paths = _residue_paths(c, direction)
    assert len(paths) == (2 if c.recipe["odd"] else 1)
    for path in paths.values():
        _assert_cursor_holds_the_table(path)


@pytest.mark.parametrize("direction", ["next", "prev"])
def test_warm_walk_calls_no_residue_word_path(direction):
    # after a first chunk, a walk runs the binary and odd steps by cursor
    # alone: the residue word paths, each wrapped in a counter that keeps
    # its cursor, are not called, while iterated steps call them
    c = general_counter(6, 12)
    walk = c._next_walk if direction == "next" else c._prev_walk
    table, by_rank = _closed_over(walk, "table"), _closed_over(walk, "by_rank")
    w = c.walk(c.start, 1024, direction)[-1]
    calls = []
    for rank, path in _residue_paths(c, direction).items():
        def counted(word, path=path):
            calls.append(word)
            return path(word)

        counted.cursor = path.cursor
        e = by_rank[rank]
        table[gray_unrank(rank, 6, 1)[::-1]] = by_rank[rank] = (*e[:3], counted, None)
    got = c.walk(w, 3000, direction)
    assert calls == []
    assert got == _iterated(c, w, 3000, direction) and len(calls) == 1000
