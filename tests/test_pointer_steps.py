"""Pointer-driven steps on the caller's tape: shifted primitives, the
one-pass Gray scan, whole-domain agreement with the materialized trees,
and the word-length check at the Counter boundary."""

import itertools

import pytest

from quasigray.compose import crt_compose, general_counter
from quasigray.core import (StepStats, Tape, dat_count_nodes, dat_eval,
                            dat_read_complexity, dat_write_complexity,
                            materialize)
from quasigray.graycode import gray_counter, gray_scan, gray_scan_read
from quasigray.linear import AddRow, Field, Scale, companion_counter, linear_counter
from quasigray.permdecomp import RFunction, odd_counter


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


@pytest.mark.parametrize("m,r", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_gray_scan_read_one_pass_top_down(m, r):
    cells = range(r - 1, -1, -1)
    for w in itertools.product(range(m), repeat=r):
        order = []

        def read(j, w=w):
            order.append(j)
            return w[j]

        rank, up, g_up, down, g_down = gray_scan_read(read, cells, m)
        assert order == list(cells)
        assert (rank, up, down) == gray_scan(list(w), m)
        assert g_up == w[up] and g_down == w[down]


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
