import numpy
import pytest
from hypothesis import given, strategies as st

from quasigray.core import Domain, StepStats, Tape, materialize, measure_counter
from quasigray.core import dat_read_complexity, dat_write_complexity
from quasigray.graycode import (gray_counter, gray_next, gray_prev, gray_rank,
                                gray_scan, gray_unrank)


def test_unrank_frozen_values():
    assert gray_unrank(0, 3, 2) == (0, 0)
    assert gray_unrank(1, 3, 2) == (1, 0)
    assert gray_unrank(3, 3, 2) == (2, 1)
    assert gray_unrank(2, 2, 3) == (1, 1, 0)
    # for m = 2 the difference digits land on the reflected binary code
    assert [gray_unrank(i, 2, 2) for i in range(4)] == [
        (0, 0), (1, 0), (1, 1), (0, 1)]


def test_ternary_square_cycle():
    seq = [gray_unrank(i, 3, 2) for i in range(9)]
    assert seq == [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1),
                   (1, 1), (1, 2), (2, 2), (0, 2)]


def test_unrank_range_errors():
    with pytest.raises(ValueError):
        gray_unrank(9, 3, 2)
    with pytest.raises(ValueError):
        gray_unrank(-1, 3, 2)
    with pytest.raises(ValueError):
        gray_unrank(0, 1, 2)


def test_rank_length_error():
    with pytest.raises(ValueError):
        gray_rank((0, 0, 0), 3, 2)


@pytest.mark.parametrize("m,r", [(2, 2), (2, 5), (3, 3), (4, 2), (5, 2), (6, 2)])
def test_single_increment_per_step(m, r):
    prev = gray_unrank(0, m, r)
    seen = {prev}
    for i in range(1, m ** r):
        cur = gray_unrank(i, m, r)
        diffs = [j for j in range(r) if cur[j] != prev[j]]
        assert len(diffs) == 1
        j = diffs[0]
        assert cur[j] == (prev[j] + 1) % m
        assert cur not in seen
        seen.add(cur)
        prev = cur
    # and the cycle closes with one more +1
    first = gray_unrank(0, m, r)
    diffs = [j for j in range(r) if first[j] != prev[j]]
    assert len(diffs) == 1
    assert first[diffs[0]] == (prev[diffs[0]] + 1) % m


@given(st.integers(2, 9), st.integers(1, 5), st.data())
def test_rank_unrank_inverse(m, r, data):
    i = data.draw(st.integers(0, m ** r - 1))
    assert gray_rank(gray_unrank(i, m, r), m, r) == i


@given(st.integers(2, 9), st.integers(1, 5), st.data())
def test_next_prev_inverse(m, r, data):
    i = data.draw(st.integers(0, m ** r - 1))
    w = gray_unrank(i, m, r)
    assert gray_prev(gray_next(w, m, r), m, r) == w
    assert gray_next(gray_prev(w, m, r), m, r) == w


def test_base_gray_code_object():
    assert gray_unrank(8, 3, 2) == (0, 2)  # the last of 9 words
    with pytest.raises(ValueError, match="out of range"):
        gray_unrank(9, 3, 2)
    assert gray_next((0, 0), 3, 2) == (1, 0)
    assert gray_prev((0, 0), 3, 2) == (0, 2)
    assert gray_rank((0, 2), 3, 2) == 8
    with pytest.raises(ValueError, match="need m >= 2 and r >= 1"):
        gray_unrank(0, 1, 2)


@pytest.mark.parametrize("m,r", [(2, 4), (3, 3), (5, 2), (6, 2)])
def test_gray_counter_orbit(m, r):
    c = gray_counter(m, r)
    rep = measure_counter(c)
    assert rep.closed and rep.distinct
    assert rep.observed_length == c.claimed_length == m ** r
    assert rep.max_reads <= c.claimed_reads == r
    assert rep.max_writes <= c.claimed_writes == 1


def test_gray_counter_prev_orbit():
    rep = measure_counter(gray_counter(3, 2), direction="prev")
    assert rep.closed and rep.observed_length == 9
    assert rep.max_writes == 1


def test_gray_counter_tree_complexity():
    c = gray_counter(3, 2)
    tree = materialize(c.next_tape, Domain.uniform(3, 2))
    assert dat_read_complexity(tree) == 2
    assert dat_write_complexity(tree) == 1


def _moved(a, b):
    return [j for j in range(len(a)) if a[j] != b[j]]


@pytest.mark.parametrize("m,r", [(2, 1), (2, 5), (3, 3), (4, 3), (5, 2), (6, 2)])
def test_gray_scan_exhaustive(m, r):
    size = m ** r
    for w in Domain.uniform(m, r).words():
        rank, up, down = gray_scan(list(w), m)
        assert rank == gray_rank(w, m, r) and gray_unrank(rank, m, r) == w
        nxt = gray_unrank((rank + 1) % size, m, r)
        assert _moved(w, nxt) == [up] and nxt[up] == (w[up] + 1) % m
        prv = gray_unrank((rank - 1) % size, m, r)
        assert _moved(w, prv) == [down] and prv[down] == (w[down] - 1) % m
        assert gray_next(w, m, r) == nxt and gray_prev(w, m, r) == prv


@pytest.mark.parametrize("m,r", [(1, 2), (0, 2), (-1, 2), (2, 0), (3, -1)])
def test_bad_pointer_parameters_raise(m, r):
    word = (0,) * max(r, 0)
    for fn in (lambda: gray_rank(word, m, r), lambda: gray_unrank(0, m, r),
               lambda: gray_next(word, m, r), lambda: gray_prev(word, m, r)):
        with pytest.raises(ValueError, match="need m >= 2 and r >= 1"):
            fn()


def test_gray_next_prev_length_error():
    with pytest.raises(ValueError):
        gray_next((0, 0, 0), 3, 2)
    with pytest.raises(ValueError):
        gray_prev((0,), 3, 2)


@pytest.mark.parametrize("word,bad", [((0.5, 1), "digit 0 .* got 0.5"),
                                      (("a", 1), "digit 0 .* got 'a'"),
                                      ((1, 2.0), "digit 1 .* got 2.0"),
                                      ((0, True), "digit 1 .* got True"),
                                      ((0, None), "digit 1 .* got None")])
def test_gray_helpers_refuse_non_integer_digits(word, bad):
    for fn in (gray_rank, gray_next, gray_prev):
        with pytest.raises(ValueError, match=bad):
            fn(word, 3, 2)


def test_gray_helpers_count_out_of_range_digits_mod_m():
    # any int digit counts mod m, numpy ints included
    for word in ((3, 4), (-3, 7), (numpy.int64(3), numpy.int64(-2))):
        same = tuple(int(x) % 3 for x in word)
        assert gray_rank(word, 3, 2) == gray_rank(same, 3, 2)
        assert gray_next(word, 3, 2) == gray_next(same, 3, 2)
        assert gray_prev(word, 3, 2) == gray_prev(same, 3, 2)


class _RecordingTape(Tape):
    """Tape that logs every cell read, in order, bulk reads included."""

    __slots__ = ("order",)

    def __init__(self, word):
        super().__init__(word)
        self.order = []

    def read(self, i):
        self.order.append(i)
        return super().read(i)

    def read_cells(self, cells):
        return tuple(map(self.read, cells))


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("r", range(1, 6))
def test_bottom_up_step_exhaustive(m, r):
    c = gray_counter(m, r)
    size = m ** r
    cost = StepStats(r, 1)
    top_down = list(range(r - 1, -1, -1))
    for w in Domain.uniform(m, r).words():
        nxt, prv = gray_next(w, m, r), gray_prev(w, m, r)
        assert c.next(w) == (nxt, cost) and c.prev(w) == (prv, cost)
        rank = gray_rank(w, m, r)
        assert gray_rank(nxt, m, r) == (rank + 1) % size
        assert gray_rank(prv, m, r) == (rank - 1) % size
        for step, want in ((c.next_tape, nxt), (c.prev_tape, prv)):
            tape = _RecordingTape(w)
            step(tape)
            assert tape.order == top_down and tape.word() == want
