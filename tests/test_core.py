import tracemalloc

import pytest
from hypothesis import given, strategies as st

from quasigray.core import (Assign, BoundExceeded, Counter, Domain, Query,
                            StepStats, Tape, OffsetTape, dat_count_nodes,
                            dat_eval, dat_from_json, dat_read_complexity,
                            dat_to_json, dat_validate, dat_write_complexity,
                            materialize, measure_counter, word_format,
                            word_parse)
from quasigray.graycode import gray_counter
from quasigray.verify import audit


def test_domain_basics():
    d = Domain((3, 2, 5))
    assert d.n == 3
    assert d.size == 30
    assert d.rank((0, 0, 0)) == 0
    assert d.rank((2, 1, 4)) == 29
    assert d.unrank(29) == (2, 1, 4)
    # coordinate 1 is most significant
    assert d.rank((1, 0, 0)) == 10
    words = list(d.words())
    assert len(words) == 30
    assert [d.rank(w) for w in words] == list(range(30))


def test_domain_rejects_bad_radices():
    with pytest.raises(ValueError):
        Domain(())
    with pytest.raises(ValueError):
        Domain((3, 1))


def test_domain_validate():
    d = Domain.uniform(3, 2)
    d.validate((2, 2))
    with pytest.raises(ValueError):
        d.validate((3, 0))
    with pytest.raises(ValueError):
        d.validate((0, 0, 0))


@given(st.data())
def test_rank_unrank_roundtrip(data):
    radices = tuple(data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=5)))
    d = Domain(radices)
    i = data.draw(st.integers(0, d.size - 1))
    assert d.rank(d.unrank(i)) == i


def test_tape_counts_distinct_reads():
    t = Tape((4, 5, 6))
    assert t.read(1) == 5
    assert t.read(1) == 5
    assert t.stats() == StepStats(1, 0)


def test_tape_write_then_read_is_free():
    t = Tape((0, 0))
    t.write(0, 7)
    assert t.read(0) == 7
    assert t.stats() == StepStats(0, 1)
    # rewriting the same value still counts
    t.write(0, 7)
    assert t.stats() == StepStats(0, 2)


def test_offset_tape():
    t = Tape((1, 2, 3, 4))
    view = OffsetTape(t, 2)
    assert view.read(0) == 3
    view.write(1, 9)
    assert t.word() == (1, 2, 3, 9)
    assert t.stats() == StepStats(1, 1)


FLIP = Query(0, (Assign(((0, 1),)), Assign(((0, 0),))))


def test_dat_eval_bit_flip():
    out, st_ = dat_eval(FLIP, (0,))
    assert out == (1,) and st_ == StepStats(1, 1)
    out, st_ = dat_eval(FLIP, (1,))
    assert out == (0,) and st_ == StepStats(1, 1)


def test_dat_eval_gray_example():
    tree = materialize(gray_counter(3, 2).next_tape, Domain.uniform(3, 2))
    out, st_ = dat_eval(tree, (2, 0))
    assert out == (2, 1)
    assert st_ == StepStats(2, 1)
    assert dat_read_complexity(tree) == 2
    assert dat_write_complexity(tree) == 1


def test_dat_validate_rejects_bad_trees():
    d = Domain.uniform(2, 2)
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Assign(()),)), d)  # missing a child
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Query(0, (Assign(()), Assign(()))), Assign(()))), d)
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Assign(((0, 2),)), Assign(()))), d)  # value range
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Assign(((1, 0),)), Assign(()))), d)  # unread cell


def test_dat_json_roundtrip():
    d = Domain.uniform(2, 2)
    tree = Query(0, (Assign(((0, 1),)), Query(1, (Assign(((0, 0), (1, 1))),
                                                  Assign(((1, 0),))))))
    dat_validate(tree, d)
    obj = dat_to_json(tree)
    assert obj["query"] == 1  # 1-based on the wire
    assert dat_from_json(obj) == tree


def test_dat_from_json_rejects_junk():
    with pytest.raises(ValueError):
        dat_from_json({"nope": 1})
    with pytest.raises(ValueError):
        dat_from_json({"query": 0, "children": []})



@pytest.mark.parametrize("obj", [
    {"query": 1},
    {"query": 1, "children": 5},
    {"query": True, "children": []},
    {"assign": 5},
    {"assign": [5]},
    {"assign": [[1]]},
    {"assign": [[1, "x"]]},
    {"assign": [[1, -1]]},
    {"assign": [[True, 0]]},
    {"query": 1, "children": [{"assign": []}, {"assign": [[1, "x"]]}]},
])
def test_dat_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        dat_from_json(obj)

def test_materialize_budget():
    c = gray_counter(2, 8)
    with pytest.raises(BoundExceeded):
        materialize(c.next_tape, c.domain, node_budget=10)


def test_materialize_node_count():
    c = gray_counter(2, 3)
    tree = materialize(c.next_tape, c.domain)
    # full binary tree of depth 3: 7 queries, 8 leaves
    assert dat_count_nodes(tree) == 15


def _increment_counter(n):
    """Plain binary +1 with wraparound, reading from the top."""
    def next_fn(tape):
        for i in range(n - 1, -1, -1):
            v = tape.read(i)
            tape.write(i, (v + 1) % 2)
            if v == 0:
                return

    def prev_fn(tape):
        for i in range(n - 1, -1, -1):
            v = tape.read(i)
            tape.write(i, (v - 1) % 2)
            if v == 1:
                return

    return Counter(Domain.uniform(2, n), next_fn, prev_fn, 2 ** n, (0,) * n)


def test_measure_counter_full_cycle():
    rep = measure_counter(_increment_counter(3))
    assert rep.observed_length == 8
    assert rep.closed and rep.distinct and not rep.truncated
    assert rep.max_reads == 3 and rep.max_writes == 3


def test_measure_counter_detects_short_cycle():
    base = gray_counter(2, 2)
    liar = Counter(base.domain, base.next_tape, base.prev_tape, 8, base.start)
    rep = measure_counter(liar)
    assert rep.closed and rep.observed_length == 4


def test_measure_counter_truncation():
    c = gray_counter(2, 4)
    rep = measure_counter(c, max_steps=5)
    assert rep.truncated and rep.observed_length == 5


def _unsteppable():
    def refuse(tape):
        raise AssertionError("stepped")
    return Counter(Domain.uniform(2, 2), refuse, refuse, 4, (0, 0))


def test_measure_counter_rejects_a_negative_budget_before_walking():
    with pytest.raises(ValueError, match="max_steps must be nonnegative, got -3"):
        measure_counter(_unsteppable(), max_steps=-3)
    rep = measure_counter(_unsteppable(), max_steps=0)
    assert rep.truncated and rep.observed_length == 0


def test_measure_counter_detects_revisit():
    # 0 -> 1 -> 2 -> 1: falls into a loop that skips the start
    c = Counter(Domain.uniform(3, 1),
                lambda t: t.write(0, {0: 1, 1: 2, 2: 1}[t.read(0)]),
                lambda t: None, 3, (0,))
    rep = measure_counter(c)
    assert not rep.distinct


def test_measure_counter_rejects_a_digit_out_of_range():
    # 000 -> 001 -> 002 -> 003: the third step writes 3 into a radix-3
    # cell, and a step back from 000 writes -1
    c = Counter(Domain.uniform(3, 3), lambda t: t.write(2, t.read(2) + 1),
                lambda t: t.write(0, t.read(0) - 1), 9, (0, 0, 0))
    for walk in (measure_counter, audit):
        with pytest.raises(ValueError, match="step 3 wrote 3 at coordinate 3"):
            walk(c)
    with pytest.raises(ValueError, match="step 1 wrote -1 at coordinate 1"):
        measure_counter(c, direction="prev")


def test_forced_tracking_above_the_limit_allocates_nothing():
    c = Counter(Domain.uniform(2, 28), lambda t: None, lambda t: None, 1, (0,) * 28)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="2\\^27"):
            measure_counter(c, max_steps=5, track_visited=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # by default a walk that large tracks nothing
    rep = measure_counter(c, max_steps=5)
    assert rep.closed and rep.visited_ranks is None


def test_word_parse_forms():
    d = Domain.uniform(3, 3)
    assert word_parse("1,0,2", d) == (1, 0, 2)
    assert word_parse("102", d) == (1, 0, 2)
    assert word_format((1, 0, 2), d) == "102"
    big = Domain.uniform(12, 2)
    assert word_parse("11,3", big) == (11, 3)
    assert word_format((11, 3), big) == "11,3"


def test_word_parse_errors():
    d = Domain.uniform(3, 2)
    with pytest.raises(ValueError):
        word_parse("3,0", d)
    with pytest.raises(ValueError):
        word_parse("000", d)
    with pytest.raises(ValueError):
        word_parse("xy", d)
    with pytest.raises(ValueError):
        word_parse("102", Domain.uniform(12, 3))


@given(st.data())
def test_word_format_parse_roundtrip(data):
    radices = tuple(data.draw(st.lists(st.integers(2, 16), min_size=1, max_size=4)))
    d = Domain(radices)
    word = tuple(data.draw(st.integers(0, r - 1)) for r in radices)
    assert word_parse(word_format(word, d), d) == word


def test_equal_costs_are_one_shared_value():
    c = gray_counter(3, 2)
    tree = materialize(c.next_tape, c.domain)
    tape = Tape(c.start)
    c.prev_tape(tape)
    costs = [c.next(c.start)[1], c.prev(c.start)[1], tape.stats(),
             dat_eval(tree, c.start)[1], c.next((2, 2))[1]]
    assert all(type(st) is StepStats for st in costs)
    assert costs[0] == StepStats(2, 1)
    assert all(st is costs[0] for st in costs)


def test_large_cost_is_exact():
    c = gray_counter(2, 70)
    w, st = c.next(c.start)
    assert st == StepStats(70, 1) and type(st) is StepStats
    assert c.prev(w) == (c.start, StepStats(70, 1))
    assert c.prev(w)[1] is st
