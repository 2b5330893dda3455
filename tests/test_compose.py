import math
import random

import pytest

from quasigray.compose import (StepList, crt_compose, cycle_compose,
                               general_counter, multiplicative_order,
                               stitch_radix)
from quasigray.core import Domain, StepStats, measure_counter, tape_step
from quasigray.graycode import gray_counter, gray_rank, gray_unrank
from quasigray.linear import (Field, companion_counter, companion_matrix,
                              decompose_elementary, find_primitive,
                              linear_counter, mat_vec)
from quasigray.permdecomp import odd_counter
from quasigray.verify import audit


def _companion_steps(n):
    f = Field(2)
    mat = companion_matrix(find_primitive(f, n))
    ops = decompose_elementary(mat, f)
    return f, mat, StepList(ops, Domain.uniform(2, n), 2 ** n - 1)


def test_cycle_compose_one_revolution_applies_list():
    f, mat, sl = _companion_steps(3)
    c = cycle_compose(sl, 2, 3, (0, 0, 1))
    assert c.claimed_length == 8 * 7
    w = c.start
    inner = [w[3:]]
    for _ in range(8):
        w, _ = c.next(w)
        inner.append(w[3:])
    assert w[:3] == c.start[:3]  # pointer is back
    assert list(inner[-1]) == mat_vec(f, mat, list(c.start[3:]))
    # ranks past the end of the 5-step list leave the data alone
    assert inner[5] == inner[6] == inner[7] == inner[8]


def test_cycle_compose_orbit_and_prev():
    _, _, sl = _companion_steps(3)
    c = cycle_compose(sl, 2, 3, (0, 0, 1))
    rep = measure_counter(c)
    assert rep.closed and rep.distinct and rep.observed_length == 56
    w = c.start
    for _ in range(56):
        w, _ = c.next(w)
    for _ in range(56):
        w, _ = c.prev(w)
    assert w == c.start


def test_cycle_compose_pointer_too_short():
    _, _, sl = _companion_steps(3)
    with pytest.raises(ValueError):
        cycle_compose(sl, 2, 2, (0, 0, 1))
    for m, r in ((1, 2), (2, 0)):
        with pytest.raises(ValueError, match="need m >= 2 and r >= 1"):
            cycle_compose(sl, m, r, (0, 0, 1))


def _plus_one_step():
    from quasigray.permdecomp import RFunction
    return RFunction(3, 1, (), 0, {(): 1})


def test_cycle_compose_single_step_list():
    sl = StepList([_plus_one_step()], Domain.uniform(3, 1), 3)
    c = cycle_compose(sl, 3, 1, (0,))
    assert c.domain == Domain.uniform(3, 2)
    rep = measure_counter(c)
    assert rep.closed and rep.distinct and rep.observed_length == 9


def test_cycle_compose_identity_padding():
    # one real step under a 4-word pointer: the other 3 ranks only move
    # the pointer
    sl = StepList([_plus_one_step()], Domain.uniform(3, 1), 3)
    c = cycle_compose(sl, 2, 2, (0,))
    assert c.claimed_length == 4 * 3
    w = c.start
    idle = 0
    for _ in range(12):
        nxt, _ = c.next(w)
        if nxt[2] == w[2]:
            idle += 1
        w = nxt
    assert w == c.start
    assert idle == 9


def test_cycle_compose_projection_counts():
    # every inner word meets every pointer word along the cycle
    _, _, sl = _companion_steps(3)
    c = cycle_compose(sl, 2, 3, (0, 0, 1))
    from collections import Counter as Bag
    ptr, inner = Bag(), Bag()
    w = c.start
    for _ in range(56):
        ptr[w[:3]] += 1
        inner[w[3:]] += 1
        w, _ = c.next(w)
    assert w == c.start
    assert set(ptr.values()) == {7} and len(ptr) == 8
    assert set(inner.values()) == {8} and len(inner) == 7


def test_crt_two_gray_components():
    c = crt_compose([gray_counter(2, 1), gray_counter(3, 1)])
    assert c.claimed_length == 6
    seq = [c.start]
    w = c.start
    for _ in range(6):
        w, _ = c.next(w)
        seq.append(w)
    assert seq == [(0, 0), (1, 1), (0, 1), (1, 2), (0, 2), (1, 0), (0, 0)]


def test_crt_three_components():
    c = crt_compose([gray_counter(2, 2), gray_counter(3, 1),
                     companion_counter(Field(2), 3)])
    assert c.claimed_length == 4 * 3 * 7
    rep = measure_counter(c)
    assert rep.closed and rep.distinct and rep.observed_length == 84
    w = c.start
    for _ in range(84):
        nxt, _ = c.next(w)
        back, _ = c.prev(nxt)
        assert back == w
        w = nxt


def test_crt_claimed_costs():
    c = crt_compose([gray_counter(2, 2), gray_counter(3, 1),
                     companion_counter(Field(2), 3)])
    # clock cells plus the worst component
    assert c.claimed_reads == 2 + 3
    assert c.claimed_writes == 1 + 3
    rep = measure_counter(c)
    assert rep.max_reads <= c.claimed_reads
    assert rep.max_writes <= c.claimed_writes


def test_crt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        crt_compose([gray_counter(2, 1)])
    with pytest.raises(ValueError):
        # 4 and 6 share a factor
        crt_compose([gray_counter(2, 1), gray_counter(2, 2), gray_counter(6, 1)])
    with pytest.raises(ValueError):
        # a 2-word clock cannot host 3 trigger words
        crt_compose([gray_counter(2, 1), gray_counter(3, 1),
                     gray_counter(5, 1), gray_counter(7, 1)])


def test_crt_rejects_a_clock_that_is_no_base_gray_counter():
    with pytest.raises(ValueError, match="clock must be a base Gray counter of "
                                         "length m\\^n, got kind 'linear'"):
        crt_compose([linear_counter(Field(2), 3), gray_counter(3, 1)])
    clock = gray_counter(2, 2)
    clock.claimed_length = 3
    with pytest.raises(ValueError, match="got kind 'base' of length 3"):
        crt_compose([clock, gray_counter(5, 1)])


def test_crt_clock_may_share_factors():
    c = crt_compose([gray_counter(2, 1), gray_counter(4, 1), gray_counter(3, 1)])
    rep = measure_counter(c)
    assert rep.closed and rep.observed_length == 24


# crt products small enough to step on every word of their domain
CRT_WHOLE_DOMAIN = {
    "crt(84)": lambda: [gray_counter(2, 2), gray_counter(3, 1),
                        companion_counter(Field(2), 3)],
    "linear": lambda: [gray_counter(2, 2), gray_counter(3, 1),
                       linear_counter(Field(2), 3)],
    "general(4,6)": lambda: [gray_counter(2, 1), general_counter(4, 6)],
    "nested": lambda: [gray_counter(2, 2), companion_counter(Field(2), 3),
                       crt_compose([gray_counter(3, 1), gray_counter(5, 1)])],
}


@pytest.mark.parametrize("label", list(CRT_WHOLE_DOMAIN))
def test_crt_steps_like_its_reference_on_every_word(label):
    # next: the clock moves one Gray step, and component i steps forward
    # iff the clock's rank before the step is i - 1. prev: the clock moves
    # one Gray step back, and component i steps back iff the rank after the
    # step is i - 1. A step costs (n1 + the component's reads, 1 + its
    # writes) when it moves a component and (n1, 1) when it does not
    parts = CRT_WHOLE_DOMAIN[label]()
    c = crt_compose(parts)
    clock = parts[0]
    m, n1 = clock.domain.radices[0], clock.domain.n
    size = m ** n1
    spans, lo = [], n1
    for p in parts[1:]:
        spans.append((lo, lo + p.domain.n))
        lo += p.domain.n
    for w in c.domain.words():
        rank = gray_rank(w[:n1], m, n1)
        for delta, step, fn in ((1, c.next, c.next_tape), (-1, c.prev, c.prev_tape)):
            new_rank = (rank + delta) % size
            want = list(gray_unrank(new_rank, m, n1) + w[n1:])
            cost = StepStats(n1, 1)
            moved = rank if delta == 1 else new_rank
            if moved < len(spans):
                part = parts[moved + 1]
                a, b = spans[moved]
                want[a:b], pc = (part.next if delta == 1 else part.prev)(w[a:b])
                cost = StepStats(n1 + pc.reads, 1 + pc.writes)
            assert step(w) == tape_step(fn, w) == (tuple(want), cost)


def test_stitch_radix_passthrough():
    c = gray_counter(2, 4)
    assert stitch_radix(1, c) is c


def test_stitch_radix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        stitch_radix(0, gray_counter(2, 4))
    with pytest.raises(ValueError):
        stitch_radix(2, gray_counter(3, 4))
    with pytest.raises(ValueError):
        stitch_radix(3, gray_counter(2, 4))


def test_stitch_radix_matches_inner_walk():
    inner = gray_counter(2, 4)
    outer = stitch_radix(2, inner)
    assert outer.domain == Domain.uniform(4, 2)

    def fuse(bits):
        return tuple(bits[b] << 1 | bits[b + 1] for b in (0, 2))

    wi, wo = inner.start, outer.start
    assert fuse(wi) == wo
    for _ in range(16):
        wi, _ = inner.next(wi)
        wo, _ = outer.next(wo)
        assert fuse(wi) == wo


def test_stitch_radix_block_costs():
    outer = stitch_radix(2, gray_counter(2, 4))
    rep = measure_counter(outer)
    assert rep.closed and rep.distinct and rep.observed_length == 16
    assert rep.max_reads <= 2  # 4 bits live in 2 blocks
    assert rep.max_writes == 1


def test_stitch_radix_on_linear_counter():
    outer = stitch_radix(3, linear_counter(Field(2), 3, 3))
    assert outer.domain == Domain.uniform(8, 2)
    rep = measure_counter(outer)
    assert rep.closed and rep.distinct and rep.observed_length == 56


def test_multiplicative_order():
    assert multiplicative_order(1) == 1
    assert multiplicative_order(3) == 2
    assert multiplicative_order(5) == 4
    assert multiplicative_order(7) == 3
    assert multiplicative_order(9) == 6
    assert multiplicative_order(11) == 10
    assert multiplicative_order(15) == 4
    for o in (3, 5, 7, 9, 11, 13, 15):
        e = multiplicative_order(o)
        assert pow(2, e, o) == 1
        assert all(pow(2, j, o) != 1 for j in range(1, e))
    with pytest.raises(ValueError):
        multiplicative_order(6)
    with pytest.raises(ValueError):
        multiplicative_order(0)


def test_general_counter_recipe_even_radix_with_odd_part():
    c = general_counter(6, 12)
    r = c.recipe
    assert r["clock"] == 1
    assert r["binary"] == {"bits": 11, "inner": 5, "pointer": 6}
    assert r["odd"] == {"radix": 3, "width": 11}
    assert r["lengths"] == {"clock": 6, "binary": 1984, "odd": 177147}
    # co-prime data cycles, single overall cycle
    assert math.gcd(1984, 177147) == 1
    assert c.claimed_length == 6 * 1984 * 177147
    assert c.claimed_writes == 3


def test_general_counter_sampled_walk():
    c = general_counter(6, 12)
    w = c.start
    for _ in range(3000):
        nxt, st = c.next(w)
        assert st.reads <= c.claimed_reads
        assert st.writes <= c.claimed_writes
        back, _ = c.prev(nxt)
        assert back == w
        w = nxt


def test_general_counter_power_of_two_radix():
    c = general_counter(4, 4)
    assert c.recipe["odd"] is None
    assert c.claimed_length == 4 * 56 == 224
    rep = measure_counter(c)
    assert rep.closed and rep.distinct and rep.observed_length == 224
    assert rep.max_writes <= 3
    assert 4 ** 4 - 224 == 32


def test_general_counter_binary_radix():
    c = general_counter(2, 5)
    rep = measure_counter(c)
    assert rep.closed and rep.distinct and rep.observed_length == 24


def test_general_counter_binary_width_oracle():
    # odd part 7 has ord(2) = 3, so widths divisible by 3 collide with it
    for w in range(2, 11):
        ok = math.gcd(2 ** w - 1, 7) == 1
        assert ok == (w % 3 != 0)


def test_general_counter_errors():
    with pytest.raises(ValueError):
        general_counter(7, 10)
    with pytest.raises(ValueError):
        general_counter(12, 5)
    with pytest.raises(ValueError):
        general_counter(2, 3)


@pytest.mark.parametrize("m", [-2, 0, 1])
def test_general_counter_radix_below_two(m):
    with pytest.raises(ValueError, match="radix must be at least 2"):
        general_counter(m, 3)


def test_general_counter_padded_pointer_recipes():
    # no clock width works at the minimal pointer, so the pointer is padded
    assert general_counter(12, 12).recipe["binary"] == {
        "bits": 22, "inner": 15, "pointer": 7}
    assert general_counter(14, 11).recipe["binary"] == {
        "bits": 10, "inner": 5, "pointer": 5}


def test_general_counter_read_claim_counts_pointer_cells():
    # the r pointer bits fill ceil(r / l) data cells and a row operation
    # touches at most two more
    rep = audit(general_counter(4, 8))
    assert rep.ok and rep.claimed_reads == 6 == rep.max_reads
    claims = {(12, 12): 9, (8, 10): 5, (6, 12): 9, (10, 14): 9}
    for (m, n), reads in claims.items():
        assert general_counter(m, n).claimed_reads == reads


def test_general_counter_bits_and_odd_residues_match_word_reference():
    # radix 12 = 4 * 3: each data cell shows the linear counter the 2 bits
    # of its residue mod 4, most significant first, and shows the odd
    # counter its residue mod 3
    c = general_counter(12, 12)
    virtual = crt_compose([gray_counter(12, 1), linear_counter(Field(2), 15, 7),
                           odd_counter(3, 11)])

    def split(w):
        data = w[1:]
        return (w[:1] + tuple(x >> s & 1 for x in data for s in (1, 0))
                + tuple(x % 3 for x in data))

    def join(v):
        bits, odd = v[1:23], v[23:]
        return v[:1] + tuple(
            next(x for x in range(12)
                 if x % 4 == 2 * bits[2 * j] + bits[2 * j + 1] and x % 3 == odd[j])
            for j in range(11))

    assert split(c.start) == virtual.start
    rng = random.Random(1212)
    for _ in range(2000):
        w = tuple(rng.randrange(12) for _ in range(12))
        assert join(split(w)) == w
        nxt, st = c.next(w)
        assert nxt == join(virtual.next(split(w))[0])
        prv, sp = c.prev(w)
        assert prv == join(virtual.prev(split(w))[0])
        assert c.prev(nxt)[0] == w
        for s in (st, sp):
            assert s.reads <= c.claimed_reads and s.writes <= c.claimed_writes


@pytest.mark.parametrize("make,r", [
    (lambda: linear_counter(Field(2), 4), 3),
    (lambda: linear_counter(Field(3), 2), 1),
    (lambda: gray_counter(4, 3), 3),
])
def test_pointer_step_over_whole_domain(make, r):
    # every word, not only the orbit of start: next is a bijection, prev
    # undoes it, the pointer moves one Gray step and the costs hold
    c = make()
    m = c.domain.radices[0]
    size = m ** r
    images = set()
    for w in c.domain.words():
        nxt, sn = c.next(w)
        prv, sp = c.prev(w)
        images.add(nxt)
        assert c.prev(nxt)[0] == w
        rank = gray_rank(w[:r], m, r)
        assert nxt[:r] == gray_unrank((rank + 1) % size, m, r)
        assert prv[:r] == gray_unrank((rank - 1) % size, m, r)
        for s in (sn, sp):
            assert s.reads <= c.claimed_reads and s.writes <= c.claimed_writes
    assert len(images) == c.domain.size


def test_crt_rejects_repeated_trigger_words():
    # a clock that claims length 3 but only alternates two words
    clock = gray_counter(2, 1)
    clock.claimed_length = 3
    with pytest.raises(ValueError):
        crt_compose([clock, gray_counter(3, 1), gray_counter(5, 1),
                     gray_counter(7, 1)])


def test_general_counter_skips_inner_widths_past_factoring_limit():
    # 51 data bits: inner widths above 48 bits cannot be factored, so the
    # pointer grows until the row operations of a 43-bit vector fit
    c = general_counter(8, 18)
    assert c.recipe["binary"] == {"bits": 51, "inner": 43, "pointer": 8}
    assert c.claimed_reads == 6
    _check_random_round_trips(c, random.Random(818))


def test_general_counter_4_26_round_trips():
    # 50 data bits over a 42-bit inner vector and an 8-cell pointer
    _check_random_round_trips(general_counter(4, 26), random.Random(426))


def _check_random_round_trips(c, rng, count=2000):
    m, n = c.domain.radices[0], c.domain.n
    for _ in range(count):
        w = tuple(rng.randrange(m) for _ in range(n))
        nxt, st = c.next(w)
        prv, sp = c.prev(w)
        assert c.prev(nxt)[0] == w and c.next(prv)[0] == w
        for s in (st, sp):
            assert s.reads <= c.claimed_reads and s.writes <= c.claimed_writes


@pytest.mark.parametrize("m,n", [(2, 3), (4, 2)])
def test_general_counter_power_of_two_error_names_no_odd_part(m, n):
    with pytest.raises(ValueError) as err:
        general_counter(m, n)
    msg = str(err.value)
    assert msg == (f"width {n} too small for radix {m}: "
                   "the binary part needs at least 3 bits")


def test_general_counter_error_names_odd_part_width():
    with pytest.raises(ValueError, match="the odd part needs 11 data cells and "
                                         "the binary part needs at least 3 bits"):
        general_counter(6, 11)


# (m, n) -> (start, claimed_length, claimed_reads, claimed_writes, recipe),
# the values of the crt_compose build these counters replaced
GENERAL_CLAIMS = {
    (4, 8): ((0,) * 7 + (1,), 65408, 6, 3, {
        "kind": "general", "m": 4, "n": 8, "clock": 1,
        "binary": {"bits": 14, "inner": 9, "pointer": 5}, "odd": None,
        "lengths": {"clock": 4, "binary": 16352, "odd": 1}}),
    (6, 12): ((0,) * 11 + (3,), 2108757888, 9, 3, {
        "kind": "general", "m": 6, "n": 12, "clock": 1,
        "binary": {"bits": 11, "inner": 5, "pointer": 6},
        "odd": {"radix": 3, "width": 11},
        "lengths": {"clock": 6, "binary": 1984, "odd": 177147}}),
    (10, 14): ((0,) * 13 + (5,), 99218750000000, 9, 3, {
        "kind": "general", "m": 10, "n": 14, "clock": 2,
        "binary": {"bits": 12, "inner": 7, "pointer": 5},
        "odd": {"radix": 5, "width": 12},
        "lengths": {"clock": 100, "binary": 4064, "odd": 244140625}}),
    (8, 18): ((0,) * 17 + (1,), 18014398509479936, 6, 3, {
        "kind": "general", "m": 8, "n": 18, "clock": 1,
        "binary": {"bits": 51, "inner": 43, "pointer": 8}, "odd": None,
        "lengths": {"clock": 8, "binary": 2251799813684992, "odd": 1}}),
    # built with the coefficient-list primitive search, before it was
    # fast enough for tier-1
    (4, 26): ((0,) * 25 + (1,), 4503599627369472, 7, 3, {
        "kind": "general", "m": 4, "n": 26, "clock": 1,
        "binary": {"bits": 50, "inner": 42, "pointer": 8}, "odd": None,
        "lengths": {"clock": 4, "binary": 1125899906842368, "odd": 1}}),
}


@pytest.mark.parametrize("mn", list(GENERAL_CLAIMS), ids=str)
def test_general_counter_claims_pinned(mn):
    c = general_counter(*mn)
    assert (c.start, c.claimed_length, c.claimed_reads, c.claimed_writes,
            c.recipe) == GENERAL_CLAIMS[mn]


@pytest.mark.parametrize("m,n", [(4, 8), (6, 12), (10, 14)])
def test_general_counter_is_crt_product_of_its_parts(m, n):
    # the Gray pointer over the two residue steps steps exactly like the
    # crt product of a Gray clock, the binary part and the odd part, seen
    # through the split of each data cell into bits mod 2^l and a residue
    # mod o; ranks that trigger no part only move the pointer
    c = general_counter(m, n)
    r = c.recipe
    i, b, odd = r["clock"], r["binary"], r["odd"]
    d = n - i
    ell = b["bits"] // d
    o = odd["radix"] if odd else 1
    parts = [gray_counter(m, i), linear_counter(Field(2), b["inner"], b["pointer"])]
    if odd:
        parts.append(odd_counter(o, d))
    virtual = crt_compose(parts)
    shifts = range(ell - 1, -1, -1)

    def split(w):
        data = w[i:]
        return (w[:i] + tuple(x >> s & 1 for x in data for s in shifts)
                + (tuple(x % o for x in data) if odd else ()))

    def join(v):
        bits, res = v[i:i + ell * d], v[i + ell * d:]
        return v[:i] + tuple(
            next(x for x in range(m)
                 if x % 2 ** ell == sum(bits[ell * j + p] << s
                                        for p, s in enumerate(shifts))
                 and (not odd or x % o == res[j]))
            for j in range(d))

    assert split(c.start) == virtual.start
    n_steps = len(parts) - 1
    size = m ** i
    rng = random.Random(f"general {m},{n}")
    quiet = loud = 0
    for _ in range(1500):
        w = tuple(rng.randrange(m) for _ in range(n))
        assert join(split(w)) == w
        nxt, st = c.next(w)
        assert nxt == join(virtual.next(split(w))[0])
        prv, sp = c.prev(w)
        assert prv == join(virtual.prev(split(w))[0])
        assert c.prev(nxt)[0] == w
        rank = gray_rank(w[:i], m, i)
        for s, j in ((st, rank), (sp, (rank - 1) % size)):
            assert s.reads <= c.claimed_reads and s.writes <= c.claimed_writes
            if j >= n_steps:
                assert s == StepStats(i, 1)
                quiet += 1
            else:
                loud += 1
    assert quiet and loud


# SHA-256 of the residue counters' starts, claims, recipes, steps and trees,
# computed before their views took the one (cell, d, q, u) formula
RESIDUE_FINGERPRINT = "2ee31a4f8929f47c8e1fc0a6ae8d0461eec364550dd2185f5e9dd213502754f6"


def test_residue_counters_fingerprint():
    # every word of the small counters (and their trees up to 4,096 words),
    # and 1,000 seeded words of the large ones, 30% of them carrying digits
    # -1 or m; next and prev give the same words and costs as they did
    import hashlib
    import json

    from quasigray.core import dat_to_json, materialize

    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    def counter(c):
        put(c.start, c.claimed_length, c.claimed_reads, c.claimed_writes,
            json.dumps(c.recipe, sort_keys=True))

    def steps(c, words):
        for w in words:
            for step in (c.next, c.prev):
                word, cost = step(w)
                put(word, tuple(cost))

    small = [general_counter(4, 6), general_counter(2, 6),
             stitch_radix(2, linear_counter(Field(2), 3, 3)),
             stitch_radix(2, general_counter(2, 6)), stitch_radix(3, general_counter(2, 6))]
    for c in small:
        counter(c)
        steps(c, c.domain.words())
        if c.domain.size <= 4096:
            for fn in (c.next_tape, c.prev_tape):
                put(json.dumps(dat_to_json(materialize(fn, c.domain))))
    for m, n in ((4, 8), (6, 12), (8, 10), (10, 14), (12, 12)):
        c = general_counter(m, n)
        counter(c)
        rng = random.Random(m * 100 + n)
        words = []
        for _ in range(1000):
            w = [rng.randrange(m) for _ in range(n)]
            if rng.random() < 0.3:
                for j in rng.sample(range(n), rng.randrange(1, 3)):
                    w[j] = rng.choice([-1, m])
            words.append(tuple(w))
        steps(c, words)
    assert h.hexdigest() == RESIDUE_FINGERPRINT


# SHA-256 of general_counter's choice on every even m in 2..24 and n in
# 3..24: the recipe and claims, or the error it raises
GENERAL_GRID_SHA256 = "1405b951a1af7867d47d3c5a2cdf1464d3837212304a04e35108d1bd03bb8327"


def test_general_counter_width_choice_pinned_on_a_grid():
    import hashlib
    import json

    h = hashlib.sha256()
    for m in range(2, 25, 2):
        for n in range(3, 25):
            try:
                c = general_counter(m, n)
            except Exception as e:
                item = (m, n, type(e).__name__, str(e))
            else:
                item = (m, n, json.dumps(c.recipe, sort_keys=True), c.claimed_reads,
                        c.claimed_writes, c.claimed_length)
            h.update(repr(item).encode())
    assert h.hexdigest() == GENERAL_GRID_SHA256
