"""Acceptance gate: one test per numbered criterion.

Each test re-derives its own data, so they run independently and in any
order. Criterion 13 re-walks the orbits enumerated by criteria 1-11
through a registry of counter factories at the bottom of this file.
"""

import itertools
import math
import random

import pytest

from quasigray.compose import crt_compose, general_counter
from quasigray.core import Domain, dat_eval, dat_validate
from quasigray.graycode import (gray_counter, gray_next, gray_prev, gray_rank,
                                gray_unrank)
from quasigray.linear import (AddRow, Field, Scale, companion_counter,
                              companion_matrix, decompose_elementary,
                              find_primitive, linear_counter, mat_identity,
                              row_op_count)
from quasigray.permdecomp import (RFunction, decompose_boundary,
                                  decompose_indicator, make_alpha, odd_counter)
from quasigray.verify import audit, cycle_isolation_check, cycle_lengths, densify, \
    perm_equal, search_hierarchical
from matrices import mat_inverse


def _base_grid():
    for m in (2, 3, 4, 5):
        for r in range(1, 7):
            if m ** r <= 4096:
                yield m, r


def test_criterion_01_base_gray_cycles():
    checked = 0
    for m, r in _base_grid():
        length = m ** r
        prev_w = gray_unrank(0, m, r)
        assert gray_rank(prev_w, m, r) == 0
        for i in list(range(1, length)) + [0]:
            w = gray_unrank(i, m, r)
            assert gray_rank(w, m, r) == i
            assert gray_next(prev_w, m, r) == w and gray_prev(w, m, r) == prev_w
            diffs = [j for j in range(r) if w[j] != prev_w[j]]
            assert len(diffs) == 1
            j = diffs[0]
            assert w[j] == (prev_w[j] + 1) % m
            prev_w = w
        rep = audit(gray_counter(m, r))
        assert rep.ok, rep.problems
        assert rep.observed_length == length
        assert rep.missing_count == 0
        assert rep.max_writes <= 1
        checked += 1
    print(f"criterion 1 pass: {checked} (m, r) pairs, full cycles with "
          f"single +1 changes and exact rank round-trips")


def test_criterion_02_binary_linear_counter():
    f2 = Field(2)
    rows = []
    for n_inner in range(2, 11):
        c = linear_counter(f2, n_inner)
        r = c.recipe["r"]
        n_total = n_inner + r
        length = 2 ** n_total - 2 ** r
        assert c.claimed_length == length
        rep = audit(c)
        assert rep.ok, rep.problems
        assert rep.observed_length == length
        assert rep.missing_count == 2 ** r <= 8 * n_total
        assert rep.max_reads <= r + 2 <= 4 + math.log2(n_total)
        assert rep.max_writes <= 2
        # the missing words are exactly the zero vector under any pointer
        from quasigray.core import measure_counter
        walk = measure_counter(c)
        missing = [c.domain.unrank(i) for i in range(c.domain.size)
                   if i not in walk.visited_ranks]
        assert len(missing) == 2 ** r
        assert all(w[r:] == (0,) * n_inner for w in missing)
        rows.append((n_inner, r, length))
    print(f"criterion 2 pass: q=2 inner widths 2..10, exact lengths "
          f"{[ln for _, _, ln in rows]}, missing sets all (pointer, 0...0)")


def test_criterion_03_prime_power_linear_counter():
    cases = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
    lengths = []
    for q, n in cases:
        c = linear_counter(Field(q), n)
        r = c.recipe["r"]
        length = q ** (n + r) - q ** r
        assert c.claimed_length == length
        rep = audit(c)
        assert rep.ok, rep.problems
        assert rep.observed_length == length
        assert rep.max_reads <= r + 2
        assert rep.max_writes <= 2
        lengths.append(length)
    print(f"criterion 3 pass: {cases} -> exact lengths {lengths}, "
          f"reads <= r+2, writes <= 2")


def _ops_applied_to_identity(field, ops, n):
    """Left-multiply the identity by each op in order via row operations."""
    m = mat_identity(n)
    for op in ops:
        if isinstance(op, Scale):
            m[op.i] = [field.mul(op.c, v) for v in m[op.i]]
        else:
            src = m[op.j]
            m[op.i] = [field.add(v, field.mul(op.c, s))
                       for v, s in zip(m[op.i], src)]
    return m


def test_criterion_04_elementary_decomposition():
    rng = random.Random(0x5EED)
    qs = (2, 3, 5)
    ns = range(2, 9)
    per_combo = 500 // (len(qs) * len(ns)) + 1
    done = 0
    for q in qs:
        field = Field(q)
        for n in ns:
            for _ in range(per_combo):
                if done == 500:
                    break
                while True:
                    a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                    try:
                        mat_inverse(field, a)
                        break
                    except ValueError:
                        continue
                ops = decompose_elementary(a, field)
                assert len(ops) <= n * n + 4 * (n - 1)
                assert _ops_applied_to_identity(field, ops, n) == a
                done += 1
    assert done == 500
    # companion matrices over F_2 against the tighter count
    f2 = Field(2)
    loose = []
    for n in range(2, 11):
        k = row_op_count(f2, n)
        a = companion_matrix(find_primitive(f2, n))
        ops = decompose_elementary(a, f2)
        assert len(ops) == k
        assert _ops_applied_to_identity(f2, ops, n) == a
        if k > n + 3 * (n - 1):
            loose.append((n, k))
    print(f"criterion 4 pass: 500 random invertible matrices rebuilt exactly "
          f"within n^2+4(n-1); companion counts beyond 4n-3: {loose or 'none'}")


def test_criterion_05_alpha_cycle_census():
    checked = 0
    for m in (3, 5):
        for n in range(1, 7):
            if m ** n > 20000:
                continue
            d = Domain.uniform(m, n)
            alphas = [make_alpha(i, m, n) for i in range(1, n + 1)]
            for i in range(1, n + 1):
                census = cycle_lengths(densify(alphas[:i], d))
                assert census == [m ** i] * (m ** (n - i))
            checked += 1
    print(f"criterion 5 pass: {checked} (m, width) pairs; every partial "
          f"composition splits into m^(n-i) cycles of length m^i and the "
          f"full composition is one cycle")


def test_criterion_06_indicator_decomposition():
    rng = random.Random(0xDEC0)
    cases = 0
    for m in (2, 3, 5):
        for r in (3, 4, 5):
            n = r + 3  # sources, target, and the two scratch cells
            d = Domain.uniform(m, n)
            for _ in range(2):
                at = tuple(rng.randrange(m) for _ in range(r))
                b = rng.randrange(1, m)
                f = RFunction.indicator(m, n, tuple(range(r)), r, at, b)
                fs = decompose_indicator(f)
                assert len(fs) <= 4 * r * r - 3
                assert all(g.is_two_function for g in fs)
                assert perm_equal(densify(fs, d), densify(f, d))
                cases += 1
    print(f"criterion 6 pass: {cases} random indicators over m in 2,3,5 and "
          f"r in 3..5 decompose into equal permutations within 4r^2-3 steps")


def test_criterion_07_cycle_isolation_identity():
    rng = random.Random(0x150)
    runs = 0
    for ell in (2, 3, 5, 7, 9):
        for _ in range(40):
            pts = list(range(1, 3 * ell))
            rng.shuffle(pts)
            a = [0] + pts[:ell - 1]
            b = [0] + pts[ell - 1:2 * ell - 2]
            sigma = {a[i]: a[(i + 1) % ell] for i in range(ell)}
            tau = {b[i]: b[(i + 1) % ell] for i in range(ell)}
            assert cycle_isolation_check(sigma, tau, ell)
            runs += 1
    assert runs == 200
    print("criterion 7 pass: 200 random cycle pairs sharing one point "
          "satisfy (st)^l (ts)^l = s^2 exactly")


def test_criterion_08_boundary_decomposition():
    for m in (3, 5):
        d = Domain.uniform(m, 6)
        for i in (5, 6):
            fs = decompose_boundary(i, m, 6)
            assert all(g.is_two_function for g in fs)
            assert perm_equal(densify(fs, d), densify(make_alpha(i, m, 6), d))
            if i == 6:
                assert len(fs) <= 60 * m * (6 - 3) ** 2
    print("criterion 8 pass: boundary lists for m in 3,5 at i in 5,6 equal "
          "the direct increments over all m^6 words, lengths within 60m(n-3)^2")


def test_criterion_09_space_optimal_odd_counter():
    c = odd_counter(3, 11)
    r = c.recipe["pointer"]
    assert 11 - r == 6  # inner width 6, the smallest supported plan
    rep = audit(c)
    assert rep.ok, rep.problems
    assert rep.observed_length == 3 ** 11
    assert rep.missing_count == 0
    assert rep.max_writes <= 2
    assert rep.max_reads <= r + 3
    # a wider instance keeps reads under 4 log_m(width)
    big = odd_counter(3, 15)
    bound = 4 * math.log(15, 3)
    assert big.claimed_reads <= bound
    w = big.start
    for _ in range(4096):
        w, stats = big.next(w)
        assert stats.reads <= bound
        assert stats.writes <= 2
    print(f"criterion 9 pass: 3^11 full orbit with writes <= 2 and reads <= "
          f"{r + 3}; width-15 instance stays under 4*log3(15) = {bound:.2f} reads")


def test_criterion_10_crt_composition():
    small = crt_compose([gray_counter(2, 1), gray_counter(3, 1)])
    rep = audit(small)
    assert rep.ok and rep.observed_length == 6 and rep.missing_count == 0

    clock = gray_counter(2, 2)
    c2 = gray_counter(3, 1)
    c3 = companion_counter(Field(2), 3)
    prod = crt_compose([clock, c2, c3])
    assert prod.claimed_length == 4 * 3 * 7 == 84
    # every reachable state triple shows up exactly once
    states = set()
    w = prod.start
    for _ in range(84):
        states.add((w[:2], w[2], w[3:]))
        w, _ = prod.next(w)
    assert w == prod.start
    clock_words = {clock.domain.unrank(i) for i in range(4)}
    assert {clock.domain.rank(s[0]) for s in states} == {0, 1, 2, 3}
    assert len(states) == 84
    expected = {(a, b, c) for a in clock_words for b in range(3)
                for c in itertools.product(range(2), repeat=3) if any(c)}
    assert states == expected

    with pytest.raises(ValueError, match="co-prime"):
        crt_compose([gray_counter(3, 1), gray_counter(2, 1), gray_counter(4, 1)])
    with pytest.raises(ValueError, match="trigger"):
        crt_compose([gray_counter(2, 1), gray_counter(3, 1),
                     gray_counter(5, 1), gray_counter(7, 1)])
    print("criterion 10 pass: lengths 6 and 84 exact, all state tuples "
          "visited, non-co-prime and short-clock inputs rejected")


def test_criterion_11_general_even_counter():
    c = general_counter(6, 12)
    lens = c.recipe["lengths"]
    assert c.claimed_length == lens["clock"] * lens["binary"] * lens["odd"]
    assert math.gcd(lens["binary"], lens["odd"]) == 1
    assert c.claimed_writes == 3
    w = c.start
    for _ in range(4096):
        w, stats = c.next(w)
        assert stats.writes <= 3
        assert stats.reads <= c.claimed_reads
    with pytest.raises(ValueError):
        general_counter(6, 11)  # 12 is the smallest width radix 6 supports
    print(f"criterion 11 pass: radix 6 width 12 length "
          f"{lens['clock']}*{lens['binary']}*{lens['odd']} = "
          f"{c.claimed_length}, co-prime parts, sampled writes <= 3")


def test_criterion_12_hierarchical_search():
    pinned = {(2, 2, 2): False, (2, 2, 3): True,
              (2, 3, 3): False, (3, 2, 2): False}
    found = {}
    for m1 in (2, 3):
        for m2 in (2, 3, 4):
            for m3 in (2, 3, 4):
                tree = search_hierarchical((m1, m2, m3))
                exists = tree is not None
                assert exists == (math.gcd(m2, m3) == 1), (m1, m2, m3)
                if exists:
                    d = Domain((m1, m2, m3))
                    dat_validate(tree, d)
                    w = (0, 0, 0)
                    seen = {w}
                    for _ in range(d.size - 1):
                        w, stats = dat_eval(tree, w)
                        assert stats.reads == 2 and stats.writes == 2
                        assert w not in seen
                        seen.add(w)
                    w, _ = dat_eval(tree, w)
                    assert w == (0, 0, 0)
                found[(m1, m2, m3)] = exists
    for triple, expect in pinned.items():
        assert found[triple] == expect
    print(f"criterion 12 pass: 18 radix triples match gcd(m2, m3) = 1 "
          f"exactly; found trees all walk their full domain")


# criterion 13 registry: (label, factory, steps to walk with prev o next);
# None walks the counter's whole claimed cycle. Mirrors every counter the
# criteria above build, at the orbit lengths they enumerate.
ROUNDTRIP_CASES = (
    [(f"base m={m} r={r}", (lambda m=m, r=r: gray_counter(m, r)), None)
     for m, r in _base_grid()]
    + [(f"linear q=2 inner={n}", (lambda n=n: linear_counter(Field(2), n)), None)
       for n in range(2, 11)]
    + [(f"linear q={q} inner={n}",
        (lambda q=q, n=n: linear_counter(Field(q), n)), None)
       for q, n in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]]
    + [("odd m=3 width=11", lambda: odd_counter(3, 11), None),
       ("odd m=3 width=15", lambda: odd_counter(3, 15), 4096),
       ("crt 2x3", lambda: crt_compose([gray_counter(2, 1),
                                        gray_counter(3, 1)]), None),
       ("crt 4*3*7", lambda: crt_compose([gray_counter(2, 2),
                                          gray_counter(3, 1),
                                          companion_counter(Field(2), 3)]), None),
       ("general m=6 width=12", lambda: general_counter(6, 12), 4096)]
)


def test_criterion_13_orbit_roundtrips():
    walked = 0
    for label, factory, steps in ROUNDTRIP_CASES:
        c = factory()
        budget = c.claimed_length if steps is None else steps
        w = c.start
        for _ in range(budget):
            nxt, _ = c.next(w)
            back, _ = c.prev(nxt)
            assert back == w, f"{label}: prev(next({w})) = {back}"
            w = nxt
        if steps is None:
            assert w == c.start, f"{label}: orbit did not close"
        walked += budget
    print(f"criterion 13 pass: prev o next = identity along {walked} steps "
          f"over {len(ROUNDTRIP_CASES)} counters")
