import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from quasigray.core import BoundExceeded, Tape, measure_counter
from quasigray.linear import (AddRow, Field, Poly, Scale, _F2_MODULI,
                              _f2_is_primitive, _residue_pow,
                              companion_counter, companion_matrix,
                              decompose_elementary, find_primitive,
                              is_primitive, linear_counter, mat_identity,
                              mat_inverse, mat_mul, mat_vec, prime_factors,
                              row_op_count)


def test_prime_factors_small():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(12) == [2, 3]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(2 ** 31 - 1) == [2147483647]


def test_prime_factors_beyond_trial_division():
    # 2^35 - 1 = 31 * 71 * 127 * 122921; the last factor needs rho
    assert prime_factors(2 ** 35 - 1) == [31, 71, 127, 122921]


def test_prime_factors_refuses_huge():
    with pytest.raises(BoundExceeded):
        prime_factors(2 ** 48 + 1)


@pytest.mark.parametrize("n", [0, -6])
def test_prime_factors_rejects_nonpositive(n):
    with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
        prime_factors(n)


@given(st.integers(2, 10 ** 6))
@settings(max_examples=60)
def test_prime_factors_multiply_back(n):
    fs = prime_factors(n)
    rest = n
    for p in fs:
        assert rest % p == 0
        while rest % p == 0:
            rest //= p
    assert rest == 1


def test_field_rejects_bad_orders():
    for q in (1, 6, 12, 2 ** 17):
        with pytest.raises(ValueError):
            Field(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 4, 8, 16, 64, 256])
def test_field_axioms(q):
    f = Field(q)
    elems = list(f.elements())
    sample = elems if q <= 16 else random.Random(q).sample(elems, 16)
    for a in sample:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in sample:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
            for c in sample[:4]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("k", sorted(_F2_MODULI))
def test_f2_moduli_are_irreducible(k):
    # an extension built on a reducible modulus has zero divisors; check
    # every element is invertible instead of factoring the modulus
    f = Field(2 ** k)
    g = random.Random(k)
    for _ in range(24):
        a = g.randrange(1, 2 ** k)
        assert f.mul(a, f.inv(a)) == 1


def test_poly_str():
    f3 = Field(3)
    assert str(Poly(f3, (2, 1, 1))) == "z^2 + z + 2"
    assert str(Poly(f3, (0, 2))) == "2z"
    assert str(Poly(f3, (0,))) == "0"
    assert Poly(f3, (2, 1, 1)).degree == 2
    assert Poly(f3, (2, 1, 1)).is_monic


def _multiplicative_order_mod(p: Poly):
    """Brute-force order of z in the residue ring, or None if z hits a zero
    divisor pattern (never happens for irreducible p)."""
    field = p.field
    n = p.degree
    # represent residues as tuples, multiply by z step by step
    cur = tuple([0, 1] + [0] * (n - 2)) if n > 1 else (field.neg(p.coeffs[0]),)
    one = tuple([1] + [0] * (n - 1))
    seen = 0
    limit = field.q ** n
    z = cur
    val = one
    for e in range(1, limit + 1):
        # val *= z
        prod = [0] * (2 * n - 1) if n > 1 else [0]
        for i, a in enumerate(val):
            if a == 0:
                continue
            for j, b in enumerate(z):
                if b:
                    prod[i + j] = field.add(prod[i + j], field.mul(a, b))
        for d in range(len(prod) - 1, n - 1, -1):
            c = prod[d]
            if c == 0:
                continue
            for t in range(n + 1):
                if p.coeffs[t]:
                    prod[d - n + t] = field.sub(prod[d - n + t],
                                                field.mul(c, p.coeffs[t]))
        val = tuple(prod[:n])
        if val == one:
            return e
        if all(v == 0 for v in val):
            return None
    return None


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (5, 2)])
def test_is_primitive_matches_order_oracle(q, n):
    f = Field(q)
    hits = 0
    for i in range(q ** n):
        coeffs = tuple((i // q ** j) % q for j in range(n)) + (1,)
        p = Poly(f, coeffs)
        claimed = is_primitive(p)
        actual = _multiplicative_order_mod(p) == q ** n - 1
        assert claimed == actual, f"disagree on {p}"
        hits += claimed
    assert hits > 0


def test_find_primitive_frozen():
    f2, f3 = Field(2), Field(3)
    assert find_primitive(f2, 2).coeffs == (1, 1, 1)
    assert find_primitive(f2, 3).coeffs == (1, 1, 0, 1)
    assert find_primitive(f3, 1).coeffs == (1, 1)
    assert find_primitive(f3, 2).coeffs == (2, 1, 1)
    assert str(find_primitive(f3, 2)) == "z^2 + z + 2"


def test_find_primitive_is_first_in_scan_order():
    f = Field(2)
    p = find_primitive(f, 4)
    i_found = sum(c * 2 ** j for j, c in enumerate(p.coeffs[:-1]))
    for i in range(i_found):
        coeffs = tuple((i // 2 ** j) % 2 for j in range(4)) + (1,)
        assert not is_primitive(Poly(f, coeffs))


def _generic_f2_is_primitive(p: Poly) -> bool:
    """The coefficient-list route: z^(2^n - 1) = 1 and no maximal divisor
    of the order sends z to 1."""
    f, n = p.field, p.degree
    order = 2 ** n - 1
    one = [1] + [0] * (n - 1)
    z = [f.neg(p.coeffs[0])] if n == 1 else [0, 1] + [0] * (n - 2)
    return (_residue_pow(f, z, order, p.coeffs) == one
            and all(_residue_pow(f, z, order // rho, p.coeffs) != one
                    for rho in prime_factors(order)))


@pytest.mark.parametrize("n", range(1, 11))
def test_packed_f2_test_agrees_with_coefficient_lists(n):
    f = Field(2)
    factors = prime_factors(2 ** n - 1)
    hits = 0
    for i in range(2 ** n):
        p = Poly(f, tuple(i >> j & 1 for j in range(n)) + (1,))
        expected = _generic_f2_is_primitive(p)
        assert is_primitive(p) == expected, str(p)
        if i & 1:  # the packed predicate takes p(0) = 1 as given
            assert _f2_is_primitive(1 << n | i, n, factors) == expected, str(p)
        hits += expected
    assert hits > 0


# the first primitive polynomial over F_2 of each degree 1..24, as found by
# the coefficient-list scan
F2_PRIMITIVE = [
    "z + 1", "z^2 + z + 1", "z^3 + z + 1", "z^4 + z + 1", "z^5 + z^2 + 1",
    "z^6 + z + 1", "z^7 + z + 1", "z^8 + z^4 + z^3 + z^2 + 1",
    "z^9 + z^4 + 1", "z^10 + z^3 + 1", "z^11 + z^2 + 1",
    "z^12 + z^6 + z^4 + z + 1", "z^13 + z^4 + z^3 + z + 1",
    "z^14 + z^5 + z^3 + z + 1", "z^15 + z + 1", "z^16 + z^5 + z^3 + z^2 + 1",
    "z^17 + z^3 + 1", "z^18 + z^5 + z^2 + z + 1", "z^19 + z^5 + z^2 + z + 1",
    "z^20 + z^3 + 1", "z^21 + z^2 + 1", "z^22 + z + 1", "z^23 + z^5 + 1",
    "z^24 + z^4 + z^3 + z + 1",
]


@pytest.mark.parametrize("n", range(1, 25))
def test_find_primitive_f2_pinned(n):
    p = find_primitive(Field(2), n)
    assert str(p) == F2_PRIMITIVE[n - 1]
    assert is_primitive(p)


def test_find_primitive_f2_at_factoring_limit():
    assert (str(find_primitive(Field(2), 48))
            == "z^48 + z^7 + z^5 + z^4 + z^2 + z + 1")


@pytest.mark.parametrize("q,n", [(2, 49), (4, 25), (3, 31)])
def test_primitive_search_refuses_past_factoring_limit(q, n):
    f = Field(q)
    with pytest.raises(BoundExceeded, match="factoring limit"):
        find_primitive(f, n)
    with pytest.raises(BoundExceeded, match="factoring limit"):
        is_primitive(Poly(f, (1,) * (n + 1)))


def test_is_primitive_refuses_past_factoring_limit_whatever_p0():
    # the limit is checked before p(0) = 0 would answer False
    with pytest.raises(BoundExceeded, match="refusing to factor 562949953421311: "
                       "past the factoring limit 2"):
        is_primitive(Poly(Field(2), (0,) * 49 + (1,)))


def test_companion_matrix_frozen():
    f2, f3 = Field(2), Field(3)
    assert companion_matrix(find_primitive(f2, 2)) == [[1, 1], [1, 0]]
    assert companion_matrix(find_primitive(f2, 3)) == [
        [0, 1, 0], [1, 0, 1], [1, 0, 0]]
    # over F_3 the coefficients get negated
    assert companion_matrix(Poly(f3, (2, 1, 1))) == [[2, 1], [1, 0]]


def test_companion_satisfies_own_polynomial():
    f = Field(3)
    p = find_primitive(f, 3)
    a = companion_matrix(p)
    # p(A) = 0
    acc = [[0] * 3 for _ in range(3)]
    power = mat_identity(3)
    for c in p.coeffs:
        if c:
            acc = [[f.add(x, f.mul(c, y)) for x, y in zip(r1, r2)]
                   for r1, r2 in zip(acc, power)]
        power = mat_mul(f, power, a)
    assert acc == [[0] * 3 for _ in range(3)]


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 8), (3, 2), (4, 2), (5, 2)])
def test_companion_counter_cycles_nonzero_vectors(q, n):
    c = companion_counter(Field(q), n)
    rep = measure_counter(c)
    assert rep.closed and rep.distinct
    assert rep.observed_length == q ** n - 1


def test_mat_inverse():
    f = Field(5)
    a = [[1, 2], [3, 4]]
    assert mat_mul(f, a, mat_inverse(f, a)) == mat_identity(2)
    with pytest.raises(ValueError):
        mat_inverse(f, [[1, 2], [2, 4]])


def test_elementary_ops():
    f = Field(5)
    s = Scale(f, 0, 3)
    assert s.apply((2, 1)) == (1, 1)
    assert s.inverse().apply(s.apply((2, 1))) == (2, 1)
    a = AddRow(f, 1, 0, 2)
    assert a.apply((3, 1)) == (3, 2)
    assert a.inverse().apply(a.apply((3, 1))) == (3, 1)
    with pytest.raises(ValueError):
        Scale(f, 0, 0)
    with pytest.raises(ValueError):
        AddRow(f, 1, 1, 2)


def test_elementary_tape_costs():
    f = Field(5)
    t = Tape((2, 1))
    Scale(f, 0, 3).apply_tape(t)
    assert (len(t.reads), t.writes) == (1, 1)
    t = Tape((3, 1))
    AddRow(f, 0, 1, 2).apply_tape(t)
    assert (len(t.reads), t.writes) == (2, 1)


def test_elementary_matrix_agrees_with_apply():
    f = Field(7)
    for op in (Scale(f, 1, 4), AddRow(f, 2, 0, 5)):
        m = op.matrix(3)
        for trial in range(10):
            x = [random.Random(trial).randrange(7) for _ in range(3)]
            assert tuple(mat_vec(f, m, x)) == op.apply(tuple(x))


def test_decompose_identity_is_empty():
    f = Field(3)
    assert decompose_elementary(mat_identity(4), f) == []


def _product_matrix(field, ops, n):
    acc = mat_identity(n)
    for op in ops:
        acc = mat_mul(field, op.matrix(n), acc)
    return acc


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (2, 3, 5), (2, 5, 11),
                                   (3, 2, 3), (3, 3, 6), (5, 3, 7)])
def test_decompose_companion_frozen_counts(q, n, k):
    f = Field(q)
    a = companion_matrix(find_primitive(f, n))
    ops = decompose_elementary(a, f)
    assert len(ops) == k
    assert row_op_count(f, n) == k
    assert _product_matrix(f, ops, n) == a


def test_row_op_count_bound_f2():
    f = Field(2)
    counts = [row_op_count(f, n) for n in range(2, 11)]
    assert counts == [2, 5, 8, 11, 14, 17, 24, 23, 26]
    for n, k in zip(range(2, 11), counts):
        assert k <= n * n + 4 * (n - 1)


def test_row_op_count_at_least_the_width():
    # k row operations fix a subspace of dimension at least n - k, and a
    # primitive companion matrix of degree n >= 2 fixes only 0, so k >= n:
    # general_counter skips any pointer of fewer than n words on this bound.
    # F_2 at n = 1 is the exception: z + 1 is the identity, no operations
    assert row_op_count(Field(2), 1) == 0
    for n in range(2, 49):  # every inner width general_counter can probe
        assert row_op_count(Field(2), n) >= n, n
    for q in (3, 4, 5, 7):
        for n in range(1, 7):
            assert row_op_count(Field(q), n) >= n, (q, n)


@pytest.mark.parametrize("q", [2, 3, 5, 4])
def test_decompose_random_invertible(q):
    f = Field(q)
    rng = random.Random(1000 + q)
    for n in (2, 3, 4):
        for _ in range(5):
            while True:
                a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                try:
                    mat_inverse(f, a)
                    break
                except ValueError:
                    continue
            ops = decompose_elementary(a, f)
            assert _product_matrix(f, ops, n) == a
            assert len(ops) <= n * n + 4 * (n - 1)
            # every op must move actual data when driven by a pointer
            for op in ops:
                t = Tape((1,) * n)
                op.apply_tape(t)
                assert t.writes == 1


def test_decompose_rejects_singular():
    with pytest.raises(ValueError):
        decompose_elementary([[1, 1], [1, 1]], Field(2))


@pytest.mark.parametrize("a,message", [
    ([[1, 0, 0], [0, 1, 0]], "expected 2 rows of length 2, row 0 has length 3"),
    ([[1], [0, 1]], "expected 2 rows of length 2, row 0 has length 1"),
    ([[2, 0], [0, 1]], "entry (0, 0) = 2 is not an element of F_2"),
    ([[1, 0], [0, -1]], "entry (1, 1) = -1 is not an element of F_2"),
    ([[1.0, 0], [0, 1]], "entry (0, 0) must be an integer, got 1.0"),
    ([[1, 0], [0, True]], "entry (1, 1) must be an integer, got True"),
])
def test_decompose_rejects_malformed_matrices(a, message):
    # before any elimination: these used to raise AssertionError or
    # IndexError, and -1 and 1.0 were decomposed into lists that do not
    # rebuild the input
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decompose_elementary(a, Field(2))


def test_field_and_row_op_equality():
    assert Field(4) == Field(4) and hash(Field(4)) == hash(Field(4))
    assert Field(4) != Field(2) and Field(4) != 4
    assert AddRow(Field(4), 0, 1, 2) == AddRow(Field(4), 0, 1, 2)


def test_linear_counter_default_pointer():
    c = linear_counter(Field(2), 2)
    # two row ops fit in a single binary pointer cell
    assert c.recipe["r"] == 1 and c.recipe["row_ops"] == 2
    assert c.claimed_length == 2 ** 3 - 2 ** 1 == 6
    rep = measure_counter(c)
    assert rep.closed and rep.distinct and rep.observed_length == 6


@pytest.mark.parametrize("q,n,r,length", [(2, 2, 3, 24), (2, 3, 3, 56),
                                          (3, 2, 1, 24), (2, 5, 4, 496)])
def test_linear_counter_orbits(q, n, r, length):
    c = linear_counter(Field(q), n, r)
    assert c.claimed_length == q ** (n + r) - q ** r == length
    rep = measure_counter(c)
    assert rep.closed and rep.distinct
    assert rep.observed_length == length
    assert rep.max_reads <= c.claimed_reads == r + 2
    assert rep.max_writes <= c.claimed_writes == 2


def test_linear_counter_missing_words_are_zero_vectors():
    c = linear_counter(Field(2), 2, r=3)
    rep = measure_counter(c)
    domain = c.domain
    missing = [domain.unrank(i) for i in range(domain.size)
               if i not in rep.visited_ranks]
    assert len(missing) == 2 ** 3
    for w in missing:
        assert w[3:] == (0, 0)


def test_linear_counter_prev_roundtrip():
    c = linear_counter(Field(3), 2, r=2)
    w = c.start
    for _ in range(200):
        nxt, _ = c.next(w)
        back, _ = c.prev(nxt)
        assert back == w
        w = nxt


def test_linear_counter_pointer_too_small():
    with pytest.raises(ValueError):
        linear_counter(Field(2), 3, r=1)  # 5 ops need at least 3 pointer bits
