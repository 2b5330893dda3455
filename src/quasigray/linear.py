"""Counters from invertible linear maps over finite fields.

A primitive polynomial's companion matrix cycles through every nonzero
vector of F_q^n. Factoring the matrix into single-row operations and driving
those with a Gray-code pointer gives a counter of length q^(n+r) - q^r that
reads r+2 and writes 2 cells per step.

The primitivity test has two paths. Over F_2 a polynomial is a Python int,
bit i holding the coefficient of z^i, and residues are squared and shifted
as ints; every other field uses coefficient lists and Field arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from .compose import StepList, cycle_compose
from .core import BoundExceeded, Counter, Domain, _at_least, _integer, apply_word

# One irreducible modulus over F_2 per extension degree, bit i holding the
# coefficient of z^i. Degree 16 is as far as the field table goes.
_F2_MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

_FACTOR_LIMIT = 2 ** 48
_TRIAL_LIMIT = 2 ** 16
# the small-prime screen and the witnesses of _is_prime: as witnesses they
# decide every n below 3.1 * 10^23, far past _FACTOR_LIMIT
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything this package can reach."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of an odd composite."""
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors, smallest first. Trial division handles the
    small part; Miller-Rabin plus Pollard rho split whatever is left."""
    if (n := _at_least(n, 1, "n")) > _FACTOR_LIMIT:
        raise BoundExceeded(f"refusing to factor {n}: past the factoring limit 2^48")
    out = []
    for d in itertools.chain((2,), range(3, _TRIAL_LIMIT + 1, 2)):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    if n == 1:
        return out
    stack = [n]
    found = set()
    while stack:
        c = stack.pop()
        if _is_prime(c):
            found.add(c)
            continue
        f = _pollard_rho(c)
        stack.append(f)
        stack.append(c // f)
    return out + sorted(found)


class Field:
    """F_q arithmetic with elements encoded as integers 0..q-1.

    q must be prime or a power of two up to 2^16. Extension-field elements
    are bit vectors of polynomial coefficients.
    """

    __slots__ = ("q", "char", "k", "modulus")

    def __init__(self, q: int):
        q = _at_least(q, 2, "field order")
        if _is_prime(q):
            self.char = q
            self.k = 1
            self.modulus = None
        else:
            k = q.bit_length() - 1
            if 2 ** k != q or k not in _F2_MODULI:
                raise ValueError("field order must be prime or 2^k with k <= 16")
            self.char = 2
            self.k = k
            self.modulus = _F2_MODULI[k]
        self.q = q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q if self.modulus is None else a ^ b

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q if self.modulus is None else a ^ b

    def neg(self, a: int) -> int:
        return (-a) % self.q if self.modulus is None else a

    def mul(self, a: int, b: int) -> int:
        if self.modulus is None:
            return a * b % self.q
        acc = 0
        # b > 0, not b: a negative b (an out-of-range digit) would never
        # shift down to 0
        while b > 0:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> self.k & 1:
                a ^= self.modulus
        return acc

    def pow(self, a: int, e: int) -> int:
        e = _at_least(e, 0, "exponent")
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"Field({self.q})"


@dataclass(frozen=True)
class Poly:
    """Polynomial over a field, coefficients stored constant-term first."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        if any(not 0 <= _integer(c, "coefficient") < self.field.q for c in self.coeffs):
            raise ValueError("coefficient out of range")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __str__(self) -> str:
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = "z" if j == 1 else f"z^{j}"
                terms.append(z if c == 1 else f"{c}{z}")
        return " + ".join(terms) if terms else "0"


def _residue_mul(field: Field, a: list[int], b: list[int], p) -> list[int]:
    """a*b reduced by the monic polynomial p (coefficient tuple)."""
    n = len(p) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = field.add(prod[i + j], field.mul(ai, bj))
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c == 0:
            continue
        for t in range(n + 1):
            if p[t]:
                prod[d - n + t] = field.sub(prod[d - n + t], field.mul(c, p[t]))
    return prod[:n]


def _residue_pow(field: Field, base: list[int], e: int, p) -> list[int]:
    n = len(p) - 1
    acc = [1] + [0] * (n - 1)
    while e:
        if e & 1:
            acc = _residue_mul(field, acc, base, p)
        base = _residue_mul(field, base, base, p)
        e >>= 1
    return acc


def _f2_is_primitive(bits: int, n: int, factors: list[int]) -> bool:
    """Whether z generates the multiplicative group modulo the degree-n
    polynomial p over F_2 packed in `bits`, given p(0) = 1 and the distinct
    prime factors of 2^n - 1.

    z^(2^n) = z (n squarings) stands in for z^(2^n - 1) = 1, since z is
    invertible mod p; z^e for each maximal divisor e is square-and-multiply
    from the top bit of e, where multiplying by z is a shift.
    """

    def reduce(x: int) -> int:
        while (d := x.bit_length() - 1) >= n:
            x ^= bits << (d - n)
        return x

    def square(x: int) -> int:
        # reading x's binary digits in base 4 spreads bit i to bit 2i
        return reduce(int(format(x, "b"), 4))

    z = reduce(2)
    x = z
    for _ in range(n):
        x = square(x)
    if x != z:
        return False
    order = (1 << n) - 1
    for rho in factors:
        acc = 1
        for digit in format(order // rho, "b"):
            acc = square(acc)
            if digit == "1":
                acc = reduce(acc << 1)
        if acc == 1:
            return False
    return True


def _z_generates(field: Field, coeffs, factors: list[int]) -> bool:
    """Whether z has order q^n - 1 modulo the monic degree-n polynomial p
    with these coefficients, given p(0) != 0 and the distinct prime factors
    of q^n - 1: over F_2 on the packed int form of p (`_f2_is_primitive`),
    elsewhere on coefficient lists."""
    n = len(coeffs) - 1
    if field.q == 2:
        return _f2_is_primitive(sum(c << j for j, c in enumerate(coeffs)), n, factors)
    order = field.q ** n - 1
    one = [1] + [0] * (n - 1)
    z = [field.neg(coeffs[0])] if n == 1 else [0, 1] + [0] * (n - 2)
    return (_residue_pow(field, z, order, coeffs) == one
            and all(_residue_pow(field, z, order // rho, coeffs) != one for rho in factors))


def is_primitive(p: Poly) -> bool:
    """Whether z generates the full multiplicative group modulo p.

    That forces p irreducible, so this single test suffices
    (`_z_generates`). Refuses q^deg - 1 beyond the factoring limit.
    """
    n = _at_least(p.degree, 1, "degree")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    factors = prime_factors(p.field.q ** n - 1)
    # p(0) = 0: divisible by z, so z is not invertible mod p
    return p.coeffs[0] != 0 and _z_generates(p.field, p.coeffs, factors)


def find_primitive(field: Field, n: int) -> Poly:
    """First primitive monic polynomial of degree n, ordered by comparing
    coefficient tuples from the leading coefficient down.

    q^n - 1 is factored once. Over F_2 the scan runs on packed ints
    (1 << n) | i in ascending i; it skips p(0) = 0 and, for n >= 2,
    polynomials with an even number of terms, which z + 1 divides.
    """
    n = _at_least(n, 1, "degree")
    q = field.q
    factors = prime_factors(q ** n - 1)
    if q == 2:
        for i in range(1, 2 ** n, 2):
            if n > 1 and i.bit_count() % 2:
                continue
            if _f2_is_primitive(1 << n | i, n, factors):
                return Poly(field, tuple(i >> j & 1 for j in range(n)) + (1,))
    else:
        for i in range(q ** n):
            coeffs = tuple((i // q ** j) % q for j in range(n)) + (1,)
            if coeffs[0] and _z_generates(field, coeffs, factors):
                return Poly(field, coeffs)
    raise RuntimeError("no primitive polynomial found")  # cannot happen


def companion_matrix(p: Poly) -> list[list[int]]:
    """Companion matrix acting on column vectors: first column holds the
    negated coefficients, leading one first; the superdiagonal is ones."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("need a monic polynomial of positive degree")
    field = p.field
    n = p.degree
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][0] = field.neg(p.coeffs[n - 1 - i])
        if i + 1 < n:
            mat[i][i + 1] = 1
    return mat


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(field: Field, a, b) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            v = a[i][t]
            if v == 0:
                continue
            row = b[t]
            oi = out[i]
            for j in range(n):
                if row[j]:
                    oi[j] = field.add(oi[j], field.mul(v, row[j]))
    return out


def mat_vec(field: Field, a, x) -> list[int]:
    out = []
    for row in a:
        v = 0
        for c, xi in zip(row, x):
            if c and xi:
                v = field.add(v, field.mul(c, xi))
        out.append(v)
    return out


def mat_inverse(field: Field, a) -> list[list[int]]:
    n = len(a)
    work = [row[:] + ident[:] for row, ident in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = field.inv(work[col][col])
        work[col] = [field.mul(pv, v) for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                c = work[r][col]
                work[r] = [field.sub(v, field.mul(c, w))
                           for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _times(field: Field, k: int) -> Callable[[int], int]:
    """x -> field.mul(k, x) for any int x, from a table of the q products
    when x is a field element."""
    q, mul = field.q, field.mul
    if field.modulus is None:
        return lambda x: k * x % q
    row = [mul(k, x) for x in range(q)]
    return lambda x: row[x] if 0 <= x < q else mul(k, x)


@dataclass(frozen=True)
class Scale:
    """Row operation x_i <- c * x_i."""

    field: Field
    i: int
    c: int

    def __post_init__(self) -> None:
        _at_least(self.i, 0, "row")
        if not 0 < _integer(self.c, "scale factor") < self.field.q:
            raise ValueError("scale factor must be a nonzero field element")

    def apply_tape(self, tape) -> None:
        tape.write(self.i, self.field.mul(self.c, tape.read(self.i)))

    apply = apply_word

    def word_fn(self) -> Callable[[list], None]:
        """apply_tape on a plain list of digits, changed in place: the same
        arithmetic on any digits, with nothing counted."""
        i, times = self.i, _times(self.field, self.c)

        def f(c: list) -> None:
            c[i] = times(c[i])
        return f

    def shifted(self, d: int, inverse: bool = False) -> "Scale":
        """This operation, or its inverse, on row i + d."""
        return Scale(self.field, self.i + d,
                     self.field.inv(self.c) if inverse else self.c)

    def inverse(self) -> "Scale":
        return self.shifted(0, inverse=True)

    def matrix(self, n: int) -> list[list[int]]:
        mat = mat_identity(n)
        mat[self.i][self.i] = self.c
        return mat


@dataclass(frozen=True)
class AddRow:
    """Row operation x_i <- x_i + c * x_j."""

    field: Field
    i: int
    j: int
    c: int

    def __post_init__(self) -> None:
        if _at_least(self.i, 0, "row") == _at_least(self.j, 0, "source row"):
            raise ValueError("source and destination rows must differ")
        if not 0 < _integer(self.c, "multiplier") < self.field.q:
            raise ValueError("multiplier must be a nonzero field element")

    def apply_tape(self, tape) -> None:
        v = self.field.mul(self.c, tape.read(self.j))
        tape.write(self.i, self.field.add(tape.read(self.i), v))

    apply = apply_word

    def word_fn(self) -> Callable[[list], None]:
        """apply_tape on a plain list of digits, changed in place: the same
        arithmetic on any digits, with nothing counted."""
        i, j, q = self.i, self.j, self.field.q
        if self.field.modulus is None:
            k = self.c

            def f(c: list) -> None:
                c[i] = (c[i] + k * c[j]) % q
        else:
            times = _times(self.field, self.c)

            def f(c: list) -> None:
                c[i] ^= times(c[j])
        return f

    def shifted(self, d: int, inverse: bool = False) -> "AddRow":
        """This operation, or its inverse, on rows i + d and j + d."""
        return AddRow(self.field, self.i + d, self.j + d,
                      self.field.neg(self.c) if inverse else self.c)

    def inverse(self) -> "AddRow":
        return self.shifted(0, inverse=True)

    def matrix(self, n: int) -> list[list[int]]:
        mat = mat_identity(n)
        mat[self.i][self.j] = self.c
        return mat


def decompose_elementary(a, field: Field) -> list:
    """Write an invertible matrix as a product of single-row operations.

    Applied first to last as left multiplications the result rebuilds the
    input: E_k ... E_1 = A. Row swaps are emulated by three additions and a
    scale by -1 (the scale drops out in characteristic 2), keeping the
    count within n^2 + 4(n-1). Raises ValueError unless a is n rows of n
    integers in 0..q-1, or when it is singular.
    """
    n, q = len(a), field.q
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError(f"expected {n} rows of length {n}, row {i} has length {len(row)}")
        for j, x in enumerate(row):
            # an entry's name is built only when it is not a plain int in range:
            # naming every entry took about a tenth of walk-crt's set-up
            if type(x) is not int or not 0 <= x < q:
                if not 0 <= _integer(x, f"entry ({i}, {j})") < q:
                    raise ValueError(f"entry ({i}, {j}) = {x} is not an element of F_{q}")
    # the working matrix by column, so each emitted operation's word_fn
    # applied to every column left-multiplies the matrix by it
    cols = [list(c) for c in zip(*a)]
    ops: list = []

    def emit(op) -> None:
        ops.append(op)
        f = op.word_fn()
        for c in cols:
            f(c)

    for col in range(n):
        pivot = next((r for r in range(col, n) if cols[col][r] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            # swap rows col and pivot without a swap primitive
            emit(AddRow(field, col, pivot, 1))
            emit(AddRow(field, pivot, col, field.neg(1)))
            emit(AddRow(field, col, pivot, 1))
            if field.char != 2:
                emit(Scale(field, pivot, field.neg(1)))
        pv = cols[col][col]
        if pv != 1:
            emit(Scale(field, col, field.inv(pv)))
        for row in range(n):
            if row != col and cols[col][row] != 0:
                emit(AddRow(field, row, col, field.neg(cols[col][row])))

    assert cols == mat_identity(n)  # the identity is its own transpose
    return [op.inverse() for op in reversed(ops)]


@functools.lru_cache(maxsize=None)
def _companion_ops(q: int, n: int) -> tuple[Poly, tuple]:
    """The first primitive polynomial of degree n over F_q and the row
    operations of its companion matrix, built once per (q, n)."""
    field = Field(q)
    p = find_primitive(field, n)
    return p, tuple(decompose_elementary(companion_matrix(p), field))


def row_op_count(field: Field, n: int) -> int:
    """Length of the row-operation list for the degree-n companion matrix."""
    return len(_companion_ops(field.q, n)[1])


def linear_counter(field: Field, n: int, r: int | None = None) -> Counter:
    """Counter of length q^(n+r) - q^r over Z_q^(r+n).

    The first r cells hold a Gray pointer, the rest a nonzero vector of
    F_q^n. Each pointer revolution pushes the vector once through the
    companion matrix of the first primitive polynomial of degree n. The
    pointer must be wide enough to index every row operation; by default it
    is the smallest such width. The only words never visited are the q^r
    pointer settings over the zero vector.
    """
    n = _at_least(n, 1, "vector width")
    q = field.q
    p, steps = _companion_ops(q, n)
    k = len(steps)
    r_min = next(r for r in itertools.count(1) if q ** r >= k)
    if r is None:
        r = r_min
    elif q ** (r := _at_least(r, 1, "pointer width")) < k:
        raise ValueError(f"pointer width {r} cannot index {k} row operations")
    sl = StepList(steps, Domain.uniform(q, n), q ** n - 1)
    return cycle_compose(sl, q, r, (0,) * (n - 1) + (1,),
                         claimed_reads=r + 2, claimed_writes=2,
                         recipe={"kind": "linear", "q": q, "n": n, "r": r,
                                 "polynomial": str(p), "row_ops": k})


def companion_counter(field: Field, n: int) -> Counter:
    """Counter applying the companion matrix once per step, visiting every
    nonzero vector of F_q^n. Reads and writes all n cells."""
    p = find_primitive(field, n)
    mat = companion_matrix(p)
    mat_inv = mat_inverse(field, mat)
    domain = Domain.uniform(field.q, n)

    def make(m):
        def fn(tape):
            x = [tape.read(i) for i in range(n)]
            y = mat_vec(field, m, x)
            for i in range(n):
                tape.write(i, y[i])
        return fn

    return Counter(domain, make(mat), make(mat_inv), field.q ** n - 1,
                   (0,) * (n - 1) + (1,),
                   claimed_reads=n, claimed_writes=n,
                   recipe={"kind": "companion", "q": field.q, "n": n,
                           "polynomial": str(p)})
