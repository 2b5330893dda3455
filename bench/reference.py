"""Reference arithmetic and step models that check quasigray's output.

Nothing here imports quasigray. Every fact is re-derived from the
documented constructions:

- the m-ary Gray code whose word of rank i has digit j equal to
  b_j - b_(j+1) (mod m), with b_j the base-m digits of i, least
  significant first;
- pointer counters (odd, linear): the first r cells are a Gray pointer,
  and each full pointer revolution moves the data half one step of its
  cycle (odometer successor for odd, x -> A x for the companion matrix of
  the recipe's polynomial for linear);
- crt products: the clock steps every time, and component i+1 steps
  exactly when the clock shows the i-th word of its cycle from the start;
- general counters: a crt product seen through residues of each data
  cell, modulo 2^l (bits, most significant first) and modulo o.

A model is fed consecutive words of a forward walk. It raises Mismatch at
the first step the construction forbids.
"""

from __future__ import annotations

import math
import re


class Mismatch(Exception):
    """A step that the documented construction does not allow."""


# ---------------------------------------------------------------- Gray code

def gray_unrank(i: int, m: int, n: int) -> tuple:
    b = []
    for _ in range(n):
        i, d = divmod(i, m)
        b.append(d)
    b.append(0)
    return tuple((b[j] - b[j + 1]) % m for j in range(n))


def gray_rank(word, m: int) -> int:
    # b_j = g_j + b_(j+1), recovered from the most significant digit down
    b = 0
    rank = 0
    for g in reversed(word):
        b = (g + b) % m
        rank = rank * m + b
    return rank


class GrayModel:
    """Whole-word m-ary Gray code: one digit moves by +1 mod m per step and
    the rank moves by +1 mod m^n."""

    def __init__(self, m: int, n: int):
        self.m, self.n, self.size = m, n, m ** n

    def step(self, a, b) -> None:
        changed = [j for j in range(self.n) if a[j] != b[j]]
        if len(changed) != 1:
            raise Mismatch(f"gray step changed {len(changed)} digits: {a} -> {b}")
        j = changed[0]
        if b[j] != (a[j] + 1) % self.m:
            raise Mismatch(f"gray digit {j} moved {a[j]} -> {b[j]}")
        if gray_rank(b, self.m) != (gray_rank(a, self.m) + 1) % self.size:
            raise Mismatch(f"gray rank did not advance by one: {a} -> {b}")


# ----------------------------------------------------------- finite fields

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def prime_divisors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """F_q for prime q, or F_4 as bit vectors of a + b*x modulo x^2 + x + 1
    (the only irreducible quadratic over F_2)."""

    def __init__(self, q: int):
        if _is_prime(q):
            self.char = q
        elif q == 4:
            self.char = 2
        else:
            raise ValueError(f"reference field F_{q} is not implemented")
        self.q = q

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.q == 4 else (a + b) % self.q

    def neg(self, a: int) -> int:
        return a if self.char == 2 else (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        if self.q != 4:
            return a * b % self.q
        acc = 0
        for bit in range(2):
            if b >> bit & 1:
                acc ^= a << bit
        if acc & 0b100:
            acc ^= 0b111
        return acc


def parse_poly(text: str, n: int) -> list:
    """Coefficients c_0..c_n of a monic degree-n polynomial written like
    'z^5 + z + 2' or '3z^2 + 1'."""
    coeffs = [0] * (n + 1)
    for term in text.split("+"):
        mt = re.fullmatch(r"\s*(\d*)(z(?:\^(\d+))?)?\s*", term)
        if not mt or not (mt.group(1) or mt.group(2)):
            raise ValueError(f"cannot parse polynomial {text!r}")
        c = int(mt.group(1)) if mt.group(1) else 1
        j = (int(mt.group(3)) if mt.group(3) else 1) if mt.group(2) else 0
        if j > n:
            raise ValueError(f"polynomial {text!r} has degree above {n}")
        coeffs[j] = c
    if coeffs[n] != 1:
        raise ValueError(f"polynomial {text!r} is not monic of degree {n}")
    return coeffs


def _polymulmod(f: GF, a: list, b: list, p: list) -> list:
    n = len(p) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = f.add(prod[i + j], f.mul(x, y))
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            # z^k = z^(k-n) * z^n and z^n = -(c_0 + ... + c_(n-1) z^(n-1))
            for j in range(n):
                if p[j]:
                    prod[k - n + j] = f.add(prod[k - n + j], f.neg(f.mul(c, p[j])))
            prod[k] = 0
    return prod[:n]


def is_primitive(f: GF, coeffs: list) -> bool:
    """True when z has multiplicative order q^n - 1 modulo the polynomial."""
    n = len(coeffs) - 1
    order = f.q ** n - 1

    def zpow(e: int) -> list:
        acc = [1] + [0] * (n - 1)
        base = ([0, 1] + [0] * (n - 2)) if n > 1 else [f.neg(coeffs[0])]
        while e:
            if e & 1:
                acc = _polymulmod(f, acc, base, coeffs)
            base = _polymulmod(f, base, base, coeffs)
            e >>= 1
        return acc

    one = [1] + [0] * (n - 1)
    if zpow(order) != one:
        return False
    return all(zpow(order // p) != one for p in prime_divisors(order))


def companion_step(f: GF, coeffs: list):
    """x -> A x for the companion matrix whose first column holds the
    negated coefficients c_(n-1), ..., c_0 and whose superdiagonal is ones."""
    n = len(coeffs) - 1
    negc = [f.neg(coeffs[n - 1 - i]) for i in range(n)]

    def apply(x) -> tuple:
        x0 = x[0]
        return tuple(f.add(f.mul(negc[i], x0), x[i + 1] if i + 1 < n else 0)
                     for i in range(n))

    return apply


# ------------------------------------------------------------ step models

class PointerModel:
    """Gray pointer on the first r cells over the data half after them.

    Each step moves the pointer one Gray step and changes at most one data
    cell. Each time the pointer arrives at rank 0 the data half must be
    `successor` of the data half at the previous arrival.
    """

    def __init__(self, m: int, r: int, successor, nonzero: bool):
        self.pointer = GrayModel(m, r)
        self.r = r
        self.successor = successor
        self.nonzero = nonzero
        self.last = None

    def step(self, a, b) -> None:
        r = self.r
        self.pointer.step(a[:r], b[:r])
        da, db = a[r:], b[r:]
        if sum(1 for x, y in zip(da, db) if x != y) > 1:
            raise Mismatch(f"one step changed several data cells: {a} -> {b}")
        if self.nonzero and not any(db):
            raise Mismatch(f"data half reached zero: {b}")
        if gray_rank(b[:r], self.pointer.m) == 0:
            if self.last is not None:
                want = self.successor(self.last)
                if tuple(db) != want:
                    raise Mismatch(f"revolution took data {self.last} to {tuple(db)}, "
                                   f"expected {want}")
            self.last = tuple(db)


def odometer(m: int):
    def succ(x) -> tuple:
        out = list(x)
        for j in range(len(out)):
            out[j] = (out[j] + 1) % m
            if out[j]:
                break
        return tuple(out)
    return succ


class CompanionModel:
    def __init__(self, f: GF, coeffs: list):
        self.apply = companion_step(f, coeffs)

    def step(self, a, b) -> None:
        want = self.apply(tuple(a))
        if tuple(b) != want:
            raise Mismatch(f"companion step took {a} to {b}, expected {want}")


class CrtModel:
    """Clock cells follow their Gray step; component k changes exactly when
    the clock, before the step, showed marker word k."""

    def __init__(self, clock: GrayModel, n_clock: int, markers: list, parts: list):
        self.clock = clock
        self.n_clock = n_clock
        self.markers = markers
        self.parts = parts  # (projection, model) per component after the clock

    def step(self, a, b) -> None:
        ca = tuple(a[:self.n_clock])
        self.clock.step(ca, b[:self.n_clock])
        for mk, (proj, model) in zip(self.markers, self.parts):
            pa, pb = proj(a), proj(b)
            if ca == mk:
                if pa == pb:
                    raise Mismatch(f"component did not step at its marker {mk}")
                model.step(pa, pb)
            elif pa != pb:
                raise Mismatch(f"component stepped while the clock showed {ca}, "
                               f"not its marker {mk}")


# ------------------------------------------------------- recipes to models

def closed_form_length(recipe: dict) -> int:
    """Cycle length that each construction promises, from its recipe."""
    kind = recipe["kind"]
    if kind in ("base", "odd"):
        return recipe["m"] ** recipe["n"]
    if kind == "linear":
        q = recipe["q"]
        return q ** (recipe["n"] + recipe["r"]) - q ** recipe["r"]
    if kind == "companion":
        return recipe["q"] ** recipe["n"] - 1
    if kind == "crt":
        lengths = [closed_form_length(c) for c in recipe["components"]]
        rest = lengths[1:]
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                if math.gcd(rest[i], rest[j]) != 1:
                    raise Mismatch(f"crt lengths {rest[i]} and {rest[j]} are not co-prime")
        return math.prod(lengths)
    if kind == "general":
        m, i = recipe["m"], recipe["clock"]
        ell, o = _split_radix(m)
        bits = recipe["binary"]
        binary = 2 ** (bits["inner"] + bits["pointer"]) - 2 ** bits["pointer"]
        d = recipe["n"] - i
        if bits["bits"] != ell * d or bits["inner"] + bits["pointer"] != ell * d:
            raise Mismatch(f"binary part {bits} does not fill {d} cells of {ell} bits")
        odd = o ** d if o > 1 else 1
        if math.gcd(binary, odd) != 1:
            raise Mismatch(f"binary length {binary} and odd length {odd} share a factor")
        return m ** i * binary * odd
    raise ValueError(f"unknown recipe kind {kind!r}")


def _split_radix(m: int) -> tuple:
    ell = 0
    while m % 2 == 0:
        m //= 2
        ell += 1
    return ell, m


def _general_views(recipe: dict):
    m, i = recipe["m"], recipe["clock"]
    ell, o = _split_radix(m)
    low = 1 << ell

    def bits_of(word) -> tuple:
        out = []
        for v in word[i:]:
            v %= low
            out.extend((v >> (ell - 1 - k)) & 1 for k in range(ell))
        return tuple(out)

    def odd_of(word) -> tuple:
        return tuple(v % o for v in word[i:])

    return bits_of, odd_of, o


def model_for(recipe: dict, start, parts: dict | None = None):
    """A fresh step model for the counter the recipe describes.

    `start` is the counter's start word; it fixes the crt marker words. A
    general recipe names its parts only by size, so `parts` carries the
    recipes of its binary (linear) and odd parts, rebuilt with the public
    constructors; the model checks that they match the sizes.
    """
    kind = recipe["kind"]
    if kind == "base":
        return GrayModel(recipe["m"], recipe["n"])
    if kind == "odd":
        m, r = recipe["m"], recipe["pointer"]
        return PointerModel(m, r, odometer(m), nonzero=False)
    if kind in ("linear", "companion"):
        q, n = recipe["q"], recipe["n"]
        f = GF(q)
        coeffs = parse_poly(recipe["polynomial"], n)
        if not is_primitive(f, coeffs):
            raise Mismatch(f"polynomial {recipe['polynomial']} is not primitive over F_{q}")
        if kind == "companion":
            return CompanionModel(f, coeffs)
        return PointerModel(q, recipe["r"], companion_step(f, coeffs), nonzero=True)
    if kind == "crt":
        comps = recipe["components"]
        if comps[0]["kind"] != "base":
            raise ValueError("reference crt model needs a base clock")
        m, n1 = comps[0]["m"], comps[0]["n"]
        views, off = [], n1
        for c in comps[1:]:
            lo, hi = off, off + len(radices(c))
            views.append((lambda word, lo=lo, hi=hi: tuple(word[lo:hi]), c))
            off = hi
        return _crt_model(m, n1, start, views, parts)
    if kind == "general":
        bits = recipe["binary"]
        binary = parts["binary"]
        if (binary["kind"], binary["q"], binary["n"], binary["r"]) != (
                "linear", 2, bits["inner"], bits["pointer"]):
            raise Mismatch(f"binary part {binary} does not match {bits}")
        bits_of, odd_of, o = _general_views(recipe)
        views = [(bits_of, binary)]
        if o > 1:
            odd = parts["odd"]
            if (odd["kind"], odd["m"], odd["n"]) != ("odd", o, recipe["n"] - recipe["clock"]):
                raise Mismatch(f"odd part {odd} does not match {recipe['odd']}")
            views.append((odd_of, odd))
        return _crt_model(recipe["m"], recipe["clock"], start, views, parts)
    raise ValueError(f"unknown recipe kind {kind!r}")


def _crt_model(m: int, n_clock: int, start, views: list, parts) -> CrtModel:
    clock = GrayModel(m, n_clock)
    r0 = gray_rank(start[:n_clock], m)
    markers = [gray_unrank((r0 + k) % clock.size, m, n_clock) for k in range(len(views))]
    models = [(proj, model_for(rec, proj(start), parts)) for proj, rec in views]
    return CrtModel(clock, n_clock, markers, models)


def on_orbit(recipe: dict, word) -> bool:
    """Whether the word lies on the counter's claimed cycle: the missing
    words are those whose linear data half is zero."""
    kind = recipe["kind"]
    if kind in ("base", "odd"):
        return True
    if kind == "linear":
        return any(word[recipe["r"]:])
    if kind == "companion":
        return any(word)
    if kind == "crt":
        off = 0
        for c in recipe["components"]:
            w = len(radices(c))
            if not on_orbit(c, word[off:off + w]):
                return False
            off += w
        return True
    if kind == "general":
        bits_of, _odd_of, _o = _general_views(recipe)
        return any(bits_of(word)[recipe["binary"]["pointer"]:])
    raise ValueError(f"unknown recipe kind {kind!r}")


def radices(recipe: dict) -> tuple:
    kind = recipe["kind"]
    if kind in ("base", "odd", "general"):
        return (recipe["m"],) * recipe["n"]
    if kind == "linear":
        return (recipe["q"],) * (recipe["r"] + recipe["n"])
    if kind == "companion":
        return (recipe["q"],) * recipe["n"]
    if kind == "crt":
        return tuple(x for c in recipe["components"] for x in radices(c))
    raise ValueError(f"unknown recipe kind {kind!r}")


def orbit_word(recipe: dict, rng) -> tuple:
    """A uniformly drawn word on the counter's claimed cycle."""
    rad = radices(recipe)
    while True:
        w = tuple(rng.randrange(r) for r in rad)
        if on_orbit(recipe, w):
            return w


# ------------------------------------------------------------ word text

def parse_word(text: str) -> tuple:
    text = text.strip()
    return tuple(int(t) for t in (text.split(",") if "," in text else text))


def format_word(word, radix_max: int) -> str:
    return ("".join(map(str, word)) if radix_max <= 10
            else ",".join(map(str, word)))


# --------------------------------------------------- hierarchical search

def tree_walk_check(tree, rad: tuple) -> str | None:
    """Walk a two-level step tree over the whole domain from 0,0,0.

    The tree must query cell 1 at the root and one other cell per branch,
    and every leaf must write exactly the two cells on its path. The walk
    must visit every word once and return to the start.
    """
    total = math.prod(rad)
    word = (0, 0, 0)
    seen = set()
    for _ in range(total):
        if word in seen:
            return f"tree revisits {word} before closing"
        seen.add(word)
        node, path = tree, []
        while hasattr(node, "children"):
            path.append(node.coord)
            node = node.children[word[node.coord]]
        if len(path) != 2 or path[0] != 0:
            return f"tree reads cells {path} on {word}, expected cell 1 then one other"
        cells = [c for c, _v in node.assignments]
        if sorted(cells) != sorted(path):
            return f"leaf on {word} writes cells {cells}, expected {path}"
        nxt = list(word)
        for c, v in node.assignments:
            nxt[c] = v
        word = tuple(nxt)
    if word != (0, 0, 0):
        return f"tree does not close after {total} steps"
    return None


def count_two_level_trees(rad: tuple) -> int:
    """Count every two-level tree of the search's shape whose step is one
    cycle through the whole domain, by plain enumeration."""
    m1 = rad[0]
    total = math.prod(rad)
    m2, m3 = rad[1], rad[2]

    def idx(w) -> int:
        return (w[0] * m2 + w[1]) * m3 + w[2]

    # every way to fill one root branch: (cell read, leaf values)
    def branch_options():
        opts = []
        for b in (1, 2):
            leaves = [(a, c) for a in range(m1) for c in range(rad[b])]
            stack = [[]]
            for _ in range(rad[b]):
                stack = [s + [lv] for s in stack for lv in leaves]
            opts.extend((b, tuple(s)) for s in stack)
        return opts

    options = branch_options()
    words = [(x, y, z) for x in range(m1) for y in range(m2) for z in range(m3)]
    count = 0
    choice = [None] * m1

    def rec(v: int) -> None:
        nonlocal count
        if v == m1:
            image = [0] * total
            for w in words:
                b, leaves = choice[w[0]]
                a, c = leaves[w[b]]
                nw = list(w)
                nw[0], nw[b] = a, c
                image[idx(w)] = idx(nw)
            x, steps = image[0], 1
            while x != 0 and steps <= total:
                x = image[x]
                steps += 1
            if steps == total:
                count += 1
            return
        for opt in options:
            choice[v] = opt
            rec(v + 1)

    rec(0)
    return count
