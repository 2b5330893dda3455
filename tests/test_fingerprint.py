"""Fingerprints of every family's small counters and of the companion
decompositions, pinned as SHA-256 digests.

A refactor that keeps every word, cost, claim, recipe and tree keeps both
digests. Each zoo counter's own digest is pinned as well, in
zoo_digests.json, so a failure names the counters that changed; after a
deliberate change, `PYTHONPATH=src python tests/test_fingerprint.py`
rewrites that file.
"""

import hashlib
import itertools
import json
import math
import pathlib

from quasigray import (Field, companion_counter, crt_compose, dat_to_json,
                       gray_counter, linear_counter, materialize)
from quasigray.linear import _companion_ops

# the largest domain fingerprinted; twice this took the zoo past 3.5 s
ZOO_WORDS = 2048
# the largest crt component: 388 products, about 0.7 s of the zoo
CRT_PART_WORDS = 16
# zoo label -> the first 16 hex digits of the SHA-256 of what _feed hashes
ZOO_DIGESTS = pathlib.Path(__file__).with_name("zoo_digests.json")

ZOO_SHA256 = "2619b22f751f2419faecc4706d6449248ac1dd5a239a589663c0037e75393d72"
COMPANION_OPS_SHA256 = "12d72cff61652517885e03a0221c7bc8c4b2238d58d9aec73787f9a95e655ae4"


def _zoo():
    """(label, counter) for every grid counter of at most ZOO_WORDS words."""
    out = []
    for m in range(2, 9):
        for n in itertools.count(1):
            if m ** n > ZOO_WORDS:
                break
            out.append((f"base({m},{n})", gray_counter(m, n)))
    for q in (2, 3, 4, 5, 7, 8):
        f = Field(q)
        for n in itertools.count(1):
            r_min = linear_counter(f, n).recipe["r"]
            if q ** (n + r_min) > ZOO_WORDS:
                break
            for r in (r_min, r_min + 1):
                if q ** (n + r) <= ZOO_WORDS:
                    out.append((f"linear({q},{n},{r})", linear_counter(f, n, r)))
    for q in (2, 3, 4, 5):
        for n in itertools.count(1):
            if q ** n > ZOO_WORDS:
                break
            out.append((f"companion({q},{n})", companion_counter(Field(q), n)))
    parts = [(s, c) for s, c in out if c.domain.size <= CRT_PART_WORDS]
    for m in (2, 3):
        clock = gray_counter(m, 1)
        for k in (1, 2):
            for chosen in itertools.combinations(parts, k):
                rest = [c for _, c in chosen]
                if m * math.prod(c.domain.size for c in rest) > ZOO_WORDS:
                    continue
                if k == 2 and math.gcd(*(c.claimed_length for c in rest)) != 1:
                    continue
                label = f"crt(base({m},1),{','.join(s for s, _ in chosen)})"
                out.append((label, crt_compose([clock, *rest])))
    return out


def _feed(hashers, c) -> tuple[dict, dict]:
    """Hash what counter c shows into each of hashers: start, claims,
    recipe, next and prev word and cost on every word, and both
    materialized trees. Returns the next and prev images, word to word."""

    def update(data: bytes) -> None:
        for h in hashers:
            h.update(data)

    update(repr((c.start, c.claimed_length, c.claimed_reads,
                 c.claimed_writes, c.recipe)).encode())
    rows = []
    nexts, prevs = {}, {}
    for w in c.domain.words():
        (a, ca), (b, cb) = c.next(w), c.prev(w)
        rows.append((a, b, *ca, *cb))
        nexts[w], prevs[w] = a, b
    update(repr(rows).encode())
    for fn in (c.next_tape, c.prev_tape):
        update(repr(dat_to_json(materialize(fn, c.domain))).encode())
    return nexts, prevs


def _zoo_digests() -> tuple[str, dict]:
    """The aggregate digest and each counter's own, checking on the way
    that next and prev are inverse bijections of the whole domain."""
    h = hashlib.sha256()
    digests = {}
    zoo = _zoo()
    for label, counter in zoo:
        h.update(label.encode())
        own = hashlib.sha256()
        nexts, prevs = _feed((h, own), counter)
        assert all(prevs[v] == w for w, v in nexts.items()), label
        assert all(nexts[v] == w for w, v in prevs.items()), label
        digests[label] = own.hexdigest()[:16]
    assert len(zoo) == 483
    assert len(digests) == len(zoo)  # the labels are unique
    return h.hexdigest(), digests


def test_zoo_fingerprint():
    aggregate, digests = _zoo_digests()
    want = json.loads(ZOO_DIGESTS.read_text())
    changed = sorted(k for k in digests.keys() & want.keys() if digests[k] != want[k])
    appeared = sorted(digests.keys() - want.keys())
    vanished = sorted(want.keys() - digests.keys())
    assert not (changed or appeared or vanished), (
        f"changed: {changed}; appeared: {appeared}; vanished: {vanished}")
    assert aggregate == ZOO_SHA256


def _companion_grid():
    yield from ((2, n) for n in range(1, 49))
    for q in (3, 4, 5, 7, 8, 16):
        yield from ((q, n) for n in range(1, 21) if q ** n <= 2 ** 20)


def test_companion_ops_fingerprint():
    h = hashlib.sha256()
    for q, n in _companion_grid():
        p, ops = _companion_ops(q, n)
        h.update(repr((q, n, str(p), ops)).encode())
    assert h.hexdigest() == COMPANION_OPS_SHA256


if __name__ == "__main__":
    ZOO_DIGESTS.write_text(json.dumps(_zoo_digests()[1], indent=0) + "\n")
