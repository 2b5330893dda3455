"""The benchmark's workloads: which counters each builds, the operations
one round runs on them, and the checks each operation's output must pass.

Every operation times only its calls into quasigray and checks the output
afterwards against the reference models in reference.py. An operation
fails when it raises or when any check fails; its result then carries the
first problem found.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import time
from dataclasses import dataclass, field

import reference as ref
from quasigray import cli, compose, core, graycode, linear, permdecomp
from quasigray import verify as qverify

MODULES = {"core": core, "graycode": graycode, "compose": compose,
           "linear": linear, "permdecomp": permdecomp, "verify": qverify,
           "cli": cli}

WALK_STEPS = 20_000      # walk-and-return length on counters too big to close
GEN_WORDS = 20_000       # words per gen run on the walk workloads
TREE_SAMPLE = 10_000     # seeded words on which trees meet Counter.next/prev
SEARCH_NONE = [(3, 4, 2), (3, 2, 4), (2, 6, 6)]
SEARCH_FOUND = [(3, 4, 5), (2, 5, 6), (3, 4, 3)]
SEARCH_COUNT = (2, 2, 3)


def _f(q: int):
    return linear.Field(q)


# label -> constructor, through public constructors only
COUNTERS = {
    "odd(3,13)": lambda: permdecomp.odd_counter(3, 13),
    "odd(5,10)": lambda: permdecomp.odd_counter(5, 10),
    "odd(3,11)": lambda: permdecomp.odd_counter(3, 11),
    "linear(F2,14)": lambda: linear.linear_counter(_f(2), 14),
    "linear(F2,12)": lambda: linear.linear_counter(_f(2), 12),
    "linear(F2,10)": lambda: linear.linear_counter(_f(2), 10),
    "linear(F4,5)": lambda: linear.linear_counter(_f(4), 5),
    "base(3,10)": lambda: graycode.gray_counter(3, 10),
    "base(3,8)": lambda: graycode.gray_counter(3, 8),
    "general(6,12)": lambda: compose.general_counter(6, 12),
    "general(12,12)": lambda: compose.general_counter(12, 12),
    "general(10,14)": lambda: compose.general_counter(10, 14),
    "general(4,8)": lambda: compose.general_counter(4, 8),
    "crt(84)": lambda: compose.crt_compose([
        graycode.gray_counter(2, 2), graycode.gray_counter(3, 1),
        linear.companion_counter(_f(2), 3)]),
    "crt(big)": lambda: compose.crt_compose([
        graycode.gray_counter(6, 2), linear.linear_counter(_f(2), 5),
        permdecomp.odd_counter(3, 11)]),
}


CHUNK = 2_000            # steps timed between two calibrations
CAL_ITERS = 300
CAL_SLICES = 5
CAL_REF_S = 0.0008      # one calibration slice on the reference machine, see README
CAL_REUSE_S = 0.005     # a calibration this recent still describes the machine


class _Cells:
    __slots__ = ("cells", "seen")

    def __init__(self):
        self.cells = [0] * 16
        self.seen = set(range(0, 16, 2))

    def read(self, i):
        if i in self.seen:
            return self.cells[i]
        return -self.cells[i]

    def write(self, i, v):
        self.cells[i] = v


def calibration_s() -> float:
    """Median time of CAL_SLICES slices of a fixed interpreter loop.

    Like a counter step and a gen line, the loop makes method calls, list
    and set lookups and small-integer arithmetic, copies a word between a
    list and a tuple, and formats it as a string. Every object it makes is
    freed at once, so its time does not depend on the program's heap.
    """
    times = []
    for _ in range(CAL_SLICES):
        c = _Cells()
        word = (1, 2, 0, 1, 2, 0, 1, 2, 0, 1)
        t0 = time.perf_counter()
        for i in range(CAL_ITERS):
            cells = list(word)
            j = i % 10
            c.write(j, c.read(j) + 1)
            cells[j] = (cells[j] + 1) % 3
            word = tuple(cells)
            "".join(map(str, word))
        times.append(time.perf_counter() - t0)
    return sorted(times)[CAL_SLICES // 2]


class Stopwatch:
    """Times program calls in reference seconds.

    Other tenants of a shared machine slow it by up to a factor of two for
    seconds at a time. Each timed segment is therefore scaled by CAL_REF_S
    over the mean calibration time measured right before and right after
    it. Wall-clock seconds are kept beside the scaled ones.
    """

    def __init__(self):
        self._cal = 0.0
        self._cal_at = -math.inf
        self._c0 = self._t0 = 0.0

    def start(self) -> None:
        if time.perf_counter() - self._cal_at > CAL_REUSE_S:
            self._cal = calibration_s()
        self._c0 = self._cal
        self._t0 = time.perf_counter()

    def stop(self, res: "OpResult", key: str) -> None:
        wall = time.perf_counter() - self._t0
        self._cal = calibration_s()
        self._cal_at = time.perf_counter()
        scaled = wall * CAL_REF_S / ((self._c0 + self._cal) / 2)
        for k in (key, "program"):
            res.add(f"{k}_s", scaled)
            res.add(f"{k}_wall_s", wall)

    @contextlib.contextmanager
    def time(self, res: "OpResult", key: str):
        self.start()
        yield
        self.stop(res, key)


class _GenSink(io.StringIO):
    """stdout for an in-process gen run. Every CHUNK lines it closes the
    timed segment and opens the next, so a long run is scaled in segments
    like a walk; the calibration in between is not timed."""

    def __init__(self, clock: Stopwatch, res: "OpResult"):
        super().__init__()
        self.clock, self.res, self.lines = clock, res, 0

    def write(self, text: str) -> int:
        n = super().write(text)
        if text == "\n":
            self.lines += 1
            if self.lines % CHUNK == 0:
                t0 = time.perf_counter()
                self.clock.stop(self.res, "gen")
                self.clock.start()
                self.res.add("gen_pause_wall_s", time.perf_counter() - t0)
        return n


@dataclass
class OpResult:
    label: str
    kind: str
    problem: str | None = None
    t: dict = field(default_factory=dict)  # timings and work counts

    def add(self, key: str, value) -> None:
        self.t[key] = self.t.get(key, 0) + value


def general_parts(counter) -> dict | None:
    """Recipes of a general counter's binary and odd parts, rebuilt with the
    public constructors from the sizes its recipe names."""
    r = counter.recipe
    if r.get("kind") != "general":
        return None
    b = r["binary"]
    parts = {"binary": linear.linear_counter(_f(2), b["inner"], b["pointer"]).recipe}
    if r["odd"]:
        parts["odd"] = permdecomp.odd_counter(r["odd"]["radix"], r["odd"]["width"]).recipe
    return parts


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + key)))


def _claims(counter, stats, where: str) -> str | None:
    if counter.claimed_reads is None or counter.claimed_writes is None:
        return f"{where}: counter makes no read/write claim"
    if stats.reads > counter.claimed_reads:
        return f"{where}: step read {stats.reads} cells, claimed {counter.claimed_reads}"
    if stats.writes > counter.claimed_writes:
        return f"{where}: step wrote {stats.writes} cells, claimed {counter.claimed_writes}"
    return None


def _closed_form(counter) -> int:
    want = ref.closed_form_length(counter.recipe)
    if want != counter.claimed_length:
        raise ref.Mismatch(f"claimed length {counter.claimed_length}, "
                           f"recipe gives {want}")
    return want


def _check_forward(start, words, model, full: bool) -> None:
    """Feed a forward orbit segment to the reference model; for a whole
    orbit also require it to close exactly at its end."""
    prev = start
    for w in words:
        model.step(prev, w)
        prev = w
    if full:
        if words[-1] != start:
            raise ref.Mismatch(f"orbit did not close after {len(words)} steps")
        if len(set(words)) != len(words):
            raise ref.Mismatch("orbit revisits a word")


def _check_backward(start, fwd, back) -> None:
    # back[k] = prev(fwd[L-1-k]) must be fwd[L-2-k], and finally start
    want = fwd[-2::-1] + [start]
    for k, (got, exp) in enumerate(zip(back, want)):
        if got != exp:
            raise ref.Mismatch(f"prev(next(w)) != w, {k} steps back: got {got}, "
                               f"expected {exp}")


class Context:
    """Counters and seeded inputs of one workload run."""

    def __init__(self, labels, seed: int):
        self.seed = seed
        self.clock = Stopwatch()
        self.counters = {lab: COUNTERS[lab]() for lab in labels}
        self.parts = {lab: general_parts(c) for lab, c in self.counters.items()}

    def model(self, label: str, counter=None):
        """A fresh reference model for the counter under this label."""
        c = counter or self.counters[label]
        return ref.model_for(c.recipe, c.start, self.parts[label])

    def start(self, label: str, purpose: str) -> tuple:
        return ref.orbit_word(self.counters[label].recipe, _rng(self.seed, label, purpose))


# ---------------------------------------------------------------- operations

def walk_op(ctx: Context, label: str, full: bool, counter=None) -> OpResult:
    """Walk `next` for a stretch (the whole orbit when `full`) from a seeded
    start, then `prev` back to the start."""
    c = counter or ctx.counters[label]
    res = OpResult(label, "walk")
    try:
        steps = ref.closed_form_length(c.recipe) if full else WALK_STEPS
        start = ctx.start(label, "walk")
        nxt, prv = c.next, c.prev
        fwd, fstats, back, bstats = [], [], [], []
        w = start
        for lo in range(0, steps, CHUNK):
            with ctx.clock.time(res, "next"):
                for _ in range(min(CHUNK, steps - lo)):
                    w, st = nxt(w)
                    fwd.append(w)
                    fstats.append(st)
        for lo in range(0, steps, CHUNK):
            with ctx.clock.time(res, "prev"):
                for _ in range(min(CHUNK, steps - lo)):
                    w, st = prv(w)
                    back.append(w)
                    bstats.append(st)
        res.add("next_steps", steps)
        res.add("prev_steps", steps)
        _closed_form(c)
        for st in fstats + bstats:
            bad = _claims(c, st, "walk")
            if bad:
                raise ref.Mismatch(bad)
        _check_forward(start, fwd, ctx.model(label, c), full)
        _check_backward(start, fwd, back)
    except Exception as e:  # noqa: BLE001 - any raise fails the operation
        res.problem = f"{type(e).__name__}: {e}"
    return res


def gen_op(ctx: Context, label: str, argv: list, words: int | None) -> OpResult:
    """`quasigray gen` in-process with stdout captured, from a seeded start;
    words=None means the full cycle."""
    c = ctx.counters[label]
    res = OpResult(label, "gen")
    try:
        start = ctx.start(label, "gen")
        full = words is None
        count = ref.closed_form_length(c.recipe) if full else words
        text = ref.format_word(start, max(c.domain.radices))
        args = list(argv) + ["--start", text] + ([] if full else ["--limit", str(words)])
        buf = _GenSink(ctx.clock, res)
        with ctx.clock.time(res, "gen"), contextlib.redirect_stdout(buf):
            rc = cli.main(args)
        res.add("gen_words", count)
        if rc != 0:
            raise ref.Mismatch(f"gen exited {rc}")
        out = [ref.parse_word(line) for line in buf.getvalue().splitlines()]
        if len(out) != count:
            raise ref.Mismatch(f"gen printed {len(out)} words, expected {count}")
        if out[0] != start:
            raise ref.Mismatch(f"gen began at {out[0]}, not at --start {start}")
        _check_forward(start, out[1:] + ([start] if full else []), ctx.model(label),
                       full)
    except Exception as e:  # noqa: BLE001
        res.problem = f"{type(e).__name__}: {e}"
    return res


def audit_op(ctx: Context, label: str, counter=None) -> OpResult:
    """Full-orbit audit, checked against the closed-form length, the claims
    and the reference missing set."""
    c = counter or ctx.counters[label]
    res = OpResult(label, "audit")
    try:
        size = math.prod(c.domain.radices)
        want = ref.closed_form_length(c.recipe)
        missing = size - want
        with ctx.clock.time(res, "audit"):
            rep = qverify.audit(c, sample_cap=missing + 1)
        res.add("audit_steps", rep.observed_length)
        if not rep.ok:
            raise ref.Mismatch(f"audit problems: {rep.problems}")
        _closed_form(c)
        if not (rep.closed and rep.distinct) or rep.observed_length != want:
            raise ref.Mismatch(f"audit observed {rep.observed_length} steps, "
                               f"closed={rep.closed}, expected {want}")
        if rep.max_reads > c.claimed_reads or rep.max_writes > c.claimed_writes:
            raise ref.Mismatch(f"audit saw {rep.max_reads}/{rep.max_writes} "
                               f"reads/writes, claimed {c.claimed_reads}/{c.claimed_writes}")
        sample = [tuple(w) for w in rep.missing_sample]
        if rep.missing_count != missing or len(set(sample)) != missing:
            raise ref.Mismatch(f"audit missed {rep.missing_count} words "
                               f"({len(set(sample))} listed), expected {missing}")
        on = [w for w in sample if ref.on_orbit(c.recipe, w)]
        if on:
            raise ref.Mismatch(f"audit lists {on[0]} as missing, but it is on the orbit")
    except Exception as e:  # noqa: BLE001
        res.problem = f"{type(e).__name__}: {e}"
    return res


def _tree_shape(tree) -> tuple:
    """(nodes, deepest query path, largest leaf) by walking the tree."""
    nodes = depth = leaf = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        if hasattr(node, "children"):
            stack.extend((ch, d + 1) for ch in node.children)
        else:
            depth = max(depth, d)
            leaf = max(leaf, len(node.assignments))
    return nodes, depth, leaf


def trees_op(ctx: Context, label: str, counter=None) -> OpResult:
    """Materialize the next and prev trees, compare them with Counter.next
    and Counter.prev on a seeded word sample, and walk the whole orbit with
    dat_eval forward on the next tree and back on the prev tree."""
    c = counter or ctx.counters[label]
    res = OpResult(label, "trees")
    try:
        rng = _rng(ctx.seed, label, "sample")
        sample = [tuple(rng.randrange(r) for r in c.domain.radices)
                  for _ in range(TREE_SAMPLE)]
        steps = ref.closed_form_length(c.recipe)
        start = ctx.start(label, "orbit")
        clock = ctx.clock
        with clock.time(res, "materialize"):
            tn = core.materialize(c.next_tape, c.domain)
            tp = core.materialize(c.prev_tape, c.domain)
        images, backs, tree_images, tree_backs = [], [], [], []
        for lo in range(0, len(sample), CHUNK):
            with clock.time(res, "next"):
                images.extend(c.next(w) for w in sample[lo:lo + CHUNK])
        for lo in range(0, len(sample), CHUNK):
            with clock.time(res, "prev"):
                backs.extend(c.prev(w) for w, _st in images[lo:lo + CHUNK])
        dat = core.dat_eval
        for lo in range(0, len(sample), CHUNK):
            with clock.time(res, "dat"):
                tree_images.extend(dat(tn, w) for w in sample[lo:lo + CHUNK])
                tree_backs.extend(dat(tp, w) for w, _st in images[lo:lo + CHUNK])
        fwd, fstats, back, bstats = [], [], [], []
        w = start
        for tree, words, stats in ((tn, fwd, fstats), (tp, back, bstats)):
            for lo in range(0, steps, CHUNK):
                with clock.time(res, "dat"):
                    for _ in range(min(CHUNK, steps - lo)):
                        w, st = dat(tree, w)
                        words.append(w)
                        stats.append(st)
        res.add("next_steps", len(sample))
        res.add("prev_steps", len(sample))
        res.add("dat_steps", 2 * len(sample) + 2 * steps)
        _closed_form(c)
        for tree in (tn, tp):
            nodes, depth, leaf = _tree_shape(tree)
            res.add("tree_nodes", nodes)
            if depth > c.claimed_reads or leaf > c.claimed_writes:
                raise ref.Mismatch(f"tree reads {depth} / writes {leaf}, claimed "
                                   f"{c.claimed_reads} / {c.claimed_writes}")
        for w, (n, st), tn_out, (b, bst), tp_out in zip(sample, images, tree_images,
                                                        backs, tree_backs):
            if b != w:
                raise ref.Mismatch(f"prev(next({w})) = {b}")
            if tn_out != (n, st) or tp_out != (b, bst):
                raise ref.Mismatch(f"tree step on {w} gives {tn_out}/{tp_out}, "
                                   f"counter gives {(n, st)}/{(b, bst)}")
            for s in (st, bst):
                bad = _claims(c, s, "sample")
                if bad:
                    raise ref.Mismatch(bad)
        for st in fstats + bstats:
            bad = _claims(c, st, "tree orbit")
            if bad:
                raise ref.Mismatch(bad)
        _check_forward(start, fwd, ctx.model(label, c), True)
        _check_backward(start, fwd, back)
    except Exception as e:  # noqa: BLE001
        res.problem = f"{type(e).__name__}: {e}"
    return res


def search_op(ctx: Context, radices: tuple, count: bool = False) -> OpResult:
    """search_hierarchical on one triple: a tree exactly when gcd(m2, m3) = 1,
    every tree found walks the whole domain, and the solution count matches
    plain enumeration."""
    label = "-".join(map(str, radices)) + ("-count" if count else "")
    res = OpResult(label, "search")
    try:
        with ctx.clock.time(res, "search"):
            out = qverify.search_hierarchical(radices, count_solutions=count)
        tree, n = out if count else (out, None)
        expect = math.gcd(radices[1], radices[2]) == 1
        if (tree is not None) != expect:
            raise ref.Mismatch(f"search returned {'a tree' if tree else 'none'}, "
                               f"expected {'a tree' if expect else 'none'}")
        if tree is not None:
            bad = ref.tree_walk_check(tree, radices)
            if bad:
                raise ref.Mismatch(bad)
        if count and n != _naive_count(radices):
            raise ref.Mismatch(f"search counted {n} trees, enumeration finds "
                               f"{_naive_count(radices)}")
    except Exception as e:  # noqa: BLE001
        res.problem = f"{type(e).__name__}: {e}"
    return res


_NAIVE: dict = {}


def _naive_count(radices: tuple) -> int:
    if radices not in _NAIVE:
        _NAIVE[radices] = ref.count_two_level_trees(radices)
    return _NAIVE[radices]


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    labels: tuple           # counters built at set-up
    ops: object             # Context -> [(span label, thunk returning OpResult)]


def run_round(wl: Workload, ctx: Context, tracer=None) -> list:
    """One round: every operation of the workload once, in order. With a
    tracer, spans are labelled with the operation that caused them."""
    out = []
    for label, op in wl.ops(ctx):
        if tracer is not None:
            tracer.label = label
        out.append(op())
    if tracer is not None:
        tracer.label = "-"
    return out


def _walks(ctx, labels, full):
    return [(f"walk:{lab}", functools.partial(walk_op, ctx, lab, full)) for lab in labels]


def _walk_pointer(ctx: Context) -> list:
    return _walks(ctx, ("odd(3,13)", "odd(5,10)", "linear(F2,14)", "linear(F4,5)",
                        "base(3,10)"), False) + [
        ("gen:odd(3,13)", functools.partial(
            gen_op, ctx, "odd(3,13)", ["gen", "--kind", "odd", "--m", "3", "--n", "13"],
            GEN_WORDS))]


def _walk_crt(ctx: Context) -> list:
    return (_walks(ctx, ("general(6,12)", "general(12,12)", "general(10,14)"), False)
            + _walks(ctx, ("general(4,8)", "crt(84)"), True)
            + _walks(ctx, ("crt(big)",), False)
            + [("gen:general(6,12)", functools.partial(
                gen_op, ctx, "general(6,12)",
                ["gen", "--kind", "general", "--m", "6", "--n", "12"], GEN_WORDS))])


def _verify(ctx: Context) -> list:
    ops = [(f"audit:{lab}", functools.partial(audit_op, ctx, lab)) for lab in
           ("odd(3,11)", "linear(F2,12)", "general(4,8)", "base(3,10)")]
    ops += [(f"trees:{lab}", functools.partial(trees_op, ctx, lab)) for lab in
            ("odd(3,11)", "linear(F2,10)", "general(4,8)", "base(3,8)")]
    ops.append(("gen:base(3,10)", functools.partial(
        gen_op, ctx, "base(3,10)", ["gen", "--kind", "base", "--m", "3", "--n", "10"],
        None)))
    ops += [(f"search:{'-'.join(map(str, t))}", functools.partial(search_op, ctx, t))
            for t in SEARCH_NONE + SEARCH_FOUND]
    ops.append(("search:2-2-3-count", functools.partial(search_op, ctx, SEARCH_COUNT, True)))
    return ops


WORKLOADS = {
    "walk-pointer": Workload(("odd(3,13)", "odd(5,10)", "linear(F2,14)", "linear(F4,5)",
                              "base(3,10)"), _walk_pointer),
    "walk-crt": Workload(("general(6,12)", "general(12,12)", "general(10,14)",
                          "general(4,8)", "crt(84)", "crt(big)"), _walk_crt),
    "verify": Workload(("odd(3,11)", "linear(F2,12)", "general(4,8)", "base(3,10)",
                        "linear(F2,10)", "base(3,8)"), _verify),
}


def setup(labels) -> dict:
    """Time to build every counter and take its first next and prev step,
    which is where anything built lazily gets built."""
    res = OpResult("setup", "setup")
    with Stopwatch().time(res, "setup"):
        for lab in labels:
            c = COUNTERS[lab]()
            w, _ = c.next(c.start)
            c.prev(w)
    return res.t


# ---------------------------------------------------------- negative controls

def faulty_counters(base) -> dict:
    """Three broken variants of a counter built with the public Counter type.

    `base` must reach its claimed read count on some steps of every walk,
    and its first r cells must be a Gray pointer or clock, which the
    revisiting variant uses as its trigger.
    """
    Counter = core.Counter
    reads = Counter(base.domain, base.next_tape, base.prev_tape, base.claimed_length,
                    base.start, claimed_reads=base.claimed_reads - 1,
                    claimed_writes=base.claimed_writes, recipe=base.recipe)
    length = Counter(base.domain, base.next_tape, base.prev_tape,
                     base.claimed_length + 1, base.start,
                     claimed_reads=base.claimed_reads,
                     claimed_writes=base.claimed_writes, recipe=base.recipe)

    def revisit_next(tape):
        # on words whose first two cells read 0, 1 step back instead of on:
        # the successor is then the word visited just before
        if tape.read(0) == 0 and tape.read(1) == 1:
            base.prev_tape(tape)
        else:
            base.next_tape(tape)

    revisit = Counter(base.domain, revisit_next, base.prev_tape, base.claimed_length,
                      base.start, claimed_reads=base.claimed_reads,
                      claimed_writes=base.claimed_writes, recipe=base.recipe)
    return {"claims-one-read-too-few": reads, "length-off-by-one": length,
            "revisits-a-word": revisit}


# workload -> (counter label, the workload's operations that take a counter)
CONTROL_OPS = {
    "walk-pointer": ("linear(F2,10)", [lambda ctx, lab, c: walk_op(ctx, lab, False, c)]),
    "walk-crt": ("crt(84)", [lambda ctx, lab, c: walk_op(ctx, lab, True, c)]),
    "verify": ("linear(F2,10)", [lambda ctx, lab, c: audit_op(ctx, lab, c),
                                 lambda ctx, lab, c: trees_op(ctx, lab, c)]),
}


def run_controls(seed: int) -> list:
    """(workload, variant, OpResult) for the unbroken counter and each
    broken variant, through each workload's counter operations."""
    out = []
    for wl, (lab, ops) in CONTROL_OPS.items():
        ctx = Context([lab], seed)
        base = ctx.counters[lab]
        variants = {"unbroken": base, **faulty_counters(base)}
        for vname, c in variants.items():
            for op in ops:
                out.append((wl, vname, op(ctx, lab, c)))
    return out
