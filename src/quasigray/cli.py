"""Command line front end: generate words, step them, audit counters,
dump decompositions, and run the hierarchical tree search."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .compose import crt_compose, general_counter
from .core import BoundExceeded, dat_to_json, word_format, word_parse
from .graycode import gray_counter
from .linear import Field, Scale, _companion_ops, companion_counter, linear_counter
from .permdecomp import build_plan, odd_counter
from .verify import audit, search_hierarchical

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

DEFAULT_STEP_CAP = 2 ** 27
# words gen formats before one write to stdout
GEN_CHUNK = 1024


def _step_cap(args) -> int | None:
    if getattr(args, "unbounded", False):
        return None
    env = os.environ.get("QGC_MAX_STEPS")
    if env is None:
        return DEFAULT_STEP_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"QGC_MAX_STEPS must be a positive integer, got {env!r}")
    return cap


# kind -> (constructor, required settings, optional settings); the
# constructor takes the settings positionally, required ones first
KINDS = {
    "base": (gray_counter, ("m", "n"), ()),
    "linear": (lambda q, n, r=None: linear_counter(Field(q), n, r), ("q", "n"), ("r",)),
    "companion": (lambda q, n: companion_counter(Field(q), n), ("q", "n"), ()),
    "odd": (odd_counter, ("m", "n"), ()),
    "general": (general_counter, ("m", "n"), ()),
}
_CRT = (lambda components: crt_compose(_parse_components(components)),
        ("components",), ())
# error wording for a setting given as a flag or inside a --components entry
_AS_FLAG = "--kind {kind} {verb} --{name}"
_AS_ITEM = "component {kind!r} {verb} {name}="


def _checked(kind: str, entry, settings: dict, form: str) -> list:
    """The settings an entry of KINDS takes, in its constructor's order.
    Raises ValueError when a required setting is missing or an unknown
    one is given."""
    _ctor, required, optional = entry
    problems = (("requires", [s for s in required if s not in settings]),
                ("does not take", [s for s in settings if s not in required + optional]))
    for verb, names in problems:
        if names:
            raise ValueError(form.format(kind=kind, verb=verb, name=names[0]))
    return [settings[s] for s in required + optional if s in settings]


def _make(kind: str, entry, settings: dict, form: str):
    return entry[0](*_checked(kind, entry, settings, form))


def _flag_settings(args) -> dict:
    return {s: getattr(args, s) for s in ("m", "n", "q", "r", "components")
            if getattr(args, s, None) is not None}


def _parse_components(text: str) -> list:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty component list")
    out = []
    for part in parts:
        kind, _, rest = part.partition(":")
        kind = kind.strip()
        kw = {}
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, val = item.partition("=")
            if not sep:
                raise ValueError(f"malformed component setting {item!r}")
            try:
                kw[key.strip()] = int(val)
            except ValueError:
                raise ValueError(f"malformed component setting {item!r}") from None
        if kind not in KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
        out.append(_make(kind, KINDS[kind], kw, _AS_ITEM))
    return out


def _build_counter(args):
    entry = _CRT if args.kind == "crt" else KINDS[args.kind]
    return _make(args.kind, entry, _flag_settings(args), _AS_FLAG)


def _cmd_gen(args) -> int:
    counter = _build_counter(args)
    w = word_parse(args.start, counter.domain) if args.start else counter.start
    limit = args.limit if args.limit is not None else counter.claimed_length
    if limit < 0:
        raise ValueError("--limit must be nonnegative")
    cap = _step_cap(args)
    capped = cap is not None and limit > cap
    emit = cap if capped else limit
    step = counter.prev if args.dir == "prev" else counter.next
    write = sys.stdout.write
    for lo in range(0, emit, GEN_CHUNK):
        lines = []
        for _ in range(min(GEN_CHUNK, emit - lo)):
            lines.append(word_format(w, counter.domain))
            w, _stats = step(w)
        lines.append("")
        write("\n".join(lines))
    if capped:
        print(f"stopped after {emit} of {limit} words; raise QGC_MAX_STEPS "
              f"or pass --unbounded", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _cmd_step(args) -> int:
    counter = _build_counter(args)
    step = counter.prev if args.dir == "prev" else counter.next
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        w = word_parse(line, counter.domain)
        out, _stats = step(w)
        print(word_format(out, counter.domain))
    return EXIT_OK


def _cmd_audit(args) -> int:
    """stats and verify: print the audit JSON; a failed claim exits fail_code."""
    counter = _build_counter(args)
    cap = _step_cap(args)
    if cap is not None and counter.claimed_length > cap:
        raise BoundExceeded(
            f"orbit of length {counter.claimed_length} exceeds the step cap "
            f"{cap}; raise QGC_MAX_STEPS or pass --unbounded")
    report = audit(counter)
    payload = report.to_json()
    if counter.recipe:
        payload["recipe"] = counter.recipe
    print(json.dumps(payload, indent=2))
    return EXIT_OK if report.ok else args.fail_code


def _cmd_decompose(args) -> int:
    settings = _checked(args.kind, KINDS[args.kind], _flag_settings(args), _AS_FLAG)
    if args.kind == "linear":
        q, n = settings
        poly, ops = _companion_ops(q, n)
        payload = {"polynomial": str(poly), "ops": [
            {"op": "scale", "i": op.i + 1, "c": op.c} if isinstance(op, Scale)
            else {"op": "addrow", "i": op.i + 1, "j": op.j + 1, "c": op.c}
            for op in ops]}
        lines = [f"# companion of {poly} over F_{q}: {len(ops)} operations"]
        lines += [" ".join(str(v) for v in item.values()) for item in payload["ops"]]
    else:
        m, n = settings
        plan = build_plan(m, n)
        payload = {"m": m, "n": n, "count": plan.k, "per_index": plan.counts,
                   "steps": [{"sources": [s + 1 for s in f.sources],
                              "target": f.target + 1,
                              "table": _table_rows(f)} for f in plan.steps]}
        lines = [f"# {plan.k} two-functions realizing the full cycle on Z_{m}^{n}"]
        for item in payload["steps"]:
            srcs = ",".join(f"x{s}" for s in item["sources"])
            lines.append(f"add x{item['target']} <- f({srcs})")
            lines += ["  " + " ".join(str(v) for v in row) for row in item["table"]]
    print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
    return EXIT_OK


def _table_rows(f) -> list[list[int]]:
    """Full value table as rows over the first source (one row when r < 2)."""
    m = f.m
    if f.r == 0:
        return [[f.value(())]]
    if f.r == 1:
        return [[f.value((x,)) for x in range(m)]]
    return [[f.value((x, y)) for y in range(m)] for x in range(m)]


def _cmd_search(args) -> int:
    try:
        radices = tuple(int(t) for t in args.radices.split(","))
    except ValueError:
        raise ValueError("--radices needs three comma-separated integers, "
                         f"got {args.radices!r}") from None
    tree = search_hierarchical(radices)
    if args.emit == "json":
        print(json.dumps(dat_to_json(tree) if tree is not None else None, indent=2))
    elif tree is None:
        print("none")
    else:
        _print_tree(tree, 0)
    return EXIT_OK


def _print_tree(node, depth: int) -> None:
    pad = "  " * depth
    if hasattr(node, "coord"):
        print(f"{pad}x{node.coord + 1}?")
        for v, child in enumerate(node.children):
            print(f"{pad} ={v}:")
            _print_tree(child, depth + 1)
    else:
        body = ", ".join(f"x{c + 1}<-{v}" for c, v in node.assignments)
        print(f"{pad}{body}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later main call: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quasigray",
        description="Cyclic counters over mixed-radix words with few reads "
                    "and writes per step.")
    sub = parser.add_subparsers(dest="command", required=True)

    counter_flags = argparse.ArgumentParser(add_help=False)
    counter_flags.add_argument("--kind", required=True, choices=[*KINDS, "crt"])
    counter_flags.add_argument("--m", type=int, help="radix")
    counter_flags.add_argument("--n", type=int, help="word width")
    counter_flags.add_argument("--q", type=int, help="field order")
    counter_flags.add_argument("--r", type=int, help="pointer width override")
    counter_flags.add_argument(
        "--components",
        help="crt parts, e.g. 'base:m=2,n=1;base:m=3,n=1;companion:q=2,n=3'")
    counter_flags.add_argument("--unbounded", action="store_true",
                               help="ignore the step cap")

    p = sub.add_parser("gen", parents=[counter_flags],
                       help="print words along the counter's cycle")
    p.add_argument("--start", help="word to start from (default: counter start)")
    p.add_argument("--limit", type=int, help="how many words (default: full cycle)")
    p.add_argument("--dir", choices=["next", "prev"], default="next")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("step", parents=[counter_flags],
                       help="step words read from stdin, one per line")
    p.add_argument("--dir", choices=["next", "prev"], default="next")
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("stats", parents=[counter_flags],
                       help="walk the full orbit and print the audit JSON")
    p.set_defaults(func=_cmd_audit, fail_code=EXIT_OK)

    p = sub.add_parser("verify", parents=[counter_flags],
                       help="like stats, but exit 1 when a claim fails")
    p.set_defaults(func=_cmd_audit, fail_code=EXIT_VERIFY)

    p = sub.add_parser("decompose",
                       help="print the step decomposition behind a counter")
    p.add_argument("--kind", required=True, choices=["linear", "odd"])
    p.add_argument("--m", type=int, help="radix (odd decomposition)")
    p.add_argument("--n", type=int, help="width: matrix size or inner cycle width")
    p.add_argument("--q", type=int, help="field order (linear decomposition)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("search-hierarchical",
                       help="exhaustive search for a two-level full-cycle tree")
    p.add_argument("--radices", required=True, help="three radices, e.g. 2,2,3")
    p.add_argument("--emit", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BoundExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
