"""quasigray benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload walk-pointer --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1            # every workload + controls
    python3 bench/run.py --controls --seed 1       # negative controls only

The last line of a workload run is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "next_steps_per_s": "steps/s",
    "prev_steps_per_s": "steps/s",
    "gen_words_per_s": "words/s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.tape_calls_per_step": "calls/step",
    "core.tape_us_per_step": "us/step",
    "core.offset_view_us_per_step": "us/step",
    "graycode.calls_per_step": "calls/step",
    "graycode.us_per_step": "us/step",
    "compose.glue_us_per_step": "us/step",
    "linear.row_op_calls_per_step": "calls/step",
    "linear.row_op_us_per_step": "us/step",
    "linear.field_mul_calls_per_step": "calls/step",
    "linear.field_mul_us_per_step": "us/step",
    "permdecomp.rfunction_calls_per_step": "calls/step",
    "permdecomp.rfunction_us_per_step": "us/step",
    "cli.gen_overhead_us_per_word": "us/word",
    "trace.overhead_pct": "%",
}


def _load_program():
    """Import quasigray from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quasigray", "__init__.py")):
        sys.exit(f"error: no quasigray sources under {SRC}; run from the repository root")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import quasigray
    if not os.path.abspath(quasigray.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported quasigray from {quasigray.__file__}, not {SRC}")


def machine() -> dict:
    import numpy
    return {"machine": platform.machine(), "processor": platform.processor(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _median_setup(name: str) -> tuple:
    """Median set-up time over SETUP_RUNS fresh processes, so every sample
    pays the cold cost a user pays; the samples go with the results."""
    samples = []
    for _ in range(SETUP_RUNS):
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-child", name],
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"set-up process failed: {p.stderr.strip()}")
        samples.append(json.loads(p.stdout.strip().splitlines()[-1]))
    return statistics.median(s["setup_s"] for s in samples), samples


def _sum(results, key: str) -> float:
    return sum(r.t.get(key, 0) for r in results)


def _rate(results, work: str, seconds: str) -> float:
    """Work per second over the round; 0 when every such operation failed
    before it was timed."""
    t = _sum(results, seconds)
    return _sum(results, work) / t if t else 0.0


def _round_figures(results) -> dict:
    return {
        "next_steps_per_s": _rate(results, "next_steps", "next_s"),
        "prev_steps_per_s": _rate(results, "prev_steps", "prev_s"),
        "gen_words_per_s": _rate(results, "gen_words", "gen_s"),
        "round_s": _sum(results, "program_s"),
    }


def _details(results) -> dict:
    """Figures beyond the end-to-end set: the per-kind times a workload
    has, every operation's time, and the wall-clock versions of the rates."""
    out = {}
    for key in ("audit_s", "materialize_s", "search_s"):
        if _sum(results, key):
            out[key] = _sum(results, key)
    if _sum(results, "dat_s"):
        out["dat_steps_per_s"] = _rate(results, "dat_steps", "dat_s")
    for kind, work in (("next", "next_steps"), ("prev", "prev_steps"), ("gen", "gen_words")):
        out[f"wall.{work}_per_s"] = _rate(results, work, f"{kind}_wall_s")
    out["wall.round_s"] = _sum(results, "program_wall_s")
    for r in results:
        out[f"op_s.{r.kind}.{r.label}"] = r.t.get("program_s", 0.0)
    return out


def _print_problems(rounds) -> None:
    seen = set()
    for rs in rounds:
        for r in rs:
            if r.problem and (r.kind, r.label, r.problem) not in seen:
                seen.add((r.kind, r.label, r.problem))
                print(f"FAILED {r.kind} {r.label}: {r.problem}")


def _rounds(W, wl, ctx, seconds: float) -> list:
    """Whole rounds until `seconds` have passed, at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(W.run_round(wl, ctx))
    return rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as W
    wl = W.WORKLOADS[name]
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            **machine()}
    if not trace:
        setup_s, setup_vals = _median_setup(name)
    ctx = W.Context(wl.labels, seed)
    if trace:
        metrics, extra = _traced(W, wl, ctx, seconds)
        rounds = extra.pop("rounds")
    else:
        rounds = _rounds(W, wl, ctx, seconds)
        figs = [_round_figures(rs) for rs in rounds]
        values = {k: statistics.median(f[k] for f in figs) for k in figs[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        dets = [_details(rs) for rs in rounds]
        extra = {"setup_samples": setup_vals, "per_round": figs,
                 "details": {k: statistics.median(d[k] for d in dets) for k in dets[0]}}
    attempted = sum(len(rs) for rs in rounds)
    failed = sum(1 for rs in rounds for r in rs if r.problem)
    _print_problems(rounds)
    print(f"# {name} seed={seed} rounds={len(rounds)} ops/round={len(rounds[0])} "
          f"attempted={attempted} failed={failed}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    for k, v in extra.get("details", {}).items():
        print(f"  detail {k} {v:.6g}")
    for lab, lm in extra.get("layer_by_label", {}).items():
        if lm:
            print(f"  by-op {lab}: " + " ".join(
                f"{k}={v:.4g}" for k, v in lm.items()))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    _write(f"{name}-seed{seed}-trace{int(trace)}.json", {**info, **result, **extra})
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _write(filename: str, payload: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, filename), "w") as fh:
        json.dump(payload, fh, default=str)


# ------------------------------------------------------------------ tracing

STEPPING = ("walk", "gen", "audit")


def _stepping_s(rounds) -> float:
    return sum(r.t.get("program_s", 0) for rs in rounds for r in rs if r.kind in STEPPING)


def _layer_metrics(tr, label=None) -> dict:
    """Per-step figures from spans inside Counter.next/prev."""
    t = tr.totals(label, in_step=True)

    def calls(*names):
        return sum(t.get(n, [0, 0, 0])[0] for n in names)

    def self_us(*names):
        return sum(t.get(n, [0, 0, 0])[2] for n in names) / 1000

    steps = calls("Counter.next", "Counter.prev")
    if not steps:
        return {}
    gray = ("graycode.gray_rank", "graycode.gray_unrank",
            "compose.gray_rank", "compose.gray_unrank")
    tape = ("Tape.read", "Tape.write")
    rows = ("AddRow.apply_tape", "Scale.apply_tape")
    return {
        "steps": steps,
        "core.tape_calls_per_step": calls(*tape) / steps,
        "core.tape_us_per_step": self_us(*tape) / steps,
        "core.offset_view_us_per_step": self_us("OffsetTape.read", "OffsetTape.write") / steps,
        "graycode.calls_per_step": calls(*gray) / steps,
        "graycode.us_per_step": self_us(*gray) / steps,
        "compose.glue_us_per_step": self_us("Counter.next", "Counter.prev") / steps,
        "linear.row_op_calls_per_step": calls(*rows) / steps,
        "linear.row_op_us_per_step": self_us(*rows) / steps,
        "linear.field_mul_calls_per_step": calls("Field.mul") / steps,
        "linear.field_mul_us_per_step": self_us("Field.mul") / steps,
        "permdecomp.rfunction_calls_per_step": calls("RFunction.apply_tape") / steps,
        "permdecomp.rfunction_us_per_step": self_us("RFunction.apply_tape") / steps,
    }


def _view_costs(W, ctx) -> dict:
    """Untraced step-time differences that isolate the private radix views:
    a general step against a crt_compose step over its rebuilt parts
    (_MixedTape), and a stitch_radix step against its inner counter
    (_BlockTape, only where blocks hold more than one bit)."""
    from quasigray import compose, graycode, linear, permdecomp
    out = {}
    n = 10 * W.CHUNK

    def per_step(c) -> float:
        res = W.OpResult("view", "view")
        for lo in range(0, n, W.CHUNK):
            w = c.start
            with ctx.clock.time(res, "step"):
                for _ in range(W.CHUNK):
                    w, _st = c.next(w)
        return res.t["step_s"] / n * 1e6

    for lab, c in ctx.counters.items():
        r = c.recipe
        if r.get("kind") != "general":
            continue
        b = r["binary"]
        ell = b["bits"] // (r["n"] - r["clock"])
        inner = linear.linear_counter(linear.Field(2), b["inner"], b["pointer"])
        block = compose.stitch_radix(ell, inner)
        parts = [graycode.gray_counter(r["m"], r["clock"]), block]
        if r["odd"]:
            parts.append(permdecomp.odd_counter(r["odd"]["radix"], r["odd"]["width"]))
        virtual = compose.crt_compose(parts)
        out[f"compose.mixed_view_us_per_step.{lab}"] = per_step(c) - per_step(virtual)
        if ell > 1:
            out[f"compose.block_view_us_per_step.{lab}"] = per_step(block) - per_step(inner)
    return out


def _traced(W, wl, ctx, seconds: float):
    from spans import Tracer
    base = W.run_round(wl, ctx)
    tr = Tracer(W.MODULES)
    t0 = time.perf_counter()
    tr.install()
    try:
        rounds = []
        # a traced round takes a few times an untraced one: start another
        # only if it should end within the run's seconds
        while not rounds or (time.perf_counter() - t0) * (1 + 1 / len(rounds)) < seconds:
            rounds.append(W.run_round(wl, ctx, tr))
    finally:
        tr.uninstall()
    layer = _layer_metrics(tr)
    untraced = _stepping_s([base])
    traced = _stepping_s(rounds) / len(rounds)
    layer["trace.overhead_pct"] = (traced / untraced - 1) * 100
    all_t = tr.totals()
    # gen time outside Counter.next, less the calibration pauses the
    # benchmark's stdout sink takes inside the run
    gen_words = sum(r.t.get("gen_words", 0) for rs in rounds for r in rs)
    gen_ns = -1e9 * sum(r.t.get("gen_pause_wall_s", 0) for rs in rounds for r in rs)
    for lab in tr.labels():
        if lab.startswith("gen:"):
            t = tr.totals(lab)
            gen_ns += t["cli.main"][1] - t.get("Counter.next", [0, 0, 0])[1]
    layer["cli.gen_overhead_us_per_word"] = gen_ns / 1000 / gen_words
    metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    extra = _trace_extras(W, ctx, tr, base, rounds, all_t)
    extra["layer_by_label"] = {lab: _layer_metrics(tr, lab) for lab in tr.labels()}
    extra["rounds"] = [base] + rounds
    return metrics, extra


def _trace_extras(W, ctx, tr, base, rounds, all_t) -> dict:
    """Layer figures that exist only on some workloads, printed and written
    with the trace but not part of the metric set every workload reports."""
    out = {}
    n_rounds = len(rounds)
    audit_steps = sum(r.t.get("audit_steps", 0) for r in base)
    if audit_steps:
        mc = all_t.get("measure_counter", [0, 0, 0])
        out["core.audit_walk_overhead_us_per_step"] = mc[2] / 1000 / n_rounds / audit_steps
        out["verify.audit_scan_s"] = all_t.get("audit", [0, 0, 0])[2] / 1e9 / n_rounds
    nodes = sum(r.t.get("tree_nodes", 0) for r in base)
    if nodes:
        out["core.materialize_nodes_per_s"] = nodes / sum(r.t.get("materialize_s", 0)
                                                          for r in base)
        out["core.dat_eval_us_per_step"] = (sum(r.t.get("dat_s", 0) for r in base)
                                            / sum(r.t.get("dat_steps", 0) for r in base) * 1e6)
    for r in base:
        if r.kind == "search":
            out[f"verify.search_s.{r.label}"] = r.t["search_s"]
    out.update(_view_costs(W, ctx))
    agg = [{"label": k[0], "name": k[1], "in_step": k[2], "calls": v[0],
            "total_ns": v[1], "self_ns": v[2]} for k, v in sorted(tr.agg.items())]
    return {"details": out, "aggregates": agg,
            "span_fields": ["id", "parent", "name", "label", "start_ns", "dur_ns"],
            "spans": tr.spans}


# ------------------------------------------------------------- other modes

def run_controls(seed: int) -> int:
    import workloads as W
    rows = W.run_controls(seed)
    attempted = failed = 0
    ok = True
    for wl, variant, r in rows:
        caught = r.problem is not None
        print(f"{wl:13s} {variant:24s} {r.kind:6s} {'FAILED' if caught else 'passed'}"
              f"{': ' + r.problem[:100] if caught else ''}")
        if variant == "unbroken":
            ok &= not caught
        else:
            attempted += 1
            failed += caught
            ok &= caught
    result = {"controls_attempted": attempted, "controls_failed": failed,
              "every_fault_caught": ok}
    _write(f"controls-seed{seed}.json", {**machine(), "seed": seed, **result})
    print(json.dumps(result))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload in its own fresh process, then the controls."""
    import workloads as W
    summary = {**machine(), "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in W.WORKLOADS:
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        summary["workloads"][name] = json.loads(lines[-1]) if p.returncode == 0 else {
            "exit": p.returncode}
        status |= p.returncode != 0
    p = subprocess.run([sys.executable, os.path.abspath(__file__), "--controls",
                        "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    sys.stdout.write(p.stdout)
    summary["controls"] = json.loads(p.stdout.strip().splitlines()[-1])
    status |= p.returncode != 0
    print(f"# {'all checks passed' if not status else 'SOME CHECKS FAILED'}")
    if out:
        with open(out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload and the controls")
    ap.add_argument("--controls", action="store_true", help="run the negative controls")
    ap.add_argument("--out", help="with --all: write the summary JSON here")
    ap.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _load_program()
    sys.path.insert(0, HERE)
    import workloads as W
    if args.setup_child:
        print(json.dumps(W.setup(W.WORKLOADS[args.setup_child].labels)))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.controls:
        return run_controls(args.seed)
    if args.workload not in W.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
