import hashlib
import io
import json
import sys

import pytest

from quasigray import cli, core
from quasigray.cli import main
from quasigray.core import Counter, Domain, StepStats, word_format, word_parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_base_frozen(capsys):
    code, out, err = run(capsys, "gen", "--kind", "base", "--m", "3",
                         "--n", "2", "--limit", "4")
    assert code == 0 and err == ""
    assert out.splitlines() == ["00", "10", "20", "21"]


def test_gen_full_cycle_default_limit(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "base", "--m", "2", "--n", "3")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 8
    assert len(set(lines)) == 8


def test_gen_prev_direction(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "base", "--m", "3", "--n", "2",
                       "--dir", "prev", "--limit", "3")
    assert code == 0
    assert out.splitlines() == ["00", "02", "22"]


def test_gen_start_word(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "base", "--m", "3", "--n", "2",
                       "--start", "21", "--limit", "2")
    assert code == 0
    assert out.splitlines() == ["21", "01"]


def test_gen_respects_step_cap(capsys, monkeypatch):
    monkeypatch.setenv("QGC_MAX_STEPS", "5")
    code, out, err = run(capsys, "gen", "--kind", "base", "--m", "2", "--n", "4")
    assert code == 3
    assert len(out.splitlines()) == 5
    assert "stopped after 5 of 16" in err


def test_gen_unbounded_overrides_cap(capsys, monkeypatch):
    monkeypatch.setenv("QGC_MAX_STEPS", "5")
    code, out, _ = run(capsys, "gen", "--kind", "base", "--m", "2", "--n", "4",
                       "--unbounded")
    assert code == 0
    assert len(out.splitlines()) == 16


# the gen runs of the tests above, and longer, comma-separated and empty ones
GEN_RUNS = [
    ["gen", "--kind", "base", "--m", "3", "--n", "2", "--limit", "4"],
    ["gen", "--kind", "base", "--m", "2", "--n", "3"],
    ["gen", "--kind", "base", "--m", "3", "--n", "2", "--dir", "prev", "--limit", "3"],
    ["gen", "--kind", "base", "--m", "3", "--n", "2", "--start", "21", "--limit", "2"],
    ["gen", "--kind", "crt", "--components", "base:m=2,n=1;base:m=3,n=1",
     "--limit", "7"],
    ["gen", "--kind", "companion", "--q", "2", "--n", "3"],
    ["gen", "--kind", "base", "--m", "12", "--n", "2", "--dir", "prev"],
    ["gen", "--kind", "odd", "--m", "3", "--n", "11", "--limit", "3000"],
    ["gen", "--kind", "base", "--m", "3", "--n", "2", "--limit", "0"],
    ["gen", "--kind", "base", "--m", "10", "--n", "3", "--limit", "1500"],
    ["gen", "--kind", "base", "--m", "11", "--n", "2"],
    ["gen", "--kind", "odd", "--m", "3", "--n", "11", "--dir", "prev", "--limit", "3000"],
    ["gen", "--kind", "general", "--m", "4", "--n", "8", "--limit", "3000"],
    ["gen", "--kind", "general", "--m", "4", "--n", "8", "--dir", "prev", "--limit", "3000"],
    ["gen", "--kind", "linear", "--q", "2", "--n", "10", "--dir", "prev"],
    ["gen", "--kind", "crt", "--components", "base:m=2,n=1;base:m=3,n=1",
     "--dir", "prev", "--limit", "7"],
]


@pytest.mark.parametrize("chunk", [1, 5, cli.GEN_CHUNK])
@pytest.mark.parametrize("argv", GEN_RUNS, ids=" ".join)
def test_gen_writes_the_bytes_of_one_line_per_word(capsys, monkeypatch, argv, chunk):
    monkeypatch.setattr(cli, "GEN_CHUNK", chunk)
    code, out, err = run(capsys, *argv)
    args = cli._build_parser().parse_args(argv)
    counter = cli._build_counter(args)
    w = word_parse(args.start, counter.domain) if args.start else counter.start
    step = counter.prev if args.dir == "prev" else counter.next
    want = []
    for _ in range(counter.claimed_length if args.limit is None else args.limit):
        want.append(word_format(w, counter.domain) + "\n")
        w, _ = step(w)
    assert code == 0 and err == "" and out == "".join(want)


# a cycle over Z_10^2 whose step also writes digits out of range: 10 and 255
# (bytes with no digit text), -1 (no byte at all) and 2.5 (no integer)
_BAD_CYCLE = [(0, 0), (10, 1), (1, 1), (-1, 2), (2, 2), (255, 3), (3, 3), (2.5, 4),
              (9, 9)]


@pytest.mark.parametrize("chunk", [1, 5, cli.GEN_CHUNK])
def test_gen_prints_out_of_range_digits_as_word_format(capsys, monkeypatch, chunk):
    after = dict(zip(_BAD_CYCLE, _BAD_CYCLE[1:] + _BAD_CYCLE[:1]))

    def broken(args):
        def step(tape):
            raise AssertionError("gen steps through the word path")
        step.word_step = lambda w: (after[tuple(w)], StepStats(1, 1))
        return Counter(Domain.uniform(10, 2), step, step, len(_BAD_CYCLE), (0, 0))

    monkeypatch.setattr(cli, "_build_counter", broken)
    monkeypatch.setattr(cli, "GEN_CHUNK", chunk)
    code, out, err = run(capsys, "gen", "--kind", "base", "--m", "10", "--n", "2",
                         "--limit", "20")
    want = (_BAD_CYCLE * 3)[:20]
    assert code == 0 and err == ""
    assert out == "".join(word_format(w, Domain.uniform(10, 2)) + "\n" for w in want)
    assert out.splitlines()[:9] == ["00", "101", "11", "-12", "22", "2553", "33", "24",
                                    "99"]


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "odd", "--m", "3", "--n", "11", "--limit", "3000"],
    ["gen", "--kind", "base", "--m", "10", "--n", "3", "--limit", "1500"],
], ids=" ".join)
def test_gen_formats_clean_words_with_no_separator_in_one_pass(capsys, monkeypatch,
                                                               argv):
    def per_word(word, domain):
        raise AssertionError("a chunk of in-range digits went through the template")

    monkeypatch.setattr(core, "word_format", per_word)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.count("\n") == int(argv[-1])


@pytest.mark.parametrize("direction", ["next", "prev"])
def test_gen_makes_one_walk_call_per_chunk(capsys, monkeypatch, direction):
    calls = []
    walk = Counter.walk

    def counted(self, word, count, d="next"):
        calls.append((count, d))
        return walk(self, word, count, d)

    def no_step(self, word):
        raise AssertionError("gen stepped a word with next or prev")

    monkeypatch.setattr(Counter, "walk", counted)
    monkeypatch.setattr(Counter, "next", no_step)
    monkeypatch.setattr(Counter, "prev", no_step)
    code, out, err = run(capsys, "gen", "--kind", "odd", "--m", "3", "--n", "11",
                         "--dir", direction, "--limit", "3000")
    assert code == 0 and err == "" and out.count("\n") == 3000
    assert calls == [(cli.GEN_CHUNK, direction)] * 2 + [(3000 - 2 * cli.GEN_CHUNK, direction)]


def test_gen_cap_message_follows_every_word(monkeypatch):
    monkeypatch.setenv("QGC_MAX_STEPS", "5")
    monkeypatch.setattr(cli, "GEN_CHUNK", 2)
    both = io.StringIO()
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    code = main(["gen", "--kind", "base", "--m", "2", "--n", "4"])
    lines = both.getvalue().splitlines()
    assert code == 3 and len(lines) == 6
    assert lines[:5] == ["0000", "1000", "1100", "0100", "0110"]
    assert lines[5].startswith("stopped after 5 of 16")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_gen_into_a_closed_pipe_exits_0(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["gen", "--kind", "base", "--m", "3", "--n", "4"]) == 0


def test_step_stdin_roundtrip(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("21\n\n00\n"))
    code, out, _ = run(capsys, "step", "--kind", "base", "--m", "3", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["01", "10"]
    monkeypatch.setattr("sys.stdin", io.StringIO("01\n10\n"))
    code, out, _ = run(capsys, "step", "--kind", "base", "--m", "3", "--n", "2",
                       "--dir", "prev")
    assert code == 0
    assert out.splitlines() == ["21", "00"]


def test_step_rejects_bad_word(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("99\n"))
    code, _, err = run(capsys, "step", "--kind", "base", "--m", "3", "--n", "2")
    assert code == 2 and "error:" in err


def test_verify_linear_counter(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "linear", "--q", "2",
                       "--n", "2", "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["observed_length"] == payload["claimed_length"] == 24
    assert payload["missing_count"] == 8
    assert payload["recipe"]["kind"] == "linear"


def test_verify_exit_code_on_broken_claim(capsys, monkeypatch):
    from quasigray import cli
    from quasigray.core import Counter
    from quasigray.graycode import gray_counter

    def broken(args):
        base = gray_counter(2, 3)
        return Counter(base.domain, base.next_tape, base.prev_tape, 9,
                       base.start, claimed_reads=3, claimed_writes=1)

    monkeypatch.setattr(cli, "_build_counter", broken)
    code, out, _ = run(capsys, "verify", "--kind", "base", "--m", "2", "--n", "3")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert any("observed length 8" in p for p in payload["problems"])


def test_verify_cap_refuses_long_orbits(capsys, monkeypatch):
    monkeypatch.setenv("QGC_MAX_STEPS", "1000")
    code, _, err = run(capsys, "verify", "--kind", "base", "--m", "2", "--n", "12")
    assert code == 3
    assert "QGC_MAX_STEPS" in err


@pytest.mark.parametrize("value", ["abc", "2.5", "0"])
@pytest.mark.parametrize("command", ["gen", "stats"])
def test_step_cap_rejects_values_that_are_not_positive_integers(capsys, monkeypatch,
                                                                 command, value):
    monkeypatch.setenv("QGC_MAX_STEPS", value)
    code, out, err = run(capsys, command, "--kind", "base", "--m", "2", "--n", "4")
    assert code == 2 and out == ""
    assert err == (f"error: QGC_MAX_STEPS must be a positive integer, "
                   f"got {value!r}\n")


def test_stats_odd_counter(capsys):
    code, out, _ = run(capsys, "stats", "--kind", "odd", "--m", "3", "--n", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["observed_length"] == 3 ** 11
    assert payload["missing_count"] == 0
    assert payload["max_writes"] <= 2


def test_gen_crt_components(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "crt", "--components",
                       "base:m=2,n=1;base:m=3,n=1", "--limit", "7")
    assert code == 0
    assert out.splitlines() == ["00", "11", "01", "12", "02", "10", "00"]


_CRT_BIG = ["--kind", "crt", "--components",
            "base:m=6,n=2;linear:q=2,n=5;odd:m=3,n=11"]

# sha256 of the output of `gen --limit 5000` from the start word, one counter
# of each kind, pinned from a version that ran every crt, general and stitch
# step on a Tape and formatted words with str.join
GEN_SHA256 = [
    (["--kind", "base", "--m", "3", "--n", "10"],
     "6a68dcb1ffacfe8c0f3c13872f3cc48f8302b0fb386d3224fc263a58f41660b4"),
    (["--kind", "linear", "--q", "2", "--n", "10"],
     "c81a2835a610769297ad60445e461b9b3bd9a1e002a28afa30b0fa8abc2786f8"),
    (["--kind", "odd", "--m", "3", "--n", "11"],
     "5d30ea500ce7487dfbfa9fca69a7e22ea00b4b7c32672b5d8d67eaef0fe7cc78"),
    (["--kind", "companion", "--q", "2", "--n", "13"],
     "eccf5505416adac1345b4e54a68197567ae809f64a24f0b2f4f9f1e2491b030d"),
    (["--kind", "general", "--m", "6", "--n", "12"],
     "07c97bc498996c366b713b01f037763e88324e73e44370a2a27cb9ee1af75571"),
    (["--kind", "general", "--m", "6", "--n", "12", "--dir", "prev"],
     "4e22491a04882c3b3d561301c71661c7abaec48688ebddde1d6f226dcf97eb00"),
    (["--kind", "general", "--m", "4", "--n", "8"],
     "12095fa2ef0031da6c2c656028bcf7e39b833a12370e56443636cdb77b697922"),
    (["--kind", "general", "--m", "4", "--n", "8", "--dir", "prev"],
     "16a5749c0a319a5d3493fb78ffe467bdd082c97bf817cbba459df63e2bef5b33"),
    (["--kind", "general", "--m", "12", "--n", "12"],
     "96324c4418960b472696f7788abcddd72690c8af957ea9f7b33400fca12f9a44"),
    (_CRT_BIG,
     "e5d23c64bbc031eafbe6191789f06f1e3f0810148290e962d6644ce4c949cc26"),
    (_CRT_BIG + ["--dir", "prev"],
     "bec8f3ffbe6212f42f3270b3e4714a6561dd57782317248560a160cc869d57b6"),
]


@pytest.mark.parametrize("argv,digest", GEN_SHA256,
                         ids=[" ".join(a[1:]) for a, _ in GEN_SHA256])
def test_gen_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "gen", *argv, "--limit", "5000")
    assert code == 0 and err == ""
    assert out.count("\n") == 5000
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decompose_linear_text(capsys):
    code, out, _ = run(capsys, "decompose", "--kind", "linear", "--q", "2",
                       "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# companion of z^3 + z + 1")
    assert lines[1:] == ["addrow 1 3 1", "addrow 3 1 1", "addrow 1 2 1",
                         "addrow 2 1 1", "addrow 1 2 1"]


def test_decompose_linear_json(capsys):
    code, out, _ = run(capsys, "decompose", "--kind", "linear", "--q", "3",
                       "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "z^2 + z + 2"
    assert len(payload["ops"]) == 3
    for op in payload["ops"]:
        assert op["op"] in ("scale", "addrow")
        assert op["i"] >= 1


def test_decompose_odd_text(capsys):
    code, out, _ = run(capsys, "decompose", "--kind", "odd", "--m", "3",
                       "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# 161 two-functions")
    assert sum(1 for ln in lines if ln.startswith("add ")) == 161
    assert any(ln.startswith("  ") for ln in lines)  # value tables follow


def test_decompose_odd_json(capsys):
    code, out, _ = run(capsys, "decompose", "--kind", "odd", "--m", "3",
                       "--n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 161
    assert payload["per_index"] == [1, 1, 1, 8, 54, 96]
    assert len(payload["steps"]) == 161
    for item in payload["steps"]:
        assert len(item["sources"]) <= 2


def test_search_json_found(capsys):
    code, out, _ = run(capsys, "search-hierarchical", "--radices", "2,2,3",
                       "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["query"] == 1
    assert len(payload["children"]) == 2


def test_search_json_none(capsys):
    code, out, _ = run(capsys, "search-hierarchical", "--radices", "2,2,2",
                       "--emit", "json")
    assert code == 0
    assert json.loads(out) is None


def test_search_text(capsys):
    code, out, _ = run(capsys, "search-hierarchical", "--radices", "2,2,3")
    assert code == 0
    assert out.startswith("x1?")
    code, out, _ = run(capsys, "search-hierarchical", "--radices", "2,3,3")
    assert code == 0
    assert out.strip() == "none"


def test_search_domain_limit_exits_3(capsys):
    code, out, err = run(capsys, "search-hierarchical", "--radices", "6,6,6")
    assert code == 3 and out == ""
    assert "domain size 216 exceeds 200" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "gen", "--kind", "base", "--m", "3")
    assert code == 2 and "requires --n" in err
    code, _, err = run(capsys, "gen", "--kind", "crt")
    assert code == 2 and "requires --components" in err
    code, _, err = run(capsys, "gen", "--kind", "odd", "--m", "4", "--n", "12")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_search_malformed_radices(capsys):
    code, out, err = run(capsys, "search-hierarchical", "--radices", "2,x")
    assert code == 2 and out == ""
    assert "--radices needs three comma-separated integers, got '2,x'" in err


def test_general_radix_below_two(capsys):
    code, out, err = run(capsys, "gen", "--kind", "general", "--m", "0",
                         "--n", "3")
    assert code == 2 and out == ""
    assert "radix must be at least 2" in err


def test_gen_negative_limit(capsys):
    code, _, err = run(capsys, "gen", "--kind", "base", "--m", "2", "--n", "2",
                       "--limit", "-1")
    assert code == 2 and "nonnegative" in err


def test_malformed_components(capsys):
    code, _, err = run(capsys, "gen", "--kind", "crt", "--components",
                       "base:m=2;n=1", "--limit", "1")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv,message", [
    (["gen", "--kind", "base", "--m", "3", "--n", "2", "--r", "5"],
     "--kind base does not take --r"),
    (["gen", "--kind", "crt", "--components", "base:m=2,n=1;base:m=3,n=1",
      "--m", "4"], "--kind crt does not take --m"),
    (["gen", "--kind", "crt", "--components",
      "base:m=2,n=1,x=9;odd:m=3,n=11,r=4"], "component 'base' does not take x="),
    (["gen", "--kind", "crt", "--components", "base:m=2,n=1;odd:m=3,n=11,r=4",
      "--limit", "2"], "component 'odd' does not take r="),
    (["gen", "--kind", "crt", "--components", ";;"], "empty component list"),
    (["gen", "--kind", "crt", "--components", "base:m"], "malformed component setting 'm'"),
    (["gen", "--kind", "crt", "--components", "base:m=x"],
     "malformed component setting 'm=x'"),
    (["gen", "--kind", "crt", "--components", "foo:m=2"], "unknown component kind 'foo'"),
])
def test_stray_settings_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_components_skip_an_empty_setting(capsys):
    code, out, err = run(capsys, "gen", "--kind", "crt", "--components",
                         "base:m=2,,n=1;base:m=3,n=1", "--limit", "2")
    assert (code, out, err) == (0, "00\n11\n", "")


def test_crt_clock_that_is_no_base_counter_exits_2(capsys):
    code, out, err = run(capsys, "gen", "--kind", "crt", "--components",
                         "linear:q=2,n=3;base:m=3,n=1")
    assert code == 2 and out == ""
    assert "the clock must be a base Gray counter of length m^n, got kind 'linear'" in err


def test_companion_kind_and_component(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "companion", "--q", "2", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["001", "010", "100", "011", "110", "111", "101"]
    code, out, _ = run(capsys, "verify", "--kind", "crt", "--components",
                       "base:m=2,n=1;companion:q=2,n=3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["observed_length"] == 14
    assert payload["recipe"]["components"][1]["kind"] == "companion"


def test_stats_and_verify_print_the_same_json(capsys, monkeypatch):
    flags = ("--kind", "linear", "--q", "3", "--n", "2")
    assert run(capsys, "stats", *flags) == run(capsys, "verify", *flags)

    from quasigray import cli
    from quasigray.core import Counter
    from quasigray.graycode import gray_counter

    def broken(args):
        base = gray_counter(2, 3)
        return Counter(base.domain, base.next_tape, base.prev_tape, 9, base.start)

    monkeypatch.setattr(cli, "_build_counter", broken)
    code_stats, out_stats, _ = run(capsys, "stats", "--kind", "base", "--m", "2",
                                   "--n", "3")
    code_verify, out_verify, _ = run(capsys, "verify", "--kind", "base", "--m", "2",
                                     "--n", "3")
    assert (code_stats, code_verify) == (0, 1)
    assert out_stats == out_verify and not json.loads(out_stats)["ok"]


def test_decompose_linear_text_with_scales(capsys):
    code, out, _ = run(capsys, "decompose", "--kind", "linear", "--q", "5",
                       "--n", "2")
    assert code == 0
    assert out.splitlines() == ["# companion of z^2 + z + 2 over F_5: 4 operations",
                                "addrow 1 2 4", "scale 2 3", "addrow 2 1 3",
                                "scale 1 4"]
