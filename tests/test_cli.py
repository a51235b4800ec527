import ast
import csv
import hashlib
import json
import operator
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from avgsat import analytic, cli
from avgsat._cli_rare import _build_parser
from avgsat.commands import moments, sampling
from oracle import sentence_at, walk_against_eval


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows, out.read_bytes()


def test_expected_min(tmp_path):
    code, rows, _ = run(tmp_path, "expected-min", "--n", "1")
    assert code == 0
    assert rows[0]["closed_num"] == "7" and rows[0]["closed_den"] == "4"
    assert rows[0]["brute_num"] == "7"
    assert rows[0]["status"] == "pass"


def test_expected_min_upto(tmp_path):
    code, rows, _ = run(tmp_path, "expected-min", "--n", "2", "--upto")
    assert [r["n"] for r in rows] == ["0", "1", "2"]
    assert rows[0]["closed_num"] == "3" and rows[0]["closed_den"] == "2"


def test_sat_oclass(tmp_path):
    code, rows, _ = run(tmp_path, "sat-oclass", "--n", "1")
    assert code == 0
    by_check = {r["check"]: r for r in rows}
    assert by_check["sat"]["lhs_num"] == "7" and by_check["sat"]["lhs_den"] == "8"
    assert by_check["co"]["lhs_num"] == "7" and by_check["co"]["pass"] == "pass"


def test_tab_oclass_audit_semantics(tmp_path):
    code, rows, _ = run(tmp_path, "tab-oclass", "--model", "shannon",
                        "--n-list", "1,3")
    assert code == 1
    assert {r["n"]: r["pass"] for r in rows} == {"1": "fail", "3": "pass"}
    code, rows, _ = run(tmp_path, "--audit", "tab-oclass", "--model", "shannon",
                        "--n-list", "1,3")
    assert code == 0
    assert {r["n"]: r["pass"] for r in rows} == {"1": "expected_fail", "3": "pass"}
    one = next(r for r in rows if r["n"] == "1")
    assert (one["lhs_num"], one["lhs_den"]) == ("5", "4")


def test_tab_oclass_enumerated(tmp_path):
    code, rows, _ = run(tmp_path, "tab-oclass", "--model", "enumerated",
                        "--n", "2", "--max-tokens", "6")
    assert code == 0
    assert rows[0]["pass"] == "pass"


def test_moments(tmp_path):
    code, rows, _ = run(tmp_path, "moments", "--m-list", "1,2", "--n-list", "1")
    assert code == 0
    sums = [r for r in rows if r["kind"] == "sum"]
    assert [r["rhs_num"] for r in sums] == ["2", "20"]
    oclass = [r for r in rows if r["kind"] == "oclass"]
    assert oclass and all(r["status"] == "pass" for r in oclass)


def test_counting(tmp_path):
    code, rows, _ = run(tmp_path, "counting", "--n-max", "3", "--p", "2")
    assert code == 0
    assert [r["gamma"] for r in rows] == ["1", "1", "2", "5"]
    assert rows[1]["enum_count"] == "48"
    assert all(r["gamma"] == r["catalan"] for r in rows)


def test_counting_census_to_n12(tmp_path):
    code, rows, _ = run(tmp_path, "counting", "--n-max", "12", "--enum-limit", "12")
    assert code == 0
    assert len(rows) == 13
    assert all(r["enum_count"] == r["sentence_count"] for r in rows)


def test_tractability_cases(tmp_path):
    code, rows, _ = run(tmp_path, "tractability", "--case", "geometric")
    assert code == 0
    assert rows[-1]["verdict"] == "convergent"
    assert abs(float(rows[-1]["value_float"]) - 1.5) < 1e-12
    code, rows, _ = run(tmp_path, "tractability", "--case", "harmonic",
                        "--budget", "20000")
    assert code == 0
    assert rows[-1]["verdict"] == "divergent-trend"


def test_montecarlo_exact_check(tmp_path):
    code, rows, _ = run(tmp_path, "montecarlo", "--n", "1", "--max-tokens", "6",
                        "--samples", "4000", "--exact-check")
    assert code == 0
    assert abs(float(rows[0]["z"])) <= 4
    assert rows[0]["status"] == "pass"


@pytest.mark.parametrize("max_tokens, samples, seed, mean, z, status", [
    # p0 and p0 ¬ both scan for 32 units, so every sample is the exact mean
    ("2", "5", "0", "32.0", "0.0", "pass"),
    # both samples are p0 p0 ∧ or p0 p0 ∨ (112 units) against an exact 76.8
    ("3", "2", "0", "112.0", "inf", "fail"),
    # both samples scan for 32 units
    ("3", "2", "2", "32.0", "-inf", "fail"),
], ids=["exact-hit", "above", "below"])
def test_montecarlo_exact_check_without_spread(tmp_path, max_tokens, samples, seed,
                                               mean, z, status):
    # samples that all take one value give a zero standard error: only
    # the exact mean itself may pass
    code, rows, _ = run(tmp_path, "montecarlo", "--n", "1", "--max-tokens", max_tokens,
                        "--samples", samples, "--exact-check", "--seed", seed)
    assert code == (status == "fail")
    assert (rows[0]["mean"], rows[0]["stderr"], rows[0]["z"], rows[0]["status"]) == \
        (mean, "0.0", z, status)


def test_montecarlo_exhaustive_equals_exact(tmp_path):
    code, rows, _ = run(tmp_path, "montecarlo", "--n", "1", "--max-tokens", "5",
                        "--exhaustive")
    assert code == 0
    assert rows[0]["mean"] == rows[0]["exact_mean"]


def test_montecarlo_deterministic(tmp_path):
    args = ("montecarlo", "--n", "1", "--max-tokens", "6", "--samples", "2000")
    _, _, first = run(tmp_path, *args, name="a.csv")
    _, _, second = run(tmp_path, *args, name="b.csv")
    assert first == second
    _, _, other_seed = run(tmp_path, "--seed", "7", *args, name="c.csv")
    assert other_seed != first


def test_montecarlo_adds_no_model_set_cache_entries(tmp_path):
    from avgsat.formula import compact_model_set
    before = compact_model_set.cache_info()
    code, _, _ = run(tmp_path, "montecarlo", "--n", "2", "--max-tokens", "7",
                     "--samples", "3000", "--seed", "5")
    assert code == 0
    after = compact_model_set.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_explore_min(tmp_path):
    args = ("explore-min", "--target-tokens", "7", "--samples", "500")
    code, rows, first = run(tmp_path, *args, name="a.csv")
    assert code == 0
    assert rows[0]["pool"] == "4"
    _, _, second = run(tmp_path, *args, name="b.csv")
    assert first == second


def test_explore_min_wide_table(tmp_path):
    # 256 ternary connectives
    code, rows, _ = run(tmp_path, "explore-min", "--arity", "3",
                        "--target-tokens", "7", "--samples", "200")
    assert code == 0
    assert rows[0]["status"] == "info"


def assert_exits_2(tmp_path, capsys, argv, prefix="avgsat: "):
    """The run prints one stderr line starting with prefix, writes no
    CSV and exits 2."""
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["explore-min", "--arity", "4"],
    ["explore-min", "--arity", "0"],
], ids=["arity-4", "arity-0"])
def test_unbuildable_table_exits_2(tmp_path, capsys, argv):
    assert_exits_2(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["explore-min", "--samples", "0"],
    ["montecarlo", "--n", "1", "--max-tokens", "3", "--samples", "0"],
    ["explore-min", "--target-tokens", "2"],
    ["montecarlo", "--n", "3", "--max-tokens", "2", "--samples", "5"],
    ["montecarlo", "--n", "3", "--max-tokens", "2", "--exhaustive"],
    ["montecarlo", "--n", "2", "--max-tokens", "8", "--samples", "1", "--exact-check"],
], ids=["explore-min-no-samples", "montecarlo-no-samples",
        "explore-min-empty-space", "montecarlo-empty-space",
        "montecarlo-exhaustive-empty-space", "montecarlo-exact-check-one-sample"])
def test_unsampleable_request_exits_2(tmp_path, capsys, argv):
    assert_exits_2(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["explore-min", "--target-tokens", "-1"],
    ["explore-min", "--target-tokens", "-2"],
    ["explore-min", "--target-tokens", "-4", "--arity", "3"],
    ["montecarlo", "--n", "2", "--max-tokens", "-1", "--samples", "5"],
    ["montecarlo", "--n", "-1"],
    ["sat-oclass", "--n", "-1"],
    ["tab-oclass", "--model", "enumerated", "--n-list", "0"],
    ["expected-min", "--n", "-1"],
    ["tab-oclass", "--model", "shannon", "--n-list", "0"],
    ["moments", "--m-list", "-1"],
    ["moments", "--tol-exp", "-1"],
    ["counting", "--n-max", "-1"],
    ["markov-tail", "--n", "1", "--multiplier", "0"],
    ["property-2-3", "--h-exponent", "-1"],
    ["property-2-3", "--model", "shannon", "--n-list", "0,3"],
    ["tab-oclass", "--n", "0"],
    ["sat-oclass", "--n", "1", "--max-tokens", "-1"],
    ["montecarlo", "--n", "1", "--max-tokens", "-1", "--exhaustive"],
], ids=["explore-min-tokens", "explore-min-tokens-2", "explore-min-tokens-arity-3",
        "montecarlo-tokens", "montecarlo-n", "sat-oclass-n", "tab-oclass-n",
        "expected-min-n", "tab-oclass-shannon-n", "moments-m", "moments-tol",
        "counting-n-max", "markov-tail-multiplier", "property-2-3-exponent",
        "property-2-3-shannon-n", "tab-oclass-default-n", "sat-oclass-tokens",
        "montecarlo-exhaustive-tokens"])
def test_negative_size_exits_2(tmp_path, capsys, argv):
    assert_exits_2(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["sat-oclass", "--n", "4"],
    ["markov-tail", "--n", "5"],
    ["tab-oclass", "--model", "enumerated", "--n-list", "11", "--max-tokens", "3"],
    ["tab-oclass", "--model", "enumerated", "--n-list", "5", "--max-tokens", "11"],
    ["sat-oclass", "--n", "5", "--max-tokens", "11"],
    ["montecarlo", "--n", "4", "--max-tokens", "14", "--samples", "10", "--exact-check"],
    ["montecarlo", "--n", "3", "--max-tokens", "60", "--exhaustive"],
    ["property-2-2", "--max-tokens", "201"],
    ["tab-oclass", "--model", "enumerated", "--n-list", "6", "--max-tokens", "10"],
], ids=["sat-oclass-n4", "markov-tail-n5", "tab-oclass-n11", "tab-oclass-n5-work",
        "sat-oclass-n5-work", "montecarlo-exact-check-work",
        "montecarlo-exhaustive-work", "property-2-2-tokens", "tab-oclass-n6-empty"])
def test_out_of_reach_space_exits_2_at_once(tmp_path, capsys, argv):
    # refused before any counting: covering spaces past n = 3, and
    # sentence spaces past 10 variables, 200 tokens or the counting's
    # estimated steps (_counting.MAX_WORK; sat-oclass --n 5 --max-tokens 11
    # counted for 4.8 s before finding too few classes), or with no
    # sentence over n variables (_kernel.alpha_count; class 6 within 10
    # tokens was counted for 4.4 s before it was found empty)
    start = time.perf_counter()
    assert_exits_2(tmp_path, capsys, argv)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, message", [
    ("sat-oclass --n 1 --max-tokens 0", "alpha-class 1 has no sentence within 0 tokens"),
    ("property-2-2 --n-list 1,2 --max-tokens 2", "alpha-class 2 has no sentence within 2 tokens"),
    ("property-2-3 --model sat --n-list 1,2 --max-tokens 3",
     "alpha-class 1 inhabits 2 of 4 model classes"),
    ("tab-oclass --model enumerated --n-list 1,2 --max-tokens 1",
     "alpha-class 2 has no sentence within 1 tokens"),
    # class 1 is covered within 4 tokens, and class 3 needs 5
    ("property-2-2 --n-list 1,3 --max-tokens 4", "alpha-class 3 has no sentence within 4 tokens"),
    ("property-2-3 --model sat --n-list 1,3 --max-tokens 4",
     "alpha-class 3 has no sentence within 4 tokens"),
    # an empty class is found before the count's steps are estimated:
    # class 7 needs 13 tokens, class 10 needs 19
    ("sat-oclass --n 7 --max-tokens 12", "alpha-class 7 has no sentence within 12 tokens"),
    ("property-2-2 --n-list 1,10 --max-tokens 12",
     "alpha-class 10 has no sentence within 12 tokens"),
], ids=["sat-oclass-empty", "property-2-2-empty", "property-2-3-uncovered",
        "tab-oclass-empty", "property-2-2-covered-and-empty", "property-2-3-covered-and-empty",
        "sat-oclass-empty-not-costly", "property-2-2-empty-not-costly"])
def test_space_missing_a_class_exits_2(tmp_path, capsys, argv, message):
    # a budget that leaves a class empty or short of model classes is
    # refused; an empty class is not read as a class of no rows
    assert_exits_2(tmp_path, capsys, argv.split(), prefix=f"avgsat: {message}\n")


# the refusals of an --n that no sentence within --max-tokens holds, and
# of one that too few hold for the draws to stay within their bound
SAMPLING_REFUSALS = {
    "montecarlo --n 5 --max-tokens 3 --samples 100000":
        "avgsat: no sentences with 5 distinct variables within 3 tokens\n",
    "montecarlo --table {unary} --n 2 --max-tokens 9":
        "avgsat: no sentences with 2 distinct variables within 9 tokens\n",
    "montecarlo --n 12 --max-tokens 23 --samples 1000":
        "avgsat: 1000 samples over 12 variables within 23 tokens, where 9.8e-06 of the "
        "sentences have 12 distinct variables, would take more than the 1e+07 token steps",
    "montecarlo --n 10 --max-tokens 19 --samples 1000":
        "avgsat: 1000 samples over 10 variables within 19 tokens, where 8.1e-05 of the "
        "sentences have 10 distinct variables, would take more than the 1e+07 token steps",
}


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--n", "5", "--max-tokens", "3", "--samples", "100000"],
    ["montecarlo", "--n", "40", "--max-tokens", "3", "--samples", "10"],
    ["montecarlo", "--table", "{unary}", "--n", "2", "--max-tokens", "9"],
    ["explore-min", "--target-tokens", "81", "--samples", "10"],
    ["explore-min", "--arity", "3", "--target-tokens", "52", "--samples", "10"],
    ["montecarlo", "--n", "12", "--max-tokens", "23", "--samples", "1000"],
    ["montecarlo", "--n", "10", "--max-tokens", "19", "--samples", "1000"],
    ["montecarlo", "--n", "2", "--max-tokens", "201", "--samples", "10"],
    ["montecarlo", "--n", "30", "--max-tokens", "200", "--samples", "10"],
    ["montecarlo", "--n", "16", "--max-tokens", "200"],
    ["montecarlo", "--n", "12", "--max-tokens", "40", "--samples", "20000"],
    ["explore-min", "--target-tokens", "65"],
    ["explore-min", "--arity", "3", "--target-tokens", "49", "--samples", "2000"],
    ["explore-min", "--arity", "1", "--samples", "2000000"],
], ids=["montecarlo-n5", "montecarlo-n40", "montecarlo-unary", "explore-min-81",
        "explore-min-arity-3-pool-35", "montecarlo-n12-share", "montecarlo-n10-share",
        "montecarlo-max-tokens-201", "montecarlo-n30", "montecarlo-draw-steps",
        "montecarlo-draw-steps-share", "explore-min-draw-steps",
        "explore-min-arity-3-draw-steps", "explore-min-arity-1-draw-steps"])
def test_hopeless_sampling_exits_2_at_once(tmp_path, capsys, argv):
    # no sentence within --max-tokens holds --n variable tokens, so no
    # draw could be accepted, or too few sentences do (9.8e-6 and 8.1e-5
    # of them) for 1,000 acceptances within sampling.MAX_DRAW_STEPS; or
    # explore-min's draws would need masks of about 2^26 bits and more;
    # or montecarlo's completion table would pass its declared 200 tokens,
    # or its draws' masks of up to 2^n bits its declared --n of 20 (a
    # draw at --n 30 ran out of memory); or the draws' token steps would pass sampling.MAX_DRAW_STEPS: the
    # default 100,000 samples at --n 16 within 200 tokens (about 75 s),
    # or 20,000 at --n 12 within 40 tokens, where 1 in 32 draws is
    # accepted; or explore-min's: the default 10,000 samples at 65 tokens
    # (about 95 s), or 2,000,000 at 9
    unary = tmp_path / "unary.txt"
    unary.write_text("¬ 1 10\n", encoding="utf-8")
    start = time.perf_counter()
    assert_exits_2(tmp_path, capsys, [arg.format(unary=unary) for arg in argv],
                   prefix=SAMPLING_REFUSALS.get(" ".join(argv), "avgsat: "))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["tractability", "--case", "geometric", "--budget", "14400"],
    ["tractability", "--case", "constant", "--budget", "30001"],
    ["tractability", "--case", "harmonic", "--budget", "10000001"],
    ["tractability", "--budget", "0"],
    ["counting", "--n-max", "700"],
    ["counting", "--p", "100000"],
    ["counting", "--p", "-1"],
    ["counting", "--n-max", "100", "--p", "1000"],
    ["counting", "--n-max", "300", "--p", "100"],
    ["counting", "--n-max", "490", "--p", "0", "--enum-limit", "490"],
    ["moments", "--tol-exp", "100000"],
    ["moments", "--m-list", "2,1000"],
    ["moments", "--m-list", "1000", "--tol-exp", "20000"],
    ["moments", "--n-list", "1", "--m-list", ",".join(map(str, range(500, 480, -1)))],
    ["moments", "--m-list", ",".join(map(str, range(1, 501))), "--tol-exp", "10000"],
    ["property-2-3", "--n-list", "1,2", "--h-exponent", "1000000"],
    ["property-2-3", "--model", "shannon", "--n-list", ",".join(map(str, range(3, 14))),
     "--h-exponent", "100000"],
], ids=["geometric-14400", "constant", "harmonic", "budget-0", "n-max-700", "p-1e5",
        "p-negative", "n-max-100-p-1000", "n-max-300-p-100", "enum-limit-490",
        "moments-tol-exp-1e5", "moments-m-1000", "moments-m-1000-tol-exp-20000",
        "moments-m-list-500-to-481", "moments-m-list-1-to-500-tol-exp-1e4", "h-exponent-1e6",
        "shannon-h-exponent-1e5"])
def test_unbounded_series_exits_2_at_once(tmp_path, capsys, argv):
    # exact partials whose digits grow with the scan (geometric at 14,400
    # took 13.6 s), or a float scan past 10^7 classes; counting past
    # commands.series.MAX_COUNTING_WORK: its partial sums at --n-max 700
    # (10.5 s) or --p 10^5 (past 40 s), the two together (9.0 s and 3.8 s)
    # or with the censuses (--n-max 490 --p 0 is admitted alone, and takes
    # some 3 s with them); a negative --p crashed, its float power
    # underflowing to 0 before it was divided by; and moment sums whose
    # cutoff grows with both --m-list and --tol-exp, and their cost as its
    # square (--m-list 1000 --tol-exp 20000 took 10 s), or many entries
    # each admitted alone (the 20 from 500 down to 481 took 2.4 s, every
    # m to 500 17 s; commands.moments.MAX_MOMENTS_WORK), which their exact
    # cutoffs, largest first, refuse after the first few; and property-2-3's
    # --h-exponent, whose weights n^-e grow by e bits per doubling of n
    # (the Shannon model at --n-list 3,...,13 and e = 10^5 took 69 s)
    start = time.perf_counter()
    assert_exits_2(tmp_path, capsys, argv)
    assert time.perf_counter() - start < 1


def test_tractability_budget_limit_is_per_case(tmp_path, capsys, monkeypatch):
    from avgsat.commands import series
    monkeypatch.setitem(series._CASES["geometric"], "limit", 60)
    code, rows, _ = run(tmp_path, "tractability", "--case", "geometric", name="a.csv")
    assert code == 0 and rows[-1]["prefix"] == "60"
    assert_exits_2(tmp_path, capsys, ["tractability", "--case", "geometric", "--budget", "61"],
                   prefix="avgsat: --budget 61: --case geometric scans at most 60 classes")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_self_dual_table_exits_2_at_once(tmp_path, capsys, n):
    # NOT and majority reach only the self-dual classes; the DP would
    # run to its 24-token cap (about 20 s at n = 3) before saying so
    path = tmp_path / "table.txt"
    path.write_text("¬ 1 10\nM 3 00010111\n", encoding="utf-8")
    start = time.perf_counter()
    assert_exits_2(tmp_path, capsys, ["sat-oclass", "--table", str(path), "--n", str(n)],
                   prefix="avgsat: every connective is self-dual")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("line, command", [
    ("model = foo", "tab-oclass"),
    ("case = foo", "tractability"),
    ("model = foo", "property-2-3"),
], ids=["tab-model", "tractability-case", "property-2-3-model"])
def test_unknown_config_choice_exits_2(tmp_path, capsys, line, command):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                   prefix=f"avgsat: {path}:1: {line}: choose from ")


@pytest.mark.parametrize("text, command, where", [
    (None, "sat-oclass", ": "),
    ("n 2\n", "sat-oclass", ":1: "),
    ("# comment\nn = x\n", "sat-oclass", ":2: "),
    ("n_list = 1,y\n", "moments", ":1: "),
], ids=["missing", "no-equals", "not-an-integer", "not-an-integer-list"])
def test_bad_config_exits_2(tmp_path, capsys, text, command, where):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                   prefix=f"avgsat: {path}{where}")


# --- the declared options ---------------------------------------------------

DECLARED = [(command, opt) for command, cmd in cli.COMMANDS.items()
            for opt in (*cli.GLOBALS, *cmd.options)]


def _accepted(opt):
    """A value the option accepts, as written after its flag or its key."""
    if opt.choices:
        return opt.choices[-1]
    low = 1 if opt.minimum is None else opt.minimum
    return {int: str(low), float: "0.25", str: "x.txt",
            cli._int_list: f"{low},{low + 1}"}[opt.type]


@pytest.mark.parametrize("command, opt", DECLARED,
                         ids=[f"{command} {opt.flag}" for command, opt in DECLARED])
def test_flag_and_config_resolve_alike(command, opt):
    # the same value, given once by flag and once by config key, is one
    # value of the declared type
    if opt.type is bool:
        flag, raw, expected = [opt.flag], "yes", True
    else:
        raw = _accepted(opt)
        flag, expected = [opt.flag, raw], opt.type(raw)
    by_flag = cli.Options(cli._parse([command, *flag]), {}).get(opt.name)
    by_config = cli.Options(cli._parse([command]), {opt.name: (raw, "run.cfg:1")})
    assert by_flag == by_config.get(opt.name) == expected
    assert type(by_flag) is type(expected)


@pytest.mark.parametrize("command, opt", DECLARED,
                         ids=[f"{command} {opt.flag}" for command, opt in DECLARED])
def test_declared_default_meets_its_declaration(command, opt):
    assert cli.Options(cli._parse([command]), {}).get(opt.name) == opt.default
    values = opt.default if isinstance(opt.default, tuple) else [opt.default]
    if opt.default is not None and opt.type is not bool:
        assert all(type(v) is (int if opt.type is cli._int_list else opt.type)
                   for v in values)
    if opt.choices:
        assert opt.default in opt.choices
    if opt.minimum is not None and opt.default is not None:
        assert min(values) >= opt.minimum
    if opt.maximum is not None and opt.default is not None:
        assert max(values) <= opt.maximum


REFUSED = [(command, opt, bad, why) for command, cmd in cli.COMMANDS.items()
           for opt in cmd.options
           for bad, why in ([("nope", "choose from")] if opt.choices else [])
           + ([(str(opt.minimum - 1), "must be at least")] if opt.minimum is not None else [])
           + ([(str(opt.maximum + 1), "must be at most")] if opt.maximum is not None else [])]


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:   # argparse refuses a flag outside its choices
        return exc.code


@pytest.mark.parametrize("command, opt, bad, why", REFUSED,
                         ids=[f"{c} {o.flag} {bad}" for c, o, bad, _ in REFUSED])
def test_declared_bound_is_refused_from_flag_and_config(tmp_path, capsys, command, opt,
                                                        bad, why):
    out = tmp_path / "out.csv"
    assert _exit_code([command, opt.flag, bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{opt.flag} {bad}: {why}" in err or "invalid choice: 'nope'" in err
    path = tmp_path / "run.cfg"
    path.write_text(f"{opt.name} = {bad}\n", encoding="utf-8")
    assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                   prefix=f"avgsat: {path}:1: {opt.name} = {bad}: {why}")
    assert not out.exists()


@pytest.mark.parametrize("raw, value", [
    ("1", True), ("true", True), ("Yes", True), ("TRUE", True),
    ("0", False), ("false", False), ("no", False), ("NO", False),
])
def test_config_boolean_spellings(raw, value):
    opts = cli.Options(cli._parse(["expected-min"]), {"upto": (raw, "run.cfg:1")})
    assert opts.get("upto") is value


@pytest.mark.parametrize("line, command", [
    ("upto = ture", "expected-min"),
    ("audit = on", "tab-oclass"),
    ("exhaustive = 2", "montecarlo"),
    ("exact_check = none", "montecarlo"),
], ids=["upto-ture", "audit-on", "exhaustive-2", "exact-check-none"])
def test_misspelled_config_boolean_exits_2(tmp_path, capsys, line, command):
    # read as false, these ran the wrong check and could exit 0 or 1
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                   prefix=f"avgsat: {path}:1: {line}: expected 1, true, yes, 0, false, no")


@pytest.mark.parametrize("line, command", [
    ("max-tokens = 3", "sat-oclass"),
    ("sampels = 3", "explore-min"),
    ("space = sat", "montecarlo"),
    ("nope = 1", "expected-min"),
], ids=["dashed-key", "misspelled-key", "montecarlo-space", "no-such-key"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line, command):
    path = tmp_path / "run.cfg"
    path.write_text(f"# run settings\n{line}\n", encoding="utf-8")
    assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                   prefix=f"avgsat: {path}:2: {line}: no command takes it")


def test_keys_of_other_commands_are_ignored(tmp_path):
    # montecarlo's samples and expected-min's upto, malformed, are not
    # read by markov-tail
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = x\nupto = ture\nn = 1\n", encoding="utf-8")
    code, rows, _ = run(tmp_path, "--config", str(cfg), "markov-tail")
    assert code == 0 and rows[0]["n"] == "1"


def test_expected_min_upto_12_matches_recorded_digest(tmp_path):
    # recorded when every term of nonempty_sum was its own Fraction
    out = tmp_path / "out.csv"
    assert cli.main(["expected-min", "--n", "12", "--upto", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "85c14af8bc5b13cca3d6a638dc4612df3a1d2ba34e94841847bc7f0c67d810b1"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_expected_min_refuses_n_past_its_limit_at_once(tmp_path, capsys, source):
    # at n = 17 the exact sums have 131,072-bit denominators
    path = tmp_path / "run.cfg"
    path.write_text("n = 17\n", encoding="utf-8")
    argv = ["--config", str(path)] if source == "config" else ["--n", "17"]
    start = time.perf_counter()
    assert_exits_2(tmp_path, capsys, ["expected-min", *argv])
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["tab-oclass", "--model", "shannon", "--n-list", "14"],
    ["tab-oclass", "--model", "shannon", "--n", "14"],
    ["property-2-3", "--model", "shannon", "--n-list", "3,14"],
], ids=["tab-oclass-n-list", "tab-oclass-n", "property-2-3"])
def test_shannon_model_refuses_n_past_its_limit_at_once(tmp_path, capsys, argv):
    # both commands sum over the model's 2^n code lengths per class:
    # tab-oclass ran past 30 s at n = 16
    start = time.perf_counter()
    assert_exits_2(tmp_path, capsys, argv)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unwritable_out_exits_2(tmp_path, capsys, source):
    out = tmp_path / "missing" / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {out}\n", encoding="utf-8")
    argv = ["--out", str(out)] if source == "flag" else ["--config", str(cfg)]
    assert cli.main([*argv, "sat-oclass", "--n", "1"]) == 2
    assert capsys.readouterr().err == f"avgsat: out {out}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("text", [
    None, "x 2 01\n", "x 100000000 0\n", "x -1 1\n", "x 1.5 01\n",
], ids=["missing", "malformed", "arity-10^8", "arity-negative", "arity-not-an-integer"])
def test_bad_table_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "table.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = cli.main(["sat-oclass", "--n", "1", "--table", str(path),
                     "--out", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    where = "" if text is None else "line 1: "
    assert err.startswith(f"avgsat: table {path}: {where}") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_failing_rows_are_named_on_stderr(tmp_path, capsys):
    code, rows, data = run(tmp_path, "tab-oclass", "--model", "shannon", "--n-list", "1,2")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "avgsat: fail: row 1 of 2: n=1, lhs_num=5, lhs_den=4",
        "avgsat: fail: row 2 of 2: n=2, lhs_num=289, lhs_den=288",
    ]
    # --audit changes the status cells only, and names no row
    code, _, audited = run(tmp_path, "--audit", "tab-oclass", "--model", "shannon",
                           "--n-list", "1,2", name="audited.csv")
    assert code == 0
    assert capsys.readouterr().err == ""
    assert audited == data.replace(b",fail\n", b",expected_fail\n")


def test_passing_run_writes_nothing_to_stderr(tmp_path, capsys):
    code, _, _ = run(tmp_path, "tab-oclass", "--model", "shannon", "--n-list", "3")
    assert code == 0
    assert capsys.readouterr().err == ""


def test_property_2_2(tmp_path):
    code, rows, _ = run(tmp_path, "property-2-2", "--n-list", "1,2")
    assert code == 0
    assert rows[-1]["check"] == "biconditional" and rows[-1]["status"] == "pass"
    assert all(r["status"] == "pass" for r in rows)


def test_property_2_2_break_class(tmp_path):
    code, rows, _ = run(tmp_path, "property-2-2", "--n-list", "1,2",
                        "--break-class", "2")
    assert code == 0
    oclass = {r["n"]: r["status"] for r in rows if r["check"] == "oclass"}
    assert oclass == {"1": "pass", "2": "expected_fail"}
    chi2 = next(r for r in rows if r["label"] == "chi_2")
    assert chi2["status"] == "expected_fail"
    assert rows[-1]["status"] == "pass"


@pytest.mark.parametrize("n_list, break_class", [("1,2", "5"), ("1", "0"), ("1", "2")])
def test_property_2_2_break_class_outside_the_space_exits_2(tmp_path, capsys, n_list,
                                                             break_class):
    assert_exits_2(tmp_path, capsys, ["property-2-2", "--n-list", n_list,
                                      "--break-class", break_class],
                   prefix=f"avgsat: --break-class {break_class}: not a class of the space")


def test_property_2_3(tmp_path):
    code, rows, _ = run(tmp_path, "property-2-3", "--model", "sat")
    assert code == 0
    assert (rows[0]["expectation_num"], rows[0]["expectation_den"]) == ("143", "128")
    assert (rows[0]["bound_num"], rows[0]["bound_den"]) == ("5", "4")
    code, rows, _ = run(tmp_path, "property-2-3", "--model", "shannon")
    assert code == 0 and rows[0]["status"] == "pass"


def test_sat_oclass_n3_rows(tmp_path):
    # at n = 3 the covering space (22 tokens, 5.2e14 sentences) is only
    # counted; T/F = (min + 1)/2 does not depend on f, so the sat row is
    # half the expected first witness over the 256 model classes
    code, rows, _ = run(tmp_path, "sat-oclass", "--n", "3")
    assert code == 0
    by_check = {r["check"]: r for r in rows}
    half = analytic.expected_min_plus_one(3).closed / 2
    assert half == Fraction(511, 512)
    for check in ("sat", "co"):
        assert Fraction(int(by_check[check]["lhs_num"]), int(by_check[check]["lhs_den"])) == half
        assert by_check[check]["pass"] == "pass"


def test_markov_tail_n3(tmp_path):
    code, rows, _ = run(tmp_path, "markov-tail", "--n", "3")
    assert code == 0
    assert rows[0]["status"] == "pass"


def test_montecarlo_n3_agrees_with_counted_mean(tmp_path):
    # sampling is an oracle for the counted space: enumerating it would
    # visit 1.7e7 sentences
    code, rows, _ = run(tmp_path, "montecarlo", "--n", "3", "--max-tokens", "12",
                        "--samples", "20000", "--exact-check", "--seed", "1")
    assert code == 0
    assert rows[0]["status"] == "pass" and abs(float(rows[0]["z"])) <= 4


@pytest.mark.parametrize("argv, once", [
    (["moments", "--n-list", "1", "--m-list", "500,500"],
     ["moments", "--n-list", "1", "--m-list", "500"]),
    (["tab-oclass", "--n-list", "13,13"], ["tab-oclass", "--n-list", "13"]),
], ids=["moments-m-list", "tab-oclass-n-list"])
def test_repeated_list_entry_runs_once(tmp_path, argv, once):
    # each entry's work is done once, and its rows are written once
    assert run(tmp_path, *argv, name="a.csv")[2] == run(tmp_path, *once, name="b.csv")[2]


def test_int_list_keeps_first_of_each_entry():
    assert cli._int_list("3,1,,3,2,1") == [3, 1, 2]
    # a config value reads as its flag does
    by_config = cli.Options(cli._parse(["moments"]), {"m_list": ("4,2,4", "run.cfg:1")})
    assert by_config.get("m_list") == [4, 2] == cli._parse(["moments", "--m-list", "4,2,4"]).m_list


LISTS = [(command, opt) for command, opt in DECLARED if opt.type is cli._int_list]


@pytest.mark.parametrize("command, opt", LISTS,
                         ids=[f"{command} {opt.flag}" for command, opt in LISTS])
def test_empty_list_is_refused_from_flag_and_config(tmp_path, capsys, command, opt):
    # a list with no entries checked nothing, wrote a header or a pass
    # row, and exited 0
    for flag in ([f"{opt.flag}="], [opt.flag, ","]):
        assert _exit_code([command, *flag, "--out", str(tmp_path / "out.csv")]) == 2
        assert f"argument {opt.flag}: invalid" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    for raw in ("", ","):
        path.write_text(f"{opt.name} = {raw}\n", encoding="utf-8")
        assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                       prefix=f"avgsat: {path}:1: {opt.name} = {raw}: "
                              "expected at least one integer")
    assert not (tmp_path / "out.csv").exists()


FLOATS = [(command, opt) for command, opt in DECLARED if opt.type is float]


@pytest.mark.parametrize("command, opt", FLOATS,
                         ids=[f"{command} {opt.flag}" for command, opt in FLOATS])
def test_nan_is_refused_from_flag_and_config(tmp_path, capsys, command, opt):
    # every comparison with NaN is false: tractability --eps nan made
    # every scan convergent and --cap nan none, past any declared bound
    assert_exits_2(tmp_path, capsys, [command, f"{opt.flag}=nan"],
                   prefix=f"avgsat: {opt.flag} nan: expected a number\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"{opt.name} = nan\n", encoding="utf-8")
    assert_exits_2(tmp_path, capsys, ["--config", str(path), command],
                   prefix=f"avgsat: {path}:1: {opt.name} = nan: expected a number\n")


@pytest.mark.parametrize("argv", [
    ["property-2-2", "--break-class", "2", "--inflate", "-1"],
    ["property-2-2", "--break-class", "2", "--inflate", "0"],
    ["tractability", "--eps", "-1"],
], ids=["inflate-negative", "inflate-0", "eps-negative"])
def test_meaningless_scale_exits_2(tmp_path, capsys, argv):
    # property-2-2 ran the broken class with negative or zero times and
    # wrote a failing biconditional; a negative --eps never let the tail
    # level
    assert_exits_2(tmp_path, capsys, argv, prefix=f"avgsat: {argv[-2]} ")


@pytest.mark.parametrize("n, max_tokens", [(1, 6), (2, 8), (2, 12), (3, 10)])
def test_counted_mean_is_the_uniform_avg_time(n, max_tokens):
    # integer sums over the keys, each quotient by the count against
    # measure's exact expectation under the uniform distribution on the
    # counted space
    from avgsat import engines, measure
    from avgsat._kernel import ConnectiveTable
    from avgsat.weighting import uniform_on
    table = ConnectiveTable.standard()
    count, sx, sxx = sampling._counted_moments(table, n, max_tokens)
    space = measure.formula_space(table, [n], max_tokens)
    assert count == space.total(space.items)
    # the command writes sx / count: int true division rounds correctly
    assert sx / count == float(Fraction(sx, count))
    mu = uniform_on(space)
    assert Fraction(sx, count) == measure.avg_time(engines.sat_scan, mu, space.items)
    assert Fraction(sxx, count) == \
        measure.avg_time(lambda x: engines.sat_scan(x) ** 2, mu, space.items)


def test_markov_tail(tmp_path):
    code, rows, _ = run(tmp_path, "markov-tail", "--n", "1", "--multiplier", "100")
    assert code == 0
    emp = Fraction(int(rows[0]["empirical_num"]), int(rows[0]["empirical_den"]))
    assert emp <= Fraction(1, 100)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1\nmultiplier = 50  # inline comment\n", encoding="utf-8")
    code, rows, _ = run(tmp_path, "--config", str(cfg), "markov-tail")
    assert rows[0]["n"] == "1" and rows[0]["multiplier"] == "50"
    code, rows, _ = run(tmp_path, "--config", str(cfg), "markov-tail",
                        "--multiplier", "100")
    assert rows[0]["multiplier"] == "100"  # flag wins over config


def test_custom_table_file(tmp_path):
    from avgsat import tables
    from avgsat.formula import ConnectiveTable
    path = tmp_path / "table.txt"
    path.write_text(tables.to_text(ConnectiveTable.standard()), encoding="utf-8")
    code, rows, _ = run(tmp_path, "sat-oclass", "--n", "1", "--table", str(path))
    assert code == 0


def test_stdout_emission(capsys):
    assert cli.main(["expected-min", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("n,brute_num")
    assert "3,2" in out


def test_unknown_case_errors(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["tractability", "--case", "nope"])


# --- sampler internals ----------------------------------------------------

def test_unrank_is_a_bijection_onto_the_enumeration():
    # the ranks of a fixed length number its sequences, and each unranks
    # to the key of the sequence at its place in the lexicographic
    # enumeration, so sampling random indices is uniform over valid
    # sequences
    from avgsat.formula import ConnectiveTable
    walk_against_eval(ConnectiveTable.standard(), 2, 6)


def test_cli_names_the_sampler_of_the_sampling_commands():
    # the benchmark's tracer patches the sampler by its avgsat.cli names
    assert cli._unrank is sampling._unrank
    assert cli.SequenceSampler is sampling.SequenceSampler
    assert not hasattr(cli, "_sampler")


def _sentence_at(sampler, u):
    """The sentence of rank ``u`` in the enumeration of the sampler's
    lengths, shortest first."""
    from avgsat.formula import Formula
    for length, count in sampler.totals:
        if u < count:
            codes = sentence_at(sampler.n_vars, sampler.table.arities, length, u)
            return Formula(codes, sampler.table)
        u -= count
    raise IndexError(u)


def _key_at(sampler, u):
    """The key of the walk over rank ``u`` alone."""
    key, = sampler.keys_at([u])
    return key


@pytest.mark.parametrize("table", ["standard", "nand"])
def test_sampler_rank_is_shortlex_position(table):
    # rank u names the u-th sentence of the shortlex enumeration over
    # every length up to max_tokens, so a value memoized per rank is a
    # value memoized per sentence; the reference unranking names the
    # same sentences
    from avgsat import tables
    from avgsat.formula import ConnectiveTable, enumerate_formulas
    tab = (ConnectiveTable.standard() if table == "standard"
           else tables.from_text("⊼ 2 1110\n"))
    sampler = sampling.SequenceSampler(tab, 2, 6)
    enumerated = list(enumerate_formulas(tab, 2, max_tokens=6))
    ranks = range(sampler.grand_total)
    assert [_sentence_at(sampler, u) for u in ranks] == enumerated
    assert [_key_at(sampler, u) for u in ranks] == [x.key() for x in enumerated]


SCORER_TABLES = {
    "standard": "¬ 1 10\n∧ 2 0001\n∨ 2 0111\n",
    "nand": "⊼ 2 1110\n",
    "not-majority-true": "¬ 1 10\nM 3 00010111\nⓉ 0 1\n",
    # arities interleaved, so that no run of one arity holds every slot
    "interleaved": "∧ 2 0001\n¬ 1 10\n∨ 2 0111\nⓉ 0 1\n",
}


def _assert_key_oracle(x, key):
    """The walk's key is the sentence's key, and f times one more than
    its first model is sat_scan's time."""
    from avgsat import engines
    assert key == x.key()
    alpha, f, mask = key
    first = (mask & -mask).bit_length() - 1 if mask else 1 << alpha
    assert engines.sat_scan(key) == f * (first + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("table", sorted(SCORER_TABLES))
def test_scan_units_match_sat_scan_on_every_rank(table, n):
    # every rank up to 6 tokens unranks to the key of its sentence
    from avgsat import tables
    tab = tables.from_text(SCORER_TABLES[table])
    sampler = sampling.SequenceSampler(tab, n, 6)
    alphas = set()
    for u in range(sampler.grand_total):
        key = _key_at(sampler, u)
        _assert_key_oracle(_sentence_at(sampler, u), key)
        alphas.add(key[0])
    assert n in alphas


def test_two_digit_variables_unrank_to_their_keys():
    # variables from p10 on add a second digit to the size
    import random
    from avgsat.formula import ConnectiveTable
    sampler = sampling.SequenceSampler(ConnectiveTable.standard(), 12, 7)
    rng = random.Random(0)
    sizes = set()
    for u in [rng.randrange(sampler.grand_total) for _ in range(3000)]:
        key = _key_at(sampler, u)
        _assert_key_oracle(_sentence_at(sampler, u), key)
        sizes.add(key[1])
    assert len(sizes) > 7


@pytest.mark.parametrize("arity, targets", [(1, range(1, 8)), (2, (1, 3, 5)), (3, (1, 4))])
def test_explore_min_ranks_unrank_to_their_keys(arity, targets):
    # explore-min draws from a sampler of exactly target tokens: its
    # ranks are those of the sentences of that length alone, in the
    # order of their enumeration
    from avgsat import tables
    from avgsat.formula import Formula, enumerate_length
    tab = tables.all_of_arity(arity)
    for target in targets:
        pool = 1 + (target - 1) * (arity - 1) // arity
        sampler = sampling.SequenceSampler(tab, pool, target, shortest=target)
        total = sampler.cnt[target][0]
        assert total and sampler.totals == [(target, total)]
        sequences = enumerate_length(pool, tab.arities, target)
        assert len(sequences) == total
        for u, (codes, _) in enumerate(sequences):
            key, = sampling._unrank([u], target, pool, sampler.runs, sampler.cnt)
            assert _key_at(sampler, u) == key
            _assert_key_oracle(Formula(codes, tab), key)


# name: (the arity of every connective, or None for NOT/AND/OR, n, max_tokens)
WALK_TABLES = {"standard": (None, 2, 7), "all-binary": (2, 2, 6), "arity-3": (3, 2, 5)}


def _walk_table(arity):
    from avgsat import tables
    from avgsat.formula import ConnectiveTable
    return ConnectiveTable.standard() if arity is None else tables.all_of_arity(arity)


@pytest.mark.parametrize("table", sorted(WALK_TABLES))
def test_walk_over_every_rank_matches_one_rank_walks(table):
    # one walk per length over every rank gives each rank the key of
    # its own sentence, as the walk over that rank alone does
    from avgsat.formula import enumerate_formulas
    arity, n, max_tokens = WALK_TABLES[table]
    tab = _walk_table(arity)
    sampler = sampling.SequenceSampler(tab, n, max_tokens)
    keys = sampler.keys_at(list(range(sampler.grand_total)))
    sentences = list(enumerate_formulas(tab, n, max_tokens=max_tokens))
    assert len(keys) == len(sentences) == sampler.grand_total
    for u, (key, x) in enumerate(zip(keys, sentences)):
        assert key == _key_at(sampler, u)
        _assert_key_oracle(x, key)


@pytest.mark.parametrize("table, n, max_tokens", [
    ("standard", 3, 12), ("all-binary", 3, 9), ("arity-3", 4, 7), ("standard", 12, 9),
])
def test_walk_over_sorted_rank_sets_matches_one_rank_walks(table, n, max_tokens):
    # random sorted rank sets, with a rank of every length and runs of
    # neighbours that part only at their last tokens
    import random
    from bisect import bisect_right
    from itertools import accumulate
    sampler = sampling.SequenceSampler(_walk_table(WALK_TABLES[table][0]), n, max_tokens)
    rng = random.Random(n * 100 + max_tokens)
    total = sampler.grand_total
    ends = list(accumulate(c for _, c in sampler.totals))
    for size in (1, 2, 5, 40, 300):
        ranks = {rng.randrange(total) for _ in range(size)}
        if size > 2:
            ranks |= {rng.randrange(a, b) for a, b in zip([0] + ends, ends)}
            ranks |= {min(u + k, total - 1) for u in list(ranks)[:3] for k in range(4)}
        ranks = sorted(ranks)
        assert sampler.keys_at(ranks) == [key for u in ranks for key in sampler.keys_at([u])]
    assert len({bisect_right(ends, u) for u in ranks}) == len(ends) > 2


def test_walk_does_not_recurse_past_the_recursion_limit():
    # under NOT and identity, each rank of length L names a variable and
    # L - 1 connectives, one bit each (NOT first): the walk goes L tokens
    # deep without using the Python stack
    import random
    from avgsat import _kernel, tables
    tab = tables.from_text("¬ 1 10\nI 1 01\n")
    length = sys.getrecursionlimit() + 1
    cnt = _kernel.completion_counts(2, tab.arities, length)
    runs = sampling.slot_runs(tab.arities, tab.truth_bits)
    half = 1 << (length - 1)
    rng = random.Random(0)
    ranks = {rng.randrange(2 * half) for _ in range(20)} | {half - 2, half - 1, half, half + 1}
    ranks = sorted(ranks)
    keys = sampling._unrank(ranks, length, 2, runs, cnt)
    nots = [length - 1 - bin(u % half).count("1") for u in ranks]
    assert keys == [(1, 16 * length, 0b01 if odd % 2 else 0b10) for odd in nots]


def _per_draw_moments(sampler, n, samples, rng):
    """montecarlo's draw loop before rounds, kept as the reference: one
    draw at a time, each new rank's value memoized while fewer than
    ``samples`` are kept.  Also returns the draws and the distinct ranks."""
    total = sampler.grand_total
    accepted = sx = sxx = 0
    value_of = {}
    drawn = []
    while accepted < samples:
        u = rng.randrange(total)
        drawn.append(u)
        if u in value_of:
            value = value_of[u]
        else:
            (alpha, f, mask), = sampler.keys_at([u])
            value = (f * ((mask & -mask).bit_length() if mask else (1 << alpha) + 1)
                     if alpha == n else None)
            if len(value_of) < samples:
                value_of[u] = value
        if value is not None:
            accepted += 1
            sx += value
            sxx += value * value
    return (accepted, sx, sxx), len(drawn), len(set(drawn))


def _montecarlo_moments(sampler, n, samples, rng):
    """The draw loop with montecarlo's score: sat_scan of the keys over
    n variables, the others rejected."""
    from avgsat import engines
    return sampling._scan_moments(
        sampler, samples, rng,
        lambda keys: [engines.sat_scan(k) if k[0] == n else None for k in keys])


@pytest.mark.parametrize("n, max_tokens, samples, case", [
    (2, 6, 3000, "space below samples"),
    (2, 7, 2278, "space of samples"),
    (2, 7, 1000, "memo limit reached"),
    (3, 9, 4000, "memo limit reached"),
    (3, 30, 300, "no repeats"),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_tally_matches_per_draw_loop(n, max_tokens, samples, case, seed):
    # rounds draw exactly as many ranks as the per-draw loop, and the
    # tallied sums are its sums
    import random
    from avgsat.formula import ConnectiveTable
    sampler = sampling.SequenceSampler(ConnectiveTable.standard(), n, max_tokens)
    ref_rng, rng = random.Random(seed), random.Random(seed)
    expected, draws, distinct = _per_draw_moments(sampler, n, samples, ref_rng)
    assert {"space below samples": sampler.grand_total < samples,
            "space of samples": sampler.grand_total == samples,
            "memo limit reached": sampler.grand_total > samples and distinct > samples,
            "no repeats": distinct == draws}[case]
    assert _montecarlo_moments(sampler, n, samples, rng) == expected
    assert rng.getstate() == ref_rng.getstate()


def _assert_rounds_hold(monkeypatch, n, max_tokens, samples, held):
    """A round walks no more than ``held`` ranks, and the rounds' sums
    and draws are still those of one draw at a time."""
    import random
    from avgsat.formula import ConnectiveTable
    sampler = sampling.SequenceSampler(ConnectiveTable.standard(), n, max_tokens)
    ref_rng, rng = random.Random(4), random.Random(4)
    expected, draws, _ = _per_draw_moments(sampler, n, samples, ref_rng)
    walked = []
    keys_at = sampler.keys_at
    monkeypatch.setattr(sampler, "keys_at", lambda ranks: walked.append(len(ranks))
                        or keys_at(ranks))
    assert _montecarlo_moments(sampler, n, samples, rng) == expected
    assert rng.getstate() == ref_rng.getstate()
    assert max(walked) <= held and len(walked) >= draws / held


@pytest.mark.parametrize("n, max_tokens, samples, held_bits", [
    (2, 6, 3000, 1 << 8),    # rounds of 64 ranks, values kept across rounds
    (3, 30, 300, 1 << 8),    # rounds of 32 ranks, no repeats
    (3, 30, 50, 1),          # one rank a round
])
def test_rounds_hold_at_most_their_mask_bits(monkeypatch, n, max_tokens, samples, held_bits):
    # rounds of at most HELD_BITS over masks of 2^n bits
    monkeypatch.setattr(sampling, "HELD_BITS", held_bits)
    _assert_rounds_hold(monkeypatch, n, max_tokens, samples, max(1, held_bits >> n))


@pytest.mark.parametrize("n, max_tokens, samples, held_ranks", [
    (2, 6, 3000, 100),   # values kept across rounds
    (3, 30, 300, 7),     # no repeats
])
def test_rounds_hold_at_most_held_ranks(monkeypatch, n, max_tokens, samples, held_ranks):
    # HELD_BITS allows 2^18 and 2^17 ranks here: the rank bound binds
    monkeypatch.setattr(sampling, "HELD_RANKS", held_ranks)
    assert sampling.HELD_BITS >> n > held_ranks
    _assert_rounds_hold(monkeypatch, n, max_tokens, samples, held_ranks)


@pytest.mark.parametrize("arity, target, samples", [
    (2, 9, 5000),   # a pool of 5: one round
    (1, 9, 3000),   # draws that repeat
    (2, 23, 600),   # a pool of 12: rounds of 256 ranks
    (2, 41, 5),     # a pool of 21: each draw walked alone
    (1, 5, 3000),   # a sampler of 256 ranks: values kept
])
def test_explore_min_chunks_match_per_draw_walks(tmp_path, arity, target, samples):
    # explore-min's rounds of walks over its one length give the row of
    # one walk per draw, each drawn below the count of that length
    import random
    from avgsat import tables
    pool = 1 + (target - 1) * (arity - 1) // arity
    sampler = sampling.SequenceSampler(tables.all_of_arity(arity), pool, target)
    total, rng = sampler.cnt[target][0], random.Random(5)
    sx = sxx = 0
    for _ in range(samples):
        (alpha, _, mask), = sampling._unrank([rng.randrange(total)], target, pool,
                                             sampler.runs, sampler.cnt)
        m = (mask & -mask).bit_length() - 1 if mask else 1 << alpha
        sx += m
        sxx += m * m
    code, rows, _ = run(tmp_path, "explore-min", "--arity", str(arity), "--target-tokens",
                        str(target), "--samples", str(samples), "--seed", "5")
    assert code == 0
    mean, se = sampling._mean_stderr(samples, sx, sxx)
    assert (rows[0]["mean"], rows[0]["stderr"]) == (cli._float(mean), cli._float(se))


@pytest.mark.parametrize("G", [1, 2, 3, 4, 2 ** 20, 2 ** 20 + 1, 9168, 2867200000])
def test_inline_draw_is_randrange(G):
    # the sampling commands draw by randrange's own rejection loop, made
    # of C iterators, so their seeded bytes are those of randrange, and
    # they leave the generator where randrange leaves it
    import random
    from itertools import islice
    for seed in (0, 1):
        drawing, rng = random.Random(seed), random.Random(seed)
        assert list(islice(sampling._draws(drawing, G), 1000)) == \
            [rng.randrange(G) for _ in range(1000)]
        assert drawing.getstate() == rng.getstate()


def test_sampler_covers_small_space():
    import random
    from avgsat.formula import ConnectiveTable, render
    std = ConnectiveTable.standard()
    sampler = sampling.SequenceSampler(std, 1, 3)
    rng = random.Random(1)
    seen = {render(sampler.sample(rng)) for _ in range(400)}
    # all valid sentences over p0 with at most 3 tokens
    assert seen == {"p0", "p0 ¬", "p0 ¬ ¬", "p0 p0 ∧", "p0 p0 ∨"}


# the last four hold no sentence over n variables: within L tokens, at
# most (L + 1) // 2 are variable tokens
@pytest.mark.parametrize("n, max_tokens", [(2, 6), (3, 7), (1, 5), (0, 4),
                                           (5, 3), (4, 6), (1, 0), (1, -1)])
def test_alpha_count_counts_every_rank(n, max_tokens):
    from avgsat import _kernel, tables
    table = tables.from_text("¬ 1 10\n∧ 2 0001\n⊤ 0 1\n")
    sampler = sampling.SequenceSampler(table, n, max_tokens)
    keys = sampler.keys_at(list(range(sampler.grand_total)))
    hits = sum(alpha == n for alpha, _, _ in keys)
    assert _kernel.alpha_count(table.arities, n, max_tokens) == hits
    assert (hits > 0) == (n <= (max_tokens + 1) // 2)


def test_montecarlo_finishes_low_share_runs(tmp_path):
    # 6.7e-4 of the sentences within 15 tokens have 8 variables and 8.1e-5
    # of those within 19 have 10: a run draws until it has its samples,
    # whatever its seed, once its expected draws are within its bound
    for seed in range(1, 9):
        code, rows, _ = run(tmp_path, "montecarlo", "--n", "8", "--max-tokens", "15",
                            "--samples", "1", "--seed", str(seed))
        assert code == 0 and rows[0]["status"] == "pass"
    code, rows, _ = run(tmp_path, "montecarlo", "--n", "10", "--max-tokens", "19",
                        "--samples", "1")
    assert code == 0 and rows[0]["status"] == "pass"


# Seeded sampling rows, pinned to recorded bytes: a sampler change that
# moves them fails here even when every rerun agrees with the last.
@pytest.mark.parametrize("command, row", [
    ("montecarlo --n 2 --max-tokens 8 --samples 100000 --exact-check --seed 1",
     "sat,2,8,100000,1,324.424,0.639543077824695,324.66017316017314,"
     "-0.3692842098713226,pass"),
    ("montecarlo --n 3 --max-tokens 9 --samples 20000 --seed 3",
     "sat,3,9,20000,3,545.8368,2.814455628769499,,,pass"),
    ("explore-min --target-tokens 9 --samples 10000 --seed 1",
     "9,2,5,10000,1,2.5907,0.04555902669604948,info"),
    ("montecarlo --table {nand} --n 2 --max-tokens 7 --samples 20000 --seed 2",
     "sat,2,7,20000,2,167.8356,0.7428456633890924,,,pass"),
    ("explore-min --arity 1 --target-tokens 9 --samples 10000 --seed 1",
     "9,1,1,10000,1,0.9968,0.009988440964199045,info"),
    ("explore-min --arity 3 --target-tokens 7 --samples 2000 --seed 2",
     "7,3,5,2000,2,1.457,0.05600128187627398,info"),
    ("montecarlo --table {interleaved} --n 2 --max-tokens 7 --samples 20000 --seed 4",
     "sat,2,7,20000,4,278.752,1.099213745521278,,,pass"),
], ids=["montecarlo-exact-check", "montecarlo-rejecting", "explore-min", "montecarlo-nand",
        "explore-min-arity-1", "explore-min-arity-3", "montecarlo-interleaved"])
def test_seeded_row_matches_recorded_bytes(tmp_path, command, row):
    tables = {}
    for name in ("nand", "interleaved"):
        tables[name] = tmp_path / f"{name}.txt"
        tables[name].write_text(SCORER_TABLES[name], encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main([*command.format(**tables).split(), "--out", str(out)]) == 0
    assert out.read_bytes().decode("utf-8").splitlines()[1:] == [row]


# The CSVs of the exact checks and of the series commands, pinned to the
# digests the benchmark records (bench/digests.json, read only): a change
# that alters these bytes fails here even when it alters them the same
# way on every run.
DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


@pytest.mark.parametrize("command", [
    "sat-oclass --n 2",
    "property-2-2 --n-list 1,2",
    "moments --n-list 1,2",
    "markov-tail --n 2",
    "property-2-3 --model sat --n-list 1,2",
    "tab-oclass --model enumerated --n-list 1,2 --max-tokens 9",
    "sat-oclass --n 1",
    "property-2-2 --n-list 1",
    "moments --n-list 1",
    "markov-tail --n 1",
    "property-2-3 --model sat --n-list 1",
    "tab-oclass --model enumerated --n-list 1 --max-tokens 5",
    "tractability --case harmonic",
    "tractability --case harmonic --budget 2000",
    "counting --n-max 10 --enum-limit 3",
    "counting --n-max 4 --enum-limit 2",
])
def test_csv_bytes_match_recorded_digest(tmp_path, command):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]["sha256"]
    out = tmp_path / "out.csv"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded


@pytest.mark.parametrize("command", ["property-2-2 --n-list 1,2",
                                     "property-2-3 --model sat --n-list 1,2"])
def test_property_checks_build_no_reweighted_distribution(tmp_path, monkeypatch, command):
    # both checks read their expectations from per-class sums, so the
    # per-item reweighting is only the tests' definition
    from avgsat import weighting

    def refuse(*args, **kwargs):
        raise AssertionError("nu_from_H was called")

    monkeypatch.setattr(weighting, "nu_from_H", refuse)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]["sha256"]
    out = tmp_path / "out.csv"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded


class _CountingWeights(dict):
    """A weight map that counts the reads of each key through ``get``."""

    def get(self, key, default=None):
        self.reads[key] = self.reads.get(key, 0) + 1
        return super().get(key, default)


@pytest.mark.parametrize("command,most", [
    ("sat-oclass --n 1", 1), ("sat-oclass --n 2", 1), ("sat-oclass --n 3", 1),
    ("moments --n-list 1,2", 1), ("property-2-2 --n-list 1,2", 1),
    ("property-2-3 --model sat --n-list 1,2", 1),
    ("tab-oclass --model enumerated --n-list 1,2 --max-tokens 6", 1),
    # the tail's threshold is a multiple of the mean, which is summed first
    ("markov-tail --n 2", 2),
])
def test_exact_commands_read_each_weight_once(tmp_path, monkeypatch, command, most):
    # every row of a command comes from one summing pass over each space
    from avgsat import measure
    from avgsat.commands import tab_oclass
    maps, spaces = [], []
    # each weighting where its commands call it
    for module, name in [(measure, "uniform_over_model_classes"),
                         (tab_oclass, "uniform_within_min_layers")]:
        def counting(*args, build=getattr(module, name), **kwargs):
            mu = _CountingWeights(build(*args, **kwargs))
            mu.reads = {}
            maps.append(mu)
            return mu
        monkeypatch.setattr(module, name, counting)

    class CountedSpace(measure.InputSpace):
        def __init__(self, count):
            super().__init__(count)
            spaces.append(self)

    monkeypatch.setattr(measure, "InputSpace", CountedSpace)
    assert cli.main([*command.split(), "--out", str(tmp_path / "out.csv")]) == 0
    assert maps
    for mu in maps:
        assert mu.reads.keys() == mu.keys()
        assert max(mu.reads.values()) <= most
    if command.startswith("moments"):
        # one weight map over one space of every class
        assert len(maps) == 1 and maps[0].reads.keys() == spaces[-1].count.keys()
    if command.startswith("sat-oclass"):
        # the co row is the sat row: no second space or weights
        assert len(spaces) == len(maps) == 1
        assert sum(maps[0].reads.values()) == len(spaces[0]) == \
            {"1": 8, "2": 104, "3": 7566}[command[-1]]


# The n = 3 CSVs, pinned to the bytes written while every space still
# held one witness sentence per renamed key: a key stands for 3! = 6
# sentences there, so a wrong renaming factor would show.
N3_DIGESTS = {
    "sat-oclass --n 3": "4289a4b548c19ec954d45b4f457d6868e95a9792056b2331257cf33b3fa5ba18",
    "markov-tail --n 3": "9fab5573285d06bd05ebad47aa894e0fc4ec397be243ce85678d3e85a19ee99a",
    "moments --n-list 1,2,3":
        "abf3127a41a49c86562180d16c69dae2192de1b48e7dc1d6a1bebf3055ed5846",
    "property-2-2 --n-list 1,2,3":
        "a640cf552d5f9cfd2681d804ddb251612fa790f00c11988f44311e4cac19f510",
    "property-2-3 --model sat --n-list 1,2,3":
        "c1c797dadc3756f91dcb1b90908c3712aa3f939e6a4ebb3556bab6d2e7d86ae0",
}


@pytest.mark.parametrize("command", sorted(N3_DIGESTS))
def test_n3_csv_bytes_match_recorded_digest(tmp_path, command):
    out = tmp_path / "out.csv"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == N3_DIGESTS[command]


@pytest.mark.parametrize("command", [
    *(c for c in [*json.loads(DIGESTS.read_text("utf-8")), *N3_DIGESTS]
      if c.startswith("moments")),
    "moments --m-list 1,2 --n-list 1", "moments --m-list 143", "moments --n-list 1 --m-list 500",
    # the costliest single entry the declarations admit
    "moments --m-list 500 --tol-exp 10000 --n-list 1,2,3",
])
def test_moments_total_admits_what_runs(command):
    # the bound over the entries refuses none of the tests' and the
    # benchmark's moments runs, nor any single entry
    from avgsat.commands.moments import MAX_MOMENTS_WORK, _moments_work
    opts = cli.Options(cli._parse(command.split()), {})
    assert _moments_work(opts.get("m_list"), opts.get("n_list"),
                         Fraction(1, 10 ** opts.get("tol_exp"))) <= MAX_MOMENTS_WORK


def test_moments_takes_each_cutoff_once(tmp_path):
    # admitting the run and summing each entry share the entry's cutoff
    moments._tail_cutoff.cache_clear()
    code, rows, _ = run(tmp_path, "moments", "--m-list", "2,3,500")
    assert code == 0 and [r["m"] for r in rows if r["kind"] == "sum"] == ["2", "3", "500"]
    info = moments._tail_cutoff.cache_info()
    assert (info.misses, info.hits) == (3, 3)


# The Shannon model's CSVs, pinned to the bytes written while
# tab-oclass summed its layers in closed form and property-2-3 held one
# item per slot.  At n = 12 the lhs denominator has 4,796 digits.
SHANNON_DIGESTS = {
    "--audit tab-oclass --model shannon --n-list 1,2,3,4,12":
        "b593c61dac1a4ca52fa35456dc4aa8f05ac0c7ac99fd26e4470421197709e665",
    "tab-oclass --model shannon --n-list 3,4":
        "c3320fe09dccd7f1189c384a49047c2df25b4482c4bf3691e7d629a5bee5c0d1",
    "property-2-3 --model shannon":
        "584a74d9661544577958216cdac4237ffc4cc8c07e65c3c5767df0f702ebb291",
    "property-2-3 --model shannon --n-list 3 --h-exponent 0":
        "52267ea8613c36144c3fd7e722d14aa770d8945ffb1cdbf145481f39e8bafc20",
    "property-2-3 --model shannon --n-list 4 --h-exponent 3":
        "f1b9ed9a55d31900114f4512e77e55787a37fb5fa28a2f2464f5a629a9ce66ce",
}


@pytest.mark.parametrize("command", sorted(SHANNON_DIGESTS))
def test_shannon_csv_bytes_match_recorded_digest(tmp_path, command):
    out = tmp_path / "out.csv"
    assert cli.main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHANNON_DIGESTS[command]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit:
        cli.main(["--help"])
    assert exit.value.code == 0
    listed = capsys.readouterr().out
    assert len(cli.COMMANDS) == 11
    assert all(name in listed for name in cli.COMMANDS)
    assert listed.count("{" + ",".join(cli.COMMANDS) + "}") == 2


def _answer(parse, argv, capsys):
    """(exit code or parsed arguments, stdout, stderr) of one parse."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, *capsys.readouterr()


# command lines that _read answers itself, without argparse
WELL_FORMED = [
    ["--out=o.csv", "markov-tail"], ["sat-oclass", "--n", "2", "--out=o.csv"],
    ["--seed", "1", "montecarlo", "--seed", "2"], ["--seed", "1", "montecarlo", "--n", "1"],
    ["--audit", "markov-tail", "--multiplier", "10", "--table", "montecarlo"],
    ["--out", "sat-oclass", "markov-tail"], ["montecarlo", "--exact-check", "--exact-check"],
    ["moments", "--n-list", "1,,2"], ["sat-oclass", "--table=-x"], ["sat-oclass", "--table="],
    ["tab-oclass", "--n", "3", "--n-list=3,4", "--model", "enumerated", "--n", "2"],
    ["tractability", "--eps", "1e-3", "--case=geometric"], ["--out", "", "expected-min"],
    *([name, *(arg for opt in cmd.options
               for arg in ([opt.flag] if opt.type is bool else [opt.flag, _accepted(opt)]))]
      for name, cmd in cli.COMMANDS.items()),
]


@pytest.mark.parametrize("argv", [
    *WELL_FORMED,
    *([name, "--help"] for name in cli.COMMANDS),
    [], ["--help"], ["-h", "sat-oclass"], ["--he", "markov-tail"], ["nope"],
    ["--out", "x.csv", "sat-oclass", "--n", "x"],
    ["sat-oclass", "--bogus", "3"], ["tab-oclass", "--model", "nope"],
    ["--seed", "x", "expected-min"], ["expected-min", "--n", "0", "extra"],
    ["--audit", "markov-tail", "--mult", "10", "--table", "montecarlo"],
    ["--conf", "c.cfg", "--out=o.csv", "property-2-2", "--n-list", "1,2"],
    ["montecarlo", "--n", "-1"], ["montecarlo", "--exact-check=1"], ["--audit=", "moments"],
    ["sat-oclass", "--table", "-x"], ["sat-oclass", "--n"], ["sat-oclass", "--n="],
    ["sat-oclass", "--", "--n", "2"], ["--n", "2", "sat-oclass"], ["sat-oclass", "markov-tail"],
    ["moments", "--n-list", "1,x"], ["--out", "-", "sat-oclass"], ["sat-oclass", "-n", "2"],
    ["", "sat-oclass"], ["sat-oclass", "", "--n", "1"],
], ids=lambda argv: " ".join(argv) or "none")
def test_one_command_parser_answers_as_the_full_parser(argv, capsys):
    # main parses a well-formed command line without argparse; its parse,
    # help, errors and exit codes must be the full parser's
    full = _answer(_build_parser().parse_args, argv, capsys)
    assert _answer(cli._parse, argv, capsys) == full


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_well_formed_command_line_is_read_without_argparse(argv):
    assert vars(cli._read(argv)) == vars(_build_parser().parse_args(argv))


def test_frac_writes_integers_past_the_digit_limit():
    # exact values, such as the Shannon model's lhs denominators at
    # n = 12 (4,796 digits), run past the interpreter's 4,300-digit
    # int-to-str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    num, den = cli._frac(Fraction(10 ** 4999 + 1, 3))
    assert num == "1" + "0" * 4998 + "1" and den == "3"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_float_writes_inf_past_the_float_range():
    assert cli._float(Fraction(7, 2)) == "3.5" and cli._float(3) == "3.0"
    assert cli._float(Fraction(5, 2) * 143 ** 144) == "inf"
    assert cli._float(-10 ** 400) == "-inf"
    assert cli._float(Fraction(-(10 ** 400), 3)) == "-inf"


def test_float_columns_past_the_float_range_read_inf(tmp_path):
    # the constant 2.5 * 143^144 is past the float range; its exact
    # columns are written in full
    code, rows, _ = run(tmp_path, "moments", "--m-list", "143")
    assert code == 0
    (total,) = [r for r in rows if r["kind"] == "sum"]
    assert total["rhs_float"] == "inf" and total["status"] == "pass"
    assert Fraction(int(total["rhs_num"]), int(total["rhs_den"])) == \
        moments.moment_oclass_constant(143)
    code, rows, _ = run(tmp_path, "property-2-2", "--n-list", "1", "--break-class", "1",
                        "--inflate", str(10 ** 400))
    assert code == 0
    oclass = next(r for r in rows if r["check"] == "oclass")
    assert oclass["lhs_float"] == "inf" and oclass["status"] == "expected_fail"


def _loaded_by_import(module, names):
    """Which of ``names`` a fresh interpreter has loaded after importing
    ``module``.  ``-S`` skips the site packages, whose ``.pth`` files may
    import modules (``random``, for one) before avgsat is imported."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (f"import sys, {module}; "
            f"print(','.join(m for m in {names!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=src, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_command_only_module():
    # the closed forms, the counting DP and the sample statistics serve
    # only some commands, and no command needs dataclasses (or the
    # inspect module it loads); startup should not pay for them
    unwanted = ["avgsat.analytic", "avgsat._counting", "statistics", "dataclasses",
                "inspect", "random"]
    assert _loaded_by_import("avgsat.cli", unwanted) == ""


def test_analytic_import_loads_no_dataclasses():
    assert _loaded_by_import("avgsat.analytic", ["dataclasses", "inspect"]) == ""


def _modules(argv=()):
    """The modules a fresh interpreter (``-S``, as above) holds after
    importing avgsat.cli and running the command argv, if any."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys, avgsat.cli; "
            f"code = avgsat.cli.main({list(argv)!r}) if {list(argv)!r} else 0; "
            "print(code, *sorted(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=src, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.split()
    assert code == "0", done.stderr
    return set(modules)


def _avgsat_modules(argv=()):
    """The avgsat modules of :func:`_modules`."""
    return {m for m in _modules(argv) if m.split(".")[0] == "avgsat"}


def _loaded_sources(argv=()):
    """The sources of the avgsat modules of :func:`_modules`: what a start
    with no bytecode cache compiles."""
    src = Path(cli.__file__).resolve().parent.parent
    for module in _avgsat_modules(argv):
        path = src.joinpath(*module.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        yield path.read_text(encoding="utf-8")


def _loaded_lines(argv=()):
    """The source lines of :func:`_loaded_sources`."""
    return sum(len(source.splitlines()) for source in _loaded_sources(argv))


def _loaded_statements(argv=()):
    """The statements of :func:`_loaded_sources`, which compile time
    follows more closely than lines: docstrings and comments cost little."""
    return sum(isinstance(node, ast.stmt) for source in _loaded_sources(argv)
               for node in ast.walk(ast.parse(source)))


def test_import_loads_only_the_core():
    assert _avgsat_modules() == {"avgsat", "avgsat.cli", "avgsat.errors"}


@pytest.fixture(scope="module")
def benchmark_modules(tmp_path_factory):
    """The modules a fresh interpreter (``-S``) holds after importing
    avgsat.cli and running every benchmark command in turn, each of
    which must exit 0."""
    commands = [c.format(seed=1).split() for c in json.loads(DIGESTS.read_text("utf-8"))]
    out = str(tmp_path_factory.mktemp("bench") / "out.csv")
    code = ("import sys, avgsat.cli; "
            f"codes = [avgsat.cli.main([*argv, '--out', {out!r}]) for argv in {commands!r}]; "
            "print(*codes); print(*sys.modules)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=src, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    codes, modules = done.stdout.splitlines()
    assert codes.split() == ["0"] * len(commands)
    return set(modules.split())


def test_benchmark_commands_load_no_argparse(benchmark_modules, capsys, monkeypatch):
    # a well-formed command line is read from the declarations; argparse
    # (and its gettext) loads only to answer help or an error
    assert "argparse" not in benchmark_modules
    # help is wrapped to the width COLUMNS gives
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(cli.__file__).resolve().parent.parent)
    for argv in (["--help"], ["sat-oclass", "--bogus", "3"]):
        done = subprocess.run([sys.executable, "-S", "-m", "avgsat", *argv], cwd=src,
                              timeout=60, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == \
            _answer(_build_parser().parse_args, argv, capsys)


def test_benchmark_commands_load_no_dataclasses(benchmark_modules):
    # the frozen dataclasses are the sentence objects, which no command
    # builds; dataclasses loads inspect and runs generated code per class
    assert not benchmark_modules & {"dataclasses", "inspect"}


# the sentence-object API, which the commands read through keys alone
SENTENCE_API = {"avgsat.formula"}
# what no exact command runs: the sentence objects with the enumeration
# and evaluation of code sequences, the weightings that no command
# builds, and the table text format and families (no --table file here)
NOT_EXACT = SENTENCE_API | {"avgsat.weighting", "avgsat.tables"}

EXACT_COMMANDS = ["sat-oclass --n 1", "property-2-2 --n-list 1", "moments --n-list 1",
                  "markov-tail --n 1", "property-2-3 --model sat --n-list 1",
                  "tab-oclass --model enumerated --n-list 1 --max-tokens 5"]

# the avgsat source lines each exact or sampling command compiles
# (``python -S``): the count once each exact command had a module of its
# own, with the checks it alone runs, plus a margin of about 2%.  With
# one module for all six, the counted-space commands compiled 1,823 lines
# (moments 1,898) and the Shannon-model ones 1,841; before that, 2,210
# (moments 2,563) and 2,287.  The sampling ones compiled 1,556
# (montecarlo --exact-check) and 1,375 (explore-min); with one draw
# loop that sizes its own rounds, 1,534 and 1,357.  The series commands
# the benchmark runs compiled 828 (tractability) and 1,397 (counting);
# with the trend scan over a start and a count, and one census builder,
# 800 and 1,337.  With the connective a named tuple and the sentence
# objects' frozen base gone, every command that reads a table compiled
# 46 to 54 lines fewer (sat-oclass 1,440, now 1,394); with no rejection
# budget, the sampling ones 1,472 and 1,292 (1,483 and 1,303 before).
# With the connective tables in _kernel and the moment sums in their
# command, every command that reads a table compiled 15 to 20 lines fewer
# (sat-oclass 1,378) and moments 33 fewer (1,471); tractability, which
# loads errors and no table, 5 more (805).  With the oracles that no
# command runs moved to the tests and the census reading arities, not a
# table, the Shannon-model commands compiled 82 fewer (1,351 and 1,323),
# counting 203 fewer (1,061), explore-min 12 and montecarlo 1 fewer (the
# walk's codes gone), and moments 4 more (its cutoff memoised)
LINE_BUDGETS = {
    "sat-oclass --n 1": 1405,
    "property-2-2 --n-list 1": 1470,
    "moments --n-list 1": 1505,
    "markov-tail --n 1": 1415,
    "property-2-3 --model sat --n-list 1": 1445,
    "tab-oclass --model enumerated --n-list 1 --max-tokens 5": 1475,
    "tab-oclass --n-list 3": 1380,
    "property-2-3 --model shannon": 1350,
    "montecarlo --n 2 --max-tokens 8 --samples 2000 --exact-check": 1485,
    "explore-min --target-tokens 7 --samples 50": 1290,
    "tractability --case harmonic --budget 2000": 815,
    "counting --n-max 4 --enum-limit 2": 1085,
}
# the statements of the same sources, plus about 2%; with one module for
# all six exact commands, each compiled 946 (moments 991), and the
# sampling ones 824 and 717, now 800 and 697; tractability and counting
# compiled 380 and 671, now 360 and 631; with the connective a named
# tuple, every command that reads a table compiled 31 to 35 fewer
# (sat-oclass 708, now 677); with no rejection budget, the sampling ones
# 763 and 657 (768 and 662 before); with the tables in _kernel and the
# moment sums in their command, 2 or 3 fewer (sat-oclass 674) and
# moments 11 fewer (728), tractability 3 more (363); with the oracles in
# the tests, the Shannon-model commands 39 fewer (623 and 606), counting
# 111 fewer (483), explore-min 8 and montecarlo 1 fewer, moments 1 more
STATEMENT_BUDGETS = {
    "sat-oclass --n 1": 690,
    "property-2-2 --n-list 1": 720,
    "moments --n-list 1": 745,
    "markov-tail --n 1": 695,
    "property-2-3 --model sat --n-list 1": 705,
    "tab-oclass --model enumerated --n-list 1 --max-tokens 5": 725,
    "tab-oclass --n-list 3": 635,
    "property-2-3 --model shannon": 620,
    "montecarlo --n 2 --max-tokens 8 --samples 2000 --exact-check": 775,
    "explore-min --target-tokens 7 --samples 50": 660,
    "tractability --case harmonic --budget 2000": 367,
    "counting --n-max 4 --enum-limit 2": 495,
}


@pytest.mark.parametrize("command, unwanted", [
    *((command, NOT_EXACT) for command in EXACT_COMMANDS),
    ("tractability --budget 2000",
     NOT_EXACT | {"avgsat.measure", "avgsat._kernel", "avgsat.engines", "avgsat._counting",
                  "avgsat.analytic"}),
    ("explore-min --target-tokens 7 --samples 50", {"avgsat.measure"}),
    ("counting --n-max 4 --enum-limit 2", {"avgsat.measure", "avgsat.tables"}),
    ("expected-min --n 2", {"avgsat.measure", "avgsat._kernel"}),
    # the Shannon model builds no counted space
    ("tab-oclass --n-list 3", NOT_EXACT | {"avgsat._counting"}),
    ("property-2-3 --model shannon", NOT_EXACT | {"avgsat._counting"}),
    ("montecarlo --n 2 --max-tokens 8 --samples 2000 --exact-check", {"avgsat.measure"}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_command_loads_only_what_it_runs(tmp_path, command, unwanted):
    argv = [*command.split(), "--out", str(tmp_path / "out.csv")]
    modules = _avgsat_modules(argv)
    assert not modules & unwanted
    # its own body, and no other command's
    target = cli.COMMANDS[command.split()[0]].target.partition(":")[0]
    assert {m for m in modules if m.startswith("avgsat.commands.")} == {target}


@pytest.mark.parametrize("command", sorted(LINE_BUDGETS))
def test_command_compiles_within_its_line_budget(tmp_path, command):
    argv = [*command.split(), "--out", str(tmp_path / "out.csv")]
    assert _loaded_lines(argv) <= LINE_BUDGETS[command]


@pytest.mark.parametrize("command", sorted(STATEMENT_BUDGETS))
def test_command_compiles_within_its_statement_budget(tmp_path, command):
    argv = [*command.split(), "--out", str(tmp_path / "out.csv")]
    assert _loaded_statements(argv) <= STATEMENT_BUDGETS[command]


def test_import_compiles_only_the_declarations():
    # cli and errors; the --config reader and the full parser load only
    # when they run (452 lines and 208 statements while they did not)
    assert _loaded_lines() <= 420 and _loaded_statements() <= 185


def test_kernel_defines_only_the_shared_primitives(tmp_path):
    # the connective tables and what the counting DP, the sampling walk
    # and the census share; each definition that one module alone calls
    # lives in that module, and running a command adds none here
    from avgsat import _kernel
    for command in EXACT_COMMANDS:
        cli.main([*command.split(), "--out", str(tmp_path / "out.csv")])
    defined = {name for name, value in vars(_kernel).items()
               if getattr(value, "__module__", None) == _kernel.__name__}
    assert defined == {"Connective", "ConnectiveTable", "var_mask", "_anf", "_apply",
                       "completion_counts", "alpha_count", "__getattr__"}


@pytest.mark.parametrize("command", [
    "montecarlo --n 2 --max-tokens 8 --samples 2000 --exact-check",
    "montecarlo --n 2 --max-tokens 7 --exhaustive",
    "explore-min --target-tokens 9 --samples 500",
    "tractability --case harmonic --budget 2000",
])
def test_integer_and_float_runs_load_no_fractions(tmp_path, command):
    # an exact mean is a quotient of integer sums, and the harmonic scan
    # is all floats: neither needs measure's Fraction layer, fractions
    # (which loads decimal) or typing
    modules = _modules([*command.split(), "--out", str(tmp_path / "out.csv")])
    assert not modules & {"avgsat.measure", "fractions", "decimal", "typing"}


@pytest.mark.parametrize("command", [*EXACT_COMMANDS, "counting --n-max 4 --enum-limit 2",
                                     "tab-oclass --model shannon --n-list 3"])
def test_counted_space_exact_commands_load_no_typing(tmp_path, command):
    # their records, analytic's too, are collections.namedtuple
    # subclasses, and their annotations name collections.abc
    assert "typing" not in _modules([*command.split(), "--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_command_target_resolves(name):
    assert callable(cli.COMMANDS[name].load())


def test_tractability_choices_are_its_cases():
    from avgsat.commands import series
    (case,) = [o for o in cli.COMMANDS["tractability"].options if o.name == "case"]
    assert case.choices == tuple(sorted(series._CASES))
    # every default budget is one the case accepts
    assert all(1 <= c["budget"] <= c["limit"] for c in series._CASES.values())


def test_harmonic_float_indices_square_exactly():
    # every index the harmonic case scans has n * n exact in a float
    from avgsat.commands import series
    case = series._CASES["harmonic"]
    assert (case["start"] + case["limit"]) ** 2 <= 2 ** 53


# budgets at the edges of the 0.1% prefix and of the 10-step tail window
@pytest.mark.parametrize("budget, eps, window", [
    *(pytest.param(b, 1e-12, 10, id=str(b))
      for b in (1, 2, 10, 11, 12, 50, 999, 1000, 1001, 1999, 2000, 20000, 100_007,
                10 ** 6)),
    pytest.param(5000, 1e-3, 10, id="5000-eps-1e-3"),
    pytest.param(1000, 1e-12, 0, id="1000-window-0"),
])
def test_harmonic_float_scan_is_the_int_scan(budget, eps, window, monkeypatch):
    # the written-out step does the generic step's operations on float
    # classes, and those round as they do on ints; at 50 the segment
    # (10, 40] falls back to the class-by-class partials, and 10^6 is
    # the scan the benchmark runs
    from avgsat import trend
    from avgsat.commands import series
    monkeypatch.setattr(trend, "TAIL_WINDOW", window)
    case = series._CASES["harmonic"]
    start = case["start"]
    mu = lambda n: 1.0 / (n * n)
    scans = [trend.tractability(case["step"], start, budget, eps),
             trend.tractability(trend.terms(float, mu), start, budget, eps),
             trend.tractability(trend.terms(lambda n: n, mu), int(start), budget, eps)]
    assert len({res.verdict for res in scans}) == 1
    bits = [[(k, v.hex()) for k, v in res.checkpoints.items()] for res in scans]
    assert bits[0] == bits[1] == bits[2]
    assert all(type(v) is float for v in scans[0].checkpoints.values())


def _harmonic_segment(num, den, first, last):
    """The sums after classes first to last, as the harmonic step adds
    them, and the exact quotient after each class."""
    partials = []
    for x in map(float, range(first, last + 1)):
        w = 1.0 / (x * x)
        num += x * w
        den += w
        partials.append(Fraction(num) / Fraction(den))
    return num, den, partials


# the bound proves a rise while, roughly, num / den0 <= first^2 / (2 last)
@pytest.mark.parametrize("num0, den0, first, last, rises, proved", [
    # the quotient starts above the indices: every class pulls it down
    (100.0, 1.0, 2, 10, False, False),
    (5000.0, 1.64, 1001, 1010, False, False),
    # it rises, but by less than the bound's margin
    (6.0, 1.0, 10, 10, True, False),
    (800.0, 1.6, 1001, 1100, True, False),
    (736.0, 1.6, 1001, 1100, True, False),
    # far enough below the indices, the bound proves the rise
    (2.0, 1.0, 10, 10, True, True),
    (7.0, 1.6, 1001, 1100, True, True),
    (720.0, 1.6, 1001, 1100, True, True),
])
def test_harmonic_bound_refuses_what_it_cannot_prove(num0, den0, first, last, rises, proved):
    from avgsat.commands import series
    num, den, partials = _harmonic_segment(num0, den0, first, last)
    quotients = [Fraction(num0) / Fraction(den0), *partials]
    assert all(map(operator.le, quotients, quotients[1:])) == rises
    assert series._rises(num0, den0, num, den, float(first), float(last)) == proved


def test_harmonic_scan_proves_every_segment_past_100(monkeypatch):
    # at the default budget only (1, 10] and (10, 100] fall back, and the
    # first class, whose sums start at 0, asks nothing
    from avgsat import trend
    from avgsat.commands import series
    asked = []
    rises = series._rises

    def spy(*args):
        proved = rises(*args)
        asked.append((int(args[4]), int(args[5]), proved))
        return proved
    monkeypatch.setattr(series, "_rises", spy)
    case = series._CASES["harmonic"]
    res = trend.tractability(case["step"], case["start"], case["budget"])
    assert res.verdict.value == case["expect"]
    tail = case["budget"] - 9
    assert asked == [(2, 10, False), (11, 100, False), (101, 1000, True),
                     (1001, 10 ** 4, True), (10 ** 4 + 1, 10 ** 5, True),
                     (10 ** 5 + 1, tail - 1, True),
                     *((k, k, True) for k in range(tail, case["budget"] + 1))]


def test_harmonic_float_counter_is_exact():
    # the harmonic case starts at a float, so the scan counts in floats,
    # each the one before plus 1.0, exact within 2^53: the last class of
    # its longest scan is 10^7
    from collections import deque
    from avgsat import trend
    from avgsat.commands import series
    case = series._CASES["harmonic"]
    last = deque(maxlen=1)

    def step(xs, num, den, prev, monotone):
        last.extend(xs)
        return num, den, 1.0, monotone
    trend.tractability(step, case["start"], case["limit"])
    assert type(last[0]) is float and last[0] == 10 ** 7


@pytest.mark.parametrize("values", [
    [7], [3, 3, 3], [0, 1], [16, 32, 32, 112, 48], list(range(0, 3000, 7)),
    [10 ** 12 + k * k for k in range(50)], [2 ** 60, 1, 2 ** 61],
], ids=["one", "no-spread", "two", "scan-times", "range", "wide", "huge"])
def test_mean_stderr_matches_statistics(values):
    # fmean and the correctly rounded stdev of Python 3.11, from integer sums
    import statistics
    floats = [float(v) for v in values]
    se = statistics.stdev(floats) / len(floats) ** 0.5 if len(floats) > 1 else 0.0
    got = sampling._mean_stderr(len(values), sum(values), sum(v * v for v in values))
    if sys.version_info >= (3, 11):
        assert got == (statistics.fmean(floats), se)
    else:   # 3.10's stdev rounds the variance before its square root
        assert got[0] == statistics.fmean(floats) and got[1] == pytest.approx(se)


# --exhaustive rows, pinned to the bytes written when it still expanded
# one value per sentence
@pytest.mark.parametrize("command, row", [
    ("--n 1 --max-tokens 5", "sat,1,5,33,0,145.45454545454547,11.224726738683962,"
     "145.45454545454547,,pass"),
    ("--n 1 --max-tokens 9", "sat,1,9,2849,0,287.0789750789751,2.3023400573447588,"
     "287.0789750789751,,pass"),
    ("--n 2 --max-tokens 8", "sat,2,8,7392,0,324.66017316017314,2.352185699332578,"
     "324.66017316017314,,pass"),
    ("--n 2 --max-tokens 10", "sat,2,10,146976,0,420.975070759852,0.6749460845406509,"
     "420.975070759852,,pass"),
    ("--n 3 --max-tokens 9", "sat,3,9,91488,0,546.1369359916055,1.3170003795264045,"
     "546.1369359916055,,pass"),
    ("--n 3 --max-tokens 10", "sat,3,10,520896,0,571.2453004054552,0.6457969113017357,"
     "571.2453004054552,,pass"),
    ("--n 3 --max-tokens 11", "sat,3,11,3071136,0,653.5205213966428,0.28885662216517854,"
     "653.5205213966428,,pass"),
], ids=["n1-5", "n1-9", "n2-8", "n2-10", "n3-9", "n3-10", "n3-11"])
def test_exhaustive_row_matches_recorded_bytes(tmp_path, command, row):
    out = tmp_path / "out.csv"
    assert cli.main(["montecarlo", "--exhaustive", *command.split(), "--out", str(out)]) == 0
    assert out.read_bytes().decode("utf-8").splitlines()[1:] == [row]


def test_exhaustive_memory_does_not_grow_with_the_space(tmp_path):
    # 3,071,136 sentences: one float each would hold about 94 MB; the
    # sums run over the space's keys
    import tracemalloc
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code = cli.main(["montecarlo", "--exhaustive", "--n", "3", "--max-tokens", "11",
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2 ** 20
