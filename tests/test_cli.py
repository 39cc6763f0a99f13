import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreath_identity import cli, geometry, identity, poly
from wreath_identity.cli import main
from wreath_identity.geometry import figure_grid
from wreath_identity.poly import expand_denominator
from wreath_identity.wreath import (
    ColoredPermutation,
    EpsilonVector,
    col,
    des,
    descent_set,
    g_epsilon,
    group_order,
    maj,
    numerator,
)

from golden import DES_101, FIGURE_R2_K1, FIGURE_R2_K2, clear_caches, tuple_order_descents

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "2", "--n", "2", "--t-cap", "5")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["claim"] == "theorem"
    assert reports[0]["status"] == "pass"
    assert reports[0]["params"] == {"r": 2, "n": 2, "t_cap": 5}
    assert reports[0]["counterexample"] is None


def test_verify_rejects_nonpositive_r(capsys):
    code, out, err = run_cli(capsys, "verify", "--r", "0", "--n", "2")
    assert code == 2
    assert not out
    assert "error" in err


def test_verify_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "--r", "3", "--n", "4", "--budget", "100")
    assert code == 3
    assert "budget" in err
    # A usage error wins over the up-front budget refusal.
    code, _, err = run_cli(capsys, "verify", "--r", "3", "--n", "7", "--t-cap", "-1")
    assert code == 2
    assert "--t-cap" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--r", "0", "--n", "0", "--budget", "0"), "--r must be >= 1, got 0"),
        (("table", "--r", "1", "--n", "-2", "--t-cap", "-1"), "--n must be >= 1, got -2"),
        (("verify", "--r", "1", "--n", "2", "--t-cap", "-1", "--budget", "0"),
         "--t-cap must be >= 0, got -1"),
        (("decompose", "--r", "1", "--n", "2", "--budget", "-5", "--k", "-1"),
         "--budget must be >= 1, got -5"),
        (("figure", "--r", "1", "--n", "2", "--k", "-1"), "--k must be >= 0, got -1"),
    ],
    ids=["r", "n", "t-cap", "budget", "k"],
)
def test_usage_errors_name_the_first_bad_flag(capsys, argv, message):
    # Flags are checked in the order r, n, t-cap, budget, k.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--r", "1", "--n", "1559"), "group order 1^1559 * 1559! exceeds"),
        (("verify", "--r", "2", "--n", "1000000"),
         "group order 2^1000000 * 1000000! exceeds"),
        (("table", "--r", "2", "--n", "5000"), "group order 2^5000 * 5000! exceeds"),
        (("decompose", "--r", "1", "--n", "20000", "--k", "1"),
         "grid of (1*1 + 1)^20000 points exceeds"),
    ],
    ids=["verify", "verify-huge", "table", "decompose"],
)
def test_a_count_past_4300_digits_is_refused_by_its_formula(capsys, argv, message):
    # str() refuses such a count, so the refusal names it without building it.
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message} budget 10000000\n"


def test_a_count_of_4300_digits_is_refused_in_full(capsys):
    code, _, err = run_cli(capsys, "verify", "--r", "1", "--n", "1558")
    assert code == 3
    count = err.removeprefix("error: group order ").partition(" ")[0]
    assert len(count) == 4300 and int(count) == group_order(1, 1558)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7"
)
def test_a_count_past_a_lowered_digit_limit_is_refused_by_its_formula(capsys):
    # 300! has 615 digits and 400! has 869; at the least limit, 640, only
    # the first prints.  With no limit, refusals print at most 4300 digits.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        below = run_cli(capsys, "verify", "--r", "1", "--n", "300")
        past = run_cli(capsys, "verify", "--r", "1", "--n", "400")
        sys.set_int_max_str_digits(0)
        unlimited = run_cli(capsys, "verify", "--r", "1", "--n", "1558")
        beyond = run_cli(capsys, "verify", "--r", "1", "--n", "1559")
    finally:
        sys.set_int_max_str_digits(limit)
    assert below[:2] == past[:2] == unlimited[:2] == beyond[:2] == (3, "")
    count = below[2].removeprefix("error: group order ").partition(" ")[0]
    assert len(count) == 615 and int(count) == group_order(1, 300)
    assert past[2] == "error: group order 1^400 * 400! exceeds budget 10000000\n"
    assert len(unlimited[2].removeprefix("error: group order ").partition(" ")[0]) == 4300
    assert beyond[2] == "error: group order 1^1559 * 1559! exceeds budget 10000000\n"


def test_verify_refuses_before_any_step(capsys, monkeypatch):
    def cone_sum(*args):
        raise AssertionError("a cone sum ran before the budget refusal")

    monkeypatch.setattr(geometry, "cone_sum", cone_sum)
    code, out, err = run_cli(
        capsys, "verify", "--all-steps", "--r", "3", "--n", "5", "--budget", "1000"
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_verify_all_steps_refuses_a_cone_over_budget_up_front(capsys, monkeypatch):
    # The theorem alone fits: 2^3 * 3! = 48 elements.
    code, _, _ = run_cli(capsys, "verify", "--r", "2", "--n", "3", "--budget", "60")
    assert code == 0

    def descent_masks(*args):
        raise AssertionError("a step ran before the cone budget refusal")

    monkeypatch.setattr(identity, "_descent_masks", descent_masks)
    code, out, err = run_cli(
        capsys, "verify", "--all-steps", "--r", "2", "--n", "3", "--budget", "60"
    )
    assert code == 3
    assert out == ""
    assert "slice of size up to 64 exceeds budget 60" in err


def test_verify_coefficient_overflow_exits_3(capsys, monkeypatch):
    # The right side num / denom agrees with the left side up to t^6, so a
    # verify run must build its largest coefficient.
    rhs = numerator(2, 3, 6) * expand_denominator(3, 6)
    largest = max(abs(c) for c in rhs.terms.values())
    monkeypatch.setattr(poly, "INT64_MAX", largest - 1)
    clear_caches()
    code, out, err = run_cli(capsys, "verify", "--r", "2", "--n", "3")
    assert code == 3
    assert out == ""
    assert "outside signed 64-bit range" in err


def test_verify_all_steps(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "2", "--n", "2", "--t-cap", "4", "--all-steps"
    )
    assert code == 0
    reports = json.loads(out)
    claims = [rep["claim"] for rep in reports]
    assert claims[0] == "same_support"
    assert claims[-1] == "theorem"
    assert claims.count("descent_shift") == 3  # l = 0, 1, 2
    assert claims.count("few_colors") == 3
    assert claims.count("cone_generating_function") == 4  # every eps in Z_2^2
    assert claims.count("triple_preserving") == 3  # one per color multiset
    assert all(rep["status"] == "pass" for rep in reports)


def test_verify_all_steps_r1_skips_colored_cases(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "1", "--n", "2", "--all-steps"
    )
    assert code == 0
    reports = json.loads(out)
    claims = [rep["claim"] for rep in reports]
    assert claims.count("descent_shift") == 1  # only l = 0
    assert all(rep["status"] == "pass" for rep in reports)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_verify_failing_report(capsys, monkeypatch, fmt):
    # One q*t too many on the right side: the theorem fails at that monomial.
    def wrong(*args):
        true = numerator(*args)
        return true + poly.TruncatedPoly.term(true.t_cap, 1, q=1, t=1)

    monkeypatch.setattr(identity, "numerator", wrong)
    code, out, err = run_cli(capsys, "verify", "--r", "2", "--n", "2", "--format", fmt)
    assert code == 1, err
    cex = {"monomial": {"q": 1, "t": 1, "u": 0}, "lhs": 2, "rhs": 3}
    if fmt == "json":
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        [report] = json.loads(out)
        assert (report["status"], report["counterexample"]) == ("fail", cex)
    else:
        header, line = out.splitlines()
        claim, status, params, counterexample, elapsed = line.split("\t")
        assert (claim, status, elapsed) == ("theorem", "fail", "0.0")
        assert counterexample == json.dumps(cex, separators=(",", ":"))


def test_verify_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "2", "--n", "1", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim\tstatus\tparams\tcounterexample\telapsed_ms"
    assert lines[1].startswith("theorem\tpass\t")


# sha256 of stdout per command and format: output is pinned byte for byte,
# so a change to any emitter or to the order of records shows here.  The
# r = 3 table is the one case where two positive colors of one value tie.
STDOUT_SHA256 = {
    ("verify --r 2 --n 3", "json"): "e4de9974bf13485bcee43018275029f9c4562cbde55ae6e9a69730c23f9558eb",
    ("verify --r 2 --n 3", "tsv"): "f5f772a3dcabf68a0e90e91a1e38d19b7b96cb8207d2b7c1387bb59201aeb2de",
    ("verify --all-steps --r 2 --n 3", "json"): "055edaaffcf350d633e82914183501818b7b6799c50f82c52c23611c9e6a8c81",
    ("verify --all-steps --r 2 --n 3", "tsv"): "bcd63501d5dd8b4cc0dae3b4a6de5b6772e35260cffe8213272f54cadcff1883",
    ("table --r 2 --n 3", "json"): "699c9ba113cfb513b5740497702100dec53db99d2eb3c60c50d02957556596d4",
    ("table --r 2 --n 3", "tsv"): "74bfdc1ca84d90b62a2d3fde8cd15c9afd727ccb6fa1f9d5f78024e8863cd8ba",
    ("table --r 3 --n 4", "json"): "33fd8a7d630b91692466ee174682b7dd3bd9616837e06f7c62bd9abc6be40498",
    ("table --r 3 --n 4", "tsv"): "5fc77b5c13874f0aa1484dbca08edc07a3c8dfd9704ab04f0284ae17273446ca",
    ("table --r 2 --n 5", "json"): "bf7877e4b9005844c7ad84e6313b90f0942c2d9fb79ad2fe6699aa494df25b1e",
    ("table --r 2 --n 5", "tsv"): "29de6d004de87345b4847792774d9f9362dd8ec72a3060b6365858858628ab7e",
    ("table --r 3 --n 3 --filter-eps 1,0,1", "json"): "e3eeb124972cc128b3197a1327f702e9a11b46470ad1cd46ec1769587aa6bea4",
    ("table --r 3 --n 3 --filter-eps 1,0,1", "tsv"): "153e71ac7d8b454369c64f5558814f5a57b3b59118ba043c406f978978397345",
    ("table --r 3 --n 4 --filter-eps 2,0,1,1", "json"): "c24435bbbbfd8726a113c12fdb6ef034efe48546548040d8cec4cd22c4bbe468",
    ("table --r 3 --n 4 --filter-eps 2,0,1,1", "tsv"): "364caabb1ace06bd365d2e1e783499abe9babb4143a3fe220cb49162b304da31",
    ("figure --r 2 --n 2 --k 2", "json"): "4d6f8ecd8d7b5bce1672156844e899b09feb5cac4e470db03cbf163dbe9f4dfa",
    ("figure --r 2 --n 2 --k 2", "tsv"): "d68d3b5580a2d3e8a4327f6b710cf9001f111717bc44ef0e32cc3b0fefd32111",
    ("decompose --r 2 --n 3 --k 2", "json"): "ace363796b9a3c247e7c1b83846f0c0e0c7122c12ada4033d254c44f76ebb52d",
    ("decompose --r 2 --n 3 --k 2", "tsv"): "e6128dbba4bf44f89e991eed7f2d806755d977e2b84fe328e01c52e489659562",
}


@pytest.mark.parametrize(
    "command,fmt,digest",
    [(command, fmt, digest) for (command, fmt), digest in STDOUT_SHA256.items()],
    ids=[f"{command} {fmt}" for command, fmt in STDOUT_SHA256],
)
def test_stdout_golden_sha256(capsys, command, fmt, digest):
    code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# -- the JSON writer ---------------------------------------------------------------

# Quotes, backslashes, control characters and non-ASCII text, plus anything.
JSON_TEXT = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\xe9\u20ac\u2028\U0001f600') | st.characters()
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**63) - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_TEXT,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(JSON_TEXT, children),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_indented_writer_matches_json_dumps(value):
    assert cli._indented([value], "\n") == json.dumps([value], indent=2)


@pytest.mark.parametrize(
    "command",
    [
        "table --r 3 --n 4",
        "figure --r 3 --n 2 --k 4",
        "decompose --r 2 --n 3 --k 2",
        "verify --all-steps --r 2 --n 3",
    ],
)
def test_json_output_is_json_dumps_indent_2(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_output_is_deterministic(capsys):
    argv = ("verify", "--r", "2", "--n", "2", "--all-steps")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# -- table -------------------------------------------------------------------------


def test_table_two_colors_one_letter(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "2", "--n", "1")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"window": "[1^0]", "Des": [], "maj": 0, "des": 0, "col": 0},
        {"window": "[1^1]", "Des": [0], "maj": 0, "des": 1, "col": 1},
    ]


def test_table_filter_eps_reproduces_golden_listing(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--r", "3", "--n", "3", "--filter-eps", "1,0,1"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert {row["window"]: set(row["Des"]) for row in rows} == DES_101


def test_table_r1_is_classical(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "1", "--n", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(row["col"] == 0 for row in rows)
    by_window = {row["window"]: row for row in rows}
    assert by_window["[3^0 2^0 1^0]"]["Des"] == [1, 2]
    assert by_window["[1^0 2^0 3^0]"]["Des"] == []


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_table_rows_match_window_statistics(capsys, r):
    # table takes descents once per descent pattern and support; r = 4
    # folds three positive colors onto each colored letter of a support.
    for n in range(1, 4 if r == 4 else 5):
        code, out, _ = run_cli(capsys, "table", "--r", str(r), "--n", str(n))
        assert code == 0
        for row in json.loads(out):
            w = ColoredPermutation.parse(row["window"])
            assert row["maj"] == maj(w), row
            assert row["des"] == des(w), row
            assert row["col"] == col(w), row
            assert row["Des"] == sorted(tuple_order_descents(w)), row


@pytest.mark.parametrize("r", [2, 3, 4])
def test_table_filter_eps_rows_match_g_epsilon(capsys, r):
    for n in range(1, 4):
        for colors in itertools.product(range(r), repeat=n):
            eps = ",".join(map(str, colors))
            code, out, _ = run_cli(
                capsys, "table", "--r", str(r), "--n", str(n), "--filter-eps", eps
            )
            assert code == 0
            expected = []
            for w in g_epsilon(EpsilonVector(colors)):
                descents = sorted(descent_set(w))
                expected.append(
                    {
                        "window": w.window_str(),
                        "Des": descents,
                        "maj": sum(descents),
                        "des": len(descents),
                        "col": col(w),
                    }
                )
            assert json.loads(out) == expected, eps


def table_oracle(r, n, fmt, eps=None, perms=None):
    """table's stdout built row by row: one record and one descent_set per window.

    Windows come pi by pi, in lexicographic order unless ``perms`` is given,
    and for each pi every color vector in lexicographic order, or only the
    colors of ``eps`` (indexed by letter) when it is given.
    """
    records = []
    for pi in perms or itertools.permutations(range(1, n + 1)):
        if eps is None:
            vectors = itertools.product(range(r), repeat=n)
        else:
            vectors = [tuple(eps[v - 1] for v in pi)]
        for colors in vectors:
            w = ColoredPermutation(pi, colors)
            descents = sorted(descent_set(w))
            records.append(
                {
                    "window": w.window_str(),
                    "Des": descents,
                    "maj": sum(descents),
                    "des": len(descents),
                    "col": col(w),
                }
            )
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    lines = ["window\tDes\tmaj\tdes\tcol"]
    for d in records:
        des_text = json.dumps(d["Des"], separators=(",", ":"))
        lines.append(f"{d['window']}\t{des_text}\t{d['maj']}\t{d['des']}\t{d['col']}")
    return "".join(line + "\n" for line in lines)


# Every character table may print: no slot or pad character of a block leaks.
TABLE_CHARS = set(map(chr, range(32, 127))) | {"\t", "\n"}


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize(
    "r,n",
    [(r, n) for r in range(1, 5) for n in range(1, 5)] + [(2, 5), (3, 5), (11, 2), (12, 1)],
)
def test_table_matches_row_by_row_oracle(capsys, r, n, fmt):
    code, out, err = run_cli(capsys, "table", "--r", str(r), "--n", str(n), "--format", fmt)
    assert code == 0, err
    assert out == table_oracle(r, n, fmt)
    assert set(out) <= TABLE_CHARS


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_table_filter_eps_matches_row_by_row_oracle(capsys, r, fmt):
    for n in range(1, 4):
        for eps in itertools.product(range(r), repeat=n):
            argv = ["table", "--r", str(r), "--n", str(n), "--format", fmt]
            code, out, err = run_cli(capsys, *argv, "--filter-eps", ",".join(map(str, eps)))
            assert code == 0, err
            assert out == table_oracle(r, n, fmt, eps), eps
            assert set(out) <= TABLE_CHARS


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_table_filter_eps_with_two_digit_colors_matches_the_oracle(capsys, fmt):
    argv = ["table", "--r", "12", "--n", "3", "--format", fmt, "--filter-eps", "11,0,10"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == table_oracle(12, 3, fmt, (11, 0, 10))


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("r,eps", [(2, None), (13, (12, 0, 3, 10, 1, 11, 0, 9, 2, 12, 5, 10))])
def test_table_text_fills_two_digit_letters_and_colors(fmt, r, eps):
    # n >= 10 has at least 10! rows, too many for a CLI test: fill one pi's
    # block whose letters 1..9 pad their tens slot, and (eps) whose colors
    # 0..9 pad theirs, and 12 letters with 2-digit colors need 48 slots.
    pi = (10, 3, 12, 1, 7, 11, 2, 9, 4, 8, 6, 5)
    out = cli._table_text(fmt, r, 12, [pi], eps)
    assert out == table_oracle(r, 12, fmt, eps, perms=[pi])
    colors = (0,) * 12 if eps is None else tuple(eps[v - 1] for v in pi)
    window = ColoredPermutation(pi, colors).window_str()
    assert (window in out) and set(out) <= TABLE_CHARS


@st.composite
def same_pattern_windows(draw):
    """Two windows whose pi have one descent pattern, with colors of one support."""
    n = draw(st.integers(1, 8))
    pi = draw(st.permutations(range(1, n + 1)))
    # A walk that steps down exactly where pi does has pi's pattern, and so
    # has its ranking; ties between non-adjacent steps go to position.
    heights = [0]
    for a, b in zip(pi, pi[1:]):
        step = draw(st.integers(1, 50))
        heights.append(heights[-1] - step if a > b else heights[-1] + step)
    order = sorted(range(n), key=lambda i: (heights[i], i))
    other = [0] * n
    for rank, i in enumerate(order, 1):
        other[i] = rank
    support = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    colors = [
        [draw(st.integers(1, 4)) if bit else 0 for bit in support] for _ in range(2)
    ]
    return (
        ColoredPermutation(tuple(pi), tuple(colors[0])),
        ColoredPermutation(tuple(other), tuple(colors[1])),
    )


@given(same_pattern_windows())
def test_descent_set_depends_only_on_pattern_and_support(windows):
    first, second = windows
    pattern = [a > b for a, b in zip(first.pi, first.pi[1:])]
    assert pattern == [a > b for a, b in zip(second.pi, second.pi[1:])]
    # The rule table's fragments rely on: position 0 descends on a colored
    # first letter; position i >= 1 by the support bits at i, i+1 and pi's step.
    s = [c > 0 for c in first.colors]
    rule = {0} if s[0] else set()
    for i, down in enumerate(pattern, 1):
        if (s[i - 1], s[i]) == (False, True) or (s[i - 1] == s[i] and down != s[i]):
            rule.add(i)
    assert descent_set(first) == descent_set(second) == rule


def test_table_makes_one_descent_set_call_per_pattern_and_support(capsys, monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return descent_set(w)

    monkeypatch.setattr(cli, "descent_set", counted)
    n = 6
    code, out, err = run_cli(capsys, "table", "--r", "2", "--n", str(n), "--format", "tsv")
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 2**n * 720
    assert 0 < len(calls) <= 2 ** (n - 1) * 2**n


def test_table_builds_one_block_per_descent_pattern(capsys, monkeypatch):
    # A block is built from the windows of one pi, the first of its pattern.
    blocks = set()

    def counted(w):
        blocks.add(w.pi)
        return descent_set(w)

    monkeypatch.setattr(cli, "descent_set", counted)
    n = 6
    code, out, err = run_cli(capsys, "table", "--r", "2", "--n", str(n), "--format", "tsv")
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 2**n * 720
    assert 0 < len(blocks) <= 2 ** (n - 1)


def test_table_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--r", "2", "--n", "1", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == [
        "window\tDes\tmaj\tdes\tcol",
        "[1^0]\t[]\t0\t0\t0",
        "[1^1]\t[0]\t0\t1\t1",
    ]


def test_table_filter_eps_validation(capsys):
    code, _, err = run_cli(
        capsys, "table", "--r", "2", "--n", "3", "--filter-eps", "1,0"
    )
    assert code == 2 and "filter-eps" in err
    code, _, err = run_cli(
        capsys, "table", "--r", "2", "--n", "3", "--filter-eps", "1,0,2"
    )
    assert code == 2 and "filter-eps" in err


# -- figure ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,golden", [(1, FIGURE_R2_K1), (2, FIGURE_R2_K2)], ids=["k1", "k2"]
)
def test_figure_golden_grids(capsys, k, golden):
    code, out, _ = run_cli(
        capsys, "figure", "--r", "2", "--n", "2", "--k", str(k)
    )
    assert code == 0
    grid = json.loads(out)
    assert len(grid) == (2 * k + 1) ** 2
    got = {tuple(cell["v"]): (cell["monomial"]["q"], cell["monomial"]["u"]) for cell in grid}
    assert got == golden


def test_figure_requires_n2(capsys):
    code, _, err = run_cli(capsys, "figure", "--r", "2", "--n", "3", "--k", "1")
    assert code == 2
    assert "n = 2" in err


def test_figure_r1_grid_is_pure_q(capsys):
    code, out, _ = run_cli(capsys, "figure", "--r", "1", "--n", "2", "--k", "2")
    assert code == 0
    for cell in json.loads(out):
        assert cell["monomial"]["u"] == 0
        assert cell["monomial"]["q"] == sum(cell["v"])


FIGURE_CASES = [(1, 0), (3, 0), (1, 1), (2, 1), (2, 3), (3, 2), (4, 5)]


@pytest.mark.parametrize("r,k", FIGURE_CASES)
def test_figure_json_matches_json_dumps(capsys, r, k):
    code, out, _ = run_cli(capsys, "figure", "--r", str(r), "--n", "2", "--k", str(k))
    assert code == 0
    assert out == json.dumps(figure_grid(r, k), indent=2) + "\n"


@pytest.mark.parametrize("r,k", FIGURE_CASES)
def test_figure_tsv_matches_the_grid(capsys, r, k):
    argv = ("figure", "--r", str(r), "--n", "2", "--k", str(k), "--format", "tsv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = [("v1", "v2", "q", "u")] + [
        (*cell["v"], cell["monomial"]["q"], cell["monomial"]["u"]) for cell in figure_grid(r, k)
    ]
    assert out == "".join("\t".join(map(str, row)) + "\n" for row in rows)


def test_figure_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "--r", "2", "--n", "2", "--k", "1", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v1\tv2\tq\tu"
    assert "2\t1\t1\t1" in lines  # point (2,1) carries qu


# -- decompose ---------------------------------------------------------------------


def decompose_cells(r, n, k):
    """The (colors, points) cells of a decomposition, rebuilt from enumerate_slice."""
    cells = []
    for colors in itertools.product(range(r), repeat=n):
        spec = geometry.CubeSliceSpec(EpsilonVector(colors), k)
        cells.append((list(colors), [list(p.v) for p in geometry.enumerate_slice(spec)]))
    return cells


# k = 0 leaves every cell but the apex's without points, n = 1 has one-int
# points, and (4, 1, 3) and (3, 2, 4) reach two-digit coordinates.
DECOMPOSE_CASES = [
    (1, 1, 0), (3, 1, 0), (2, 3, 0), (1, 1, 2), (4, 1, 3),
    (2, 2, 1), (3, 2, 4), (2, 3, 2), (1, 4, 1),
]


@pytest.mark.parametrize("r,n,k", DECOMPOSE_CASES)
def test_decompose_matches_the_cells_of_enumerate_slice(capsys, r, n, k):
    cells = decompose_cells(r, n, k)
    argv = ("decompose", "--r", str(r), "--n", str(n), "--k", str(k))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    records = [{"eps": colors, "points": points} for colors, points in cells]
    assert out == json.dumps(records, indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "tsv")
    assert code == 0
    lines = ["eps\tv"] + [
        ",".join(map(str, colors)) + "\t" + ",".join(map(str, v))
        for colors, points in cells
        for v in points
    ]
    assert out == "".join(line + "\n" for line in lines)


def test_decompose_cell_sizes(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "2", "--k", "1")
    assert code == 0
    cells = json.loads(out)
    assert [cell["eps"] for cell in cells] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert [len(cell["points"]) for cell in cells] == [4, 2, 2, 1]
    assert cells[3]["points"] == [[2, 2]]


def test_decompose_apex(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "2", "--n", "2", "--k", "0")
    assert code == 0
    cells = json.loads(out)
    assert [len(cell["points"]) for cell in cells] == [1, 0, 0, 0]
    assert cells[0]["points"] == [[0, 0]]


def test_decompose_interval_partition(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "3", "--n", "1", "--k", "2")
    assert code == 0
    cells = json.loads(out)
    assert [cell["points"] for cell in cells] == [
        [[0], [1], [2]],
        [[3], [4]],
        [[5], [6]],
    ]


def test_decompose_covers_every_point_once(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--r", "3", "--n", "2", "--k", "3")
    assert code == 0
    cells = json.loads(out)
    seen = [tuple(v) for cell in cells for v in cell["points"]]
    assert len(seen) == len(set(seen)) == 10 * 10


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "--r", "4", "--n", "2", "--k", "25", "--budget", "10200"),
        ("decompose", "--r", "4", "--n", "3", "--k", "9", "--budget", "20000"),
    ],
    ids=["figure", "decompose"],
)
def test_slice_commands_refuse_over_budget_up_front(capsys, monkeypatch, argv):
    def fail(*args):
        raise AssertionError("a slice was enumerated before the budget refusal")

    monkeypatch.setattr(geometry, "enumerate_slice", fail)
    monkeypatch.setattr(geometry, "figure_rows", fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_decompose_refuses_more_cubes_than_budget_up_front(capsys, monkeypatch):
    # At k = 0 the grid is the apex alone, but there is one cell per color vector.
    def fail(*args):
        raise AssertionError("a cube was enumerated before the budget refusal")

    monkeypatch.setattr(geometry, "enumerate_slice", fail)
    argv = ("decompose", "--r", "2", "--n", "16", "--k", "0", "--budget", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: cube count 65536 exceeds budget 1\n"
    # The grid count comes first, and for k >= 1 it exceeds the cube count.
    argv = ("decompose", "--r", "2", "--n", "2", "--k", "1", "--budget", "3")
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (3, "error: grid of 9 points exceeds budget 3\n")


def test_decompose_overlap_is_a_failed_claim(capsys, monkeypatch):
    # Every cell claims the apex, so the cells no longer partition the slice.
    monkeypatch.setattr(
        geometry, "enumerate_slice", lambda spec, budget: [SimpleNamespace(v=(0, 0))]
    )
    code, out, err = run_cli(capsys, "decompose", "--r", "2", "--n", "2", "--k", "1")
    assert code == 1
    assert out == ""
    assert err == "error: cube decomposition violated: (0, 0) in both (0, 0) and (0, 1)\n"


def test_decompose_missing_point_is_a_failed_claim(capsys, monkeypatch):
    # The cells skip the apex, so they no longer cover the slice.
    enumerate_slice = geometry.enumerate_slice
    monkeypatch.setattr(
        geometry,
        "enumerate_slice",
        lambda spec, budget: [p for p in enumerate_slice(spec, budget) if any(p.v)],
    )
    code, out, err = run_cli(capsys, "decompose", "--r", "2", "--n", "2", "--k", "1")
    assert code == 1
    assert out == ""
    assert err == "error: cube decomposition violated: 8 of 9 points covered\n"


# -- plumbing ----------------------------------------------------------------------


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "grid.json"
    code, out, _ = run_cli(
        capsys, "figure", "--r", "2", "--n", "2", "--k", "1", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    grid = json.loads(path.read_text())
    assert len(grid) == 9


def test_out_unwritable_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--r", "1", "--n", "1", "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not path.exists()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wreath_identity", "table", "--r", "2", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[1]["window"] == "[1^1]"


def test_import_loads_neither_dataclasses_nor_inspect():
    # Every command is a fresh process; importing dataclasses would also load
    # inspect, ast, dis and tokenize, and typing costs a few ms on its own.
    # -S keeps site-packages hooks out.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wreath_identity.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


COMMAND_BASE = {"wreath_identity", "cli", "errors", "wreath"}


@pytest.mark.parametrize(
    "argv, code, extra",
    [
        (("table", "--r", "2", "--n", "3"), 0, set()),
        (("verify", "--r", "3", "--n", "7"), 3, set()),  # refused by the group order
        (("figure", "--r", "2", "--n", "2", "--k", "2"), 0, {"geometry"}),
        (("decompose", "--r", "2", "--n", "2", "--k", "1"), 0, {"geometry"}),
        (("verify", "--r", "2", "--n", "3"), 0, {"poly", "identity"}),
        (("verify", "--all-steps", "--r", "2", "--n", "2"), 0, {"poly", "geometry", "identity"}),
    ],
    ids=["table", "verify-refused", "figure", "decompose", "verify", "all-steps"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, code, extra):
    # Every command is a fresh process, and without a bytecode cache each
    # module it imports is compiled from source.
    script = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); from wreath_identity import cli; "
        "code = cli.main(sys.argv[2:] + ['--out', os.devnull]); "
        "print(code, *sorted(name for name in sys.modules if name.startswith('wreath_identity')))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(ROOT / "src"), *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, *modules = proc.stdout.split()
    assert int(exit_code) == code, proc.stderr
    loaded = {name.removeprefix("wreath_identity.") for name in modules}
    assert loaded == COMMAND_BASE | extra


# Every name the package exported, by the module it was imported from, when
# its __init__ imported all four modules up front.
PACKAGE_EXPORTS = {
    "poly": (
        "CoefficientOverflowError Monomial TruncatedPoly compare_product expand_denominator "
        "first_difference lhs_base lhs_term mul_by_terms q_integer u_integer"
    ),
    "wreath": (
        "BudgetExceededError ColoredPermutation DEFAULT_BUDGET EpsilonVector col "
        "colored_window des descent_set enumerate_group g_epsilon g_epsilon_gf group_order "
        "maj numerator ordinary_descent_set"
    ),
    "geometry": (
        "CubeSliceSpec LatticePoint cone_sum cone_sum_by_enumeration delta_membership "
        "enumerate_slice figure_grid find_simplex full_slice_sum m m_prime "
        "slice_membership slice_sum"
    ),
    "identity": (
        "Partition VerificationReport composition_to_partition descent_shift_check "
        "find_pi_for_composition omega_map rho verify_corollary verify_lemma_same_support "
        "verify_lemma_triple_preserving verify_prop_few_colors verify_theorem"
    ),
}


def test_package_exports_every_name_it_exported_before():
    import wreath_identity

    star: dict = {}
    exec("from wreath_identity import *", star)
    for module_name, names in PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"wreath_identity.{module_name}")
        for name in names.split():
            assert getattr(wreath_identity, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name
            assert name in dir(wreath_identity), name
            assert name in wreath_identity.__all__, name
    assert wreath_identity.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'cmd_verify'"):
        wreath_identity.cmd_verify


def test_traced_child_reproduces_untraced_stdout(capsys):
    # The benchmark's tracer wraps functions that cli binds by name, and it
    # replaces cli.json by a namespace that holds only json.dumps, which the
    # JSON writer calls for null, true and 0.0 in verify reports; this fails
    # when cli stops binding one of them or stops reaching them.
    for argv in (
        ["table", "--r", "2", "--n", "3"],
        ["verify", "--r", "2", "--n", "3"],
        ["figure", "--r", "2", "--n", "2", "--k", "2"],
        ["verify", "--all-steps", "--r", "2", "--n", "3"],
    ):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "traced_child.py"), *argv],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["exit"] == 0, argv
        _, out, _ = run_cli(capsys, *argv)
        assert record["sha256"] == hashlib.sha256(out.encode("utf-8")).hexdigest(), argv
        if argv[0] == "table":
            assert record["spans"]["wreath.window_stats"]["calls"] > 0
        if "--all-steps" in argv:
            # The tracer counts lattice points per enumerate_slice call: the
            # few-colors oracle must still walk every point of its n+1 cubes
            # (1^l, 0^(n-l)) at every height up to the default cap n + 3.
            n = 3
            points = sum(k**l * (k + 1) ** (n - l) for l in range(n + 1) for k in range(n + 4))
            assert record["counters"]["lattice_points"] == points
