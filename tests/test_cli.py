"""End-to-end command line checks via subprocess."""

import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from moser2d import RadialProfile, SequenceSpec, blowup_scan, cap_l2_sq, moser, tm_functional
from moser2d import cli
from moser2d.cli import _json_default, _json_text, build_parser
from moser2d.sequences import FAMILIES

from conftest import rel_err


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "moser2d", *args],
        capture_output=True,
        text=True,
    )


def test_import_loads_no_scipy_integrate_or_optimize():
    # both cost tens of MB and start-up time on every launch; the library
    # needs only scipy.special
    code = (
        "import sys, moser2d, moser2d.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_oracles_pass():
    res = run_cli("oracles")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["n_fail"] == 0
    assert all(row["status"] == "pass" for row in payload["rows"])


def test_oracles_detect_corruption(monkeypatch, capsys):
    # oracles 1e-6 off fail the suite with exit 1 and name the first mismatch
    exact = SequenceSpec.oracle_values
    monkeypatch.setattr(
        SequenceSpec, "oracle_values",
        lambda spec: {k: x * (1.0 + 1e-6) for k, x in exact(spec).items()},
    )
    assert cli.main(["oracles"]) == 1
    assert "oracle mismatch" in capsys.readouterr().err


def test_eval_matches_api():
    res = run_cli("eval", "--family", "moser", "--n", "10", "--beta", "4pi")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    want = tm_functional(moser(10), 4.0 * math.pi, 1e-10)
    assert payload["j_beta"] == want.j_beta
    assert payload["dirichlet_sq"] == want.dirichlet_sq
    # manifest goes to stderr when no --out is given
    manifest = json.loads(res.stderr)
    assert manifest["seed"] == 0
    assert manifest["argv"][0] == "eval"
    assert "numpy" in manifest


# one member of each family, given through its CLI flags
_MEMBER_FLAGS = {
    "moser": {"n": 100},
    "counterexample": {"n": 1000},
    "modified-moser": {"n": 100},
    "cap": {"k": 4.0, "R": 2.0},
    "zygmund": {"k": 8.0},
    "alvino": {"T": 10.0, "delta": 54.598},
}


def test_family_table_drives_the_cli():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    family = next(a for a in subparsers.choices["eval"]._actions if a.dest == "family")
    assert list(family.choices) == sorted(FAMILIES)
    assert set(_MEMBER_FLAGS) == set(FAMILIES)
    for name, flags in _MEMBER_FLAGS.items():
        args = ["eval", "--family", name, "--beta", "2pi"]
        for flag, value in flags.items():
            args += ["--" + flag, str(value)]
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        params = {p: flags[flag] for p, flag, _ in FAMILIES[name].params}
        oracle = SequenceSpec(name, params).oracle_values()
        assert rel_err(payload["dirichlet_sq"], oracle["dirichlet_sq"]) < 1e-12
        assert rel_err(payload["l2_sq"], oracle["l2_sq"]) < 1e-12
    # cap's --R defaults to 1
    res = run_cli("eval", "--family", "cap", "--k", "4", "--beta", "2pi")
    assert json.loads(res.stdout)["l2_sq"] == pytest.approx(cap_l2_sq(4.0), rel=1e-12)


def test_eval_requires_family_params():
    res = run_cli("eval", "--family", "moser", "--beta", "4pi")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def test_eval_rejects_malformed_profile(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"knots": "nope"}')
    res = run_cli("eval", "--profile", str(bad), "--beta", "2pi")
    assert res.returncode == 2


def test_rearrange_roundtrip(tmp_path):
    src = tmp_path / "cells.csv"
    src.write_text("2.0,1.0\n1.0,2.0\n0.5,0.5\n")
    out = tmp_path / "profile.json"
    res = run_cli("rearrange", "--in", str(src), "--out", str(out))
    assert res.returncode == 0
    p = RadialProfile.from_json(out.read_text())
    assert p.t_support == 3.5
    assert p.value_at(0.5) == 2.0
    assert p.value_at(1.5) == 1.0
    assert (tmp_path / "profile.json.manifest.json").exists()


def test_verify_alvino_equality_case():
    res = run_cli(
        "verify", "--inequality", "alvino", "--family", "alvino",
        "--T", "10", "--delta", "2.718281828459045",
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["holds"] is True
    assert abs(payload["lhs"] - 1.0 / math.sqrt(4.0 * math.pi)) < 1e-10


def test_verify_limine_and_adachi_and_zcharact():
    assert (
        run_cli(
            "verify", "--inequality", "limine", "--family", "cap", "--k", "4"
        ).returncode
        == 0
    )
    assert (
        run_cli(
            "verify", "--inequality", "adachi", "--family", "cap", "--k", "4",
            "--beta", "2pi",
        ).returncode
        == 0
    )
    assert (
        run_cli(
            "verify", "--inequality", "zcharact", "--family", "moser", "--n", "10",
            "--lambda", "1.0",
        ).returncode
        == 0
    )


def test_verify_flag_validation():
    res = run_cli("verify", "--inequality", "zcharact", "--family", "moser", "--n", "10")
    assert res.returncode == 2
    res = run_cli(
        "verify", "--inequality", "adachi", "--family", "cap", "--k", "4",
        "--beta", "5pi",
    )
    assert res.returncode == 2


def test_equivalence_directions():
    res = run_cli(
        "equivalence", "--direction", "at-to-ruf", "--family", "moser", "--n", "100",
        "--beta", "2pi",
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["branch"] == "ruf_normalize"
    assert payload["checks"]["sobolev_sq"] <= 1.0 + 1e-9
    # moser(100) violates the unit Sobolev bound, so the reverse errors
    res = run_cli(
        "equivalence", "--direction", "ruf-to-at", "--family", "moser", "--n", "100"
    )
    assert res.returncode == 2


def test_optimize_outputs_are_reproducible(tmp_path):
    out = tmp_path / "run.json"
    args = (
        "optimize", "--constraint", "reduced", "--beta", "2pi", "--knots", "8",
        "--budget", "200", "--out", str(out),
    )
    res = run_cli(*args)
    assert res.returncode == 0
    first = out.read_bytes()
    payload = json.loads(first)
    assert "wall_time" not in payload
    trace = payload["objective_trace"]
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert payload["best_value"] == trace[-1]
    stamp = (tmp_path / "run.json.stamp").read_text()
    assert "wall_time" in stamp
    manifest = json.loads((tmp_path / "run.json.manifest.json").read_text())
    assert manifest["argv"][-2:] == ["--out", str(out)]
    # bitwise identical result on rerun; only the stamp may differ
    res = run_cli(*args)
    assert res.returncode == 0
    assert out.read_bytes() == first


def test_scan_blowup_csv_preserves_precision(tmp_path):
    out = tmp_path / "scan.csv"
    res = run_cli(
        "scan-blowup", "--betas", "2pi,4pi", "--ns", "100,1000",
        "--format", "csv", "--out", str(out),
    )
    assert res.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["100", "1000", "100", "1000"]
    api = blowup_scan(0.0, 1.0, [2.0 * math.pi, 4.0 * math.pi], [100, 1000], tol=1e-10)
    for got, want in zip(rows, api):
        assert float(got["j_beta"]) == want["j_beta"]
        assert float(got["lower_bound"]) == want["lower_bound"]


def test_scan_blowup_parses_n_exactly():
    res = run_cli("scan-blowup", "--betas", "4pi", "--ns", "1e400")
    assert res.returncode == 0
    assert json.loads(res.stdout)["rows"][0]["n"] == 10**400
    res = run_cli("scan-blowup", "--betas", "4pi", "--ns", "1.5")
    assert res.returncode == 2
    assert "positive integer" in res.stderr


def test_tables():
    res = run_cli("table", "zygmund-optimality")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    ratios = [row["ratio"] for row in payload["rows"]]
    assert ratios == sorted(ratios)
    assert ratios[-1] > 0.99
    res = run_cli("table", "constants")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    for row in payload["rows"]:
        assert 4.0 < row["ratio_to_asym"] < 13.0
    assert run_cli("table", "nosuch").returncode == 2


def test_eval_csv_key_value_fallback(tmp_path):
    out = tmp_path / "eval.csv"
    res = run_cli(
        "eval", "--family", "cap", "--k", "4", "--beta", "2pi",
        "--format", "csv", "--out", str(out),
    )
    assert res.returncode == 0
    text = out.read_text()
    assert "j_beta" in text
    with open(out, newline="") as fh:
        rows = {row[0]: row[1] for row in csv.reader(fh) if row}
    assert float(rows["j_beta"]) > 0.0


def test_usage_errors_and_help():
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("eval", "--family", "cap", "--k", "4").returncode == 2  # no beta
    assert run_cli("--help").returncode == 0
    assert run_cli("optimize", "--help").returncode == 0


def test_file_errors_exit_2(tmp_path):
    missing = tmp_path / "missing"
    cells = tmp_path / "cells.csv"
    cells.write_text("2.0,1.0\n")
    deep = tmp_path / "deep.json"
    deep.write_text('{"t_support": 1.0, "knots": ' + "[" * 200000 + "]" * 200000 + "}")
    for args in (
        ("eval", "--profile", str(missing / "p.json"), "--beta", "2pi"),
        ("eval", "--profile", str(deep), "--beta", "2pi"),
        ("rearrange", "--in", str(missing / "cells.csv")),
        ("rearrange", "--in", str(cells), "--out", str(missing / "p.json")),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "doc",
    [
        {"t_support": None, "knots": [[0.0, 0.0], [1.0, 0.5]]},
        {"t_support": {}, "knots": [[0.0, 0.0], [1.0, 0.5]]},
        {"t_support": 1.0, "knots": [[0.0, 0.0], [{}, 0.5]]},
        {"t_support": 1.0, "knots": [[0.0, 0.0], [1.0, {}]]},
        {"t_support": True, "knots": [[0.0, 0.0], [1.0, 0.5]]},
        {"t_support": 1.0, "knots": [[0, 0], [True, 1]]},
        {"t_support": 1.0, "knots": [[0.0, False], [1.0, 0.5]]},
        {"t_support": 1.0, "knots": [[0, 0], [[1], 1]]},
        {"t_support": 1.0, "knots": [[0.0, 0.0], [1.0, [0.5]]]},
        {"t_support": 1, "knots": [[0, 0, 5], [1, 1, "x"]]},
        {"t_support": 1.0, "knots": [[0.0, 0.0], [1.0, 0.5, 2.0]]},
        {"t_support": 1.0, "knots": [[0.0, 0.0], [1.0]]},
        {"t_support": 1.0, "knots": [[0.0, 0.0], "ab"]},
    ],
    ids=["null_support", "object_support", "object_s", "object_v", "true_support", "true_s", "false_v",
         "list_s", "list_v", "triple_with_word", "triple", "single", "two_letter_word"],
)
def test_profile_cell_that_is_not_a_number_exits_2(tmp_path, doc):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    res = run_cli("eval", "--profile", str(path), "--beta", "2pi")
    assert res.returncode == 2, res.stderr
    assert res.stderr == "error: profile needs t_support and knots [[s, v], ...]\n"


@pytest.mark.parametrize("row", ["abc,1.0", "1.0,abc"])
def test_rearrange_bad_cell_names_its_row(tmp_path, capsys, row):
    src = tmp_path / "cells.csv"
    src.write_text("value,area\n2.0,1.0\n%s\n" % row)
    assert cli.main(["rearrange", "--in", str(src)]) == 2
    assert capsys.readouterr().err == "error: bad csv row 3 in %s\n" % src


# (id, file bytes, whether numpy's C reader serves it); the row loop
# serves the rest, and both must read every file alike
_CSV_CASES = [
    ("plain", b"value,area\n2.0,1.0\n1.0,2.0\n0.5,0.5\n", True),
    ("no_header", b"2.0,1.0\n1.0,2.0\n", True),
    ("quoted_header", b'"value","area"\n2.0,1.0\n', True),
    ("quoted_cells", b'value,area\n"2.0","1.0"\n1.0,"2.0"\n', True),
    ("quoted_first_row", b'"1.0","2.0"\n0.5,1.0\n', True),
    ("quoted_extra_cell_over_lines", b'value,area\n1,2,"x\n3,4,"\n5,6\n', True),
    ("quoted_first_row_over_lines", b'1,2,"x\n3,4,"\n5,6\n', False),
    ("quoted_header_over_lines", b'"val\nue",area\n1,2\n', False),
    ("cell_after_closing_quote", b'"1"2,3\n', False),
    ("blank_lines", b"value,area\n\n2.0,1.0\n\n\n1.0,2.0\n", True),
    ("whitespace_line", b"value,area\n2.0,1.0\n   \n1.0,2.0\n", False),
    ("whitespace_first_line", b"  \n2.0,1.0\n", True),
    ("blank_line_before_header", b"\nvalue,area\n2.0,1.0\n", False),
    ("two_headers", b"value,area\nv,a\n2.0,1.0\n", False),
    ("underscore_digits", b"value,area\n1_0,2\n", False),
    ("arabic_indic_digits", "value,area\n١٢,2\n".encode(), False),
    ("padded_cells", b"value,area\n 2.0 ,\t1.0\n", True),
    ("cr_line_ends", b"value,area\r2.0,1.0\r1.0,2.0\r", True),
    ("crlf_line_ends", b"value,area\r\n2.0,1.0\r\n1.0,2.0\r\n", True),
    ("hash_first_line", b"# cells\n2.0,1.0\n", True),
    ("hash_in_cell", b"value,area\n2.0,1.0 # note\n", False),
    ("empty_value", b"value,area\n,1.0\n", False),
    ("empty_area", b"value,area\n2.0,\n", False),
    ("extra_columns", b"value,area,label\n2.0,1.0,a\n1.0,2.0,b\n", True),
    ("ragged_long", b"1,2,3\n4,5\n6,7,8,9\n", True),
    ("ragged_short", b"value,area\n2.0,1.0\n3\n", False),
    ("one_cell_first_row", b"1.0\n", False),
    ("nan", b"value,area\nnan,1.0\n", True),
    ("infinity", b"value,area\n2.0,Infinity\n", True),
    ("header_only", b"value,area\n", True),
    ("empty", b"", True),
    ("bom_data", b"\xef\xbb\xbf1.0,2.0\n0.5,1.0\n", True),
    ("bom_header", b"\xef\xbb\xbfvalue,area\n1.0,2.0\n", True),
    ("file_separator", b"value,area\n\x1c2.0,1.0\n", False),
    ("nul", b"value,area\n2.0,1.0\x00\n", False),
    ("invalid_utf8", b"value,area\n2.0,1.0\n\xff,1.0\n", False),
    ("invalid_utf8_past_first_block", b"value,area\n" + b"2.0,1.0\n" * 2000 + b"\xff,1.0\n", False),
    # cells longer than csv's default field limit of 131072 characters
    ("long_value_cell", b'value,area\n"' + b"x" * 200000 + b'",1\n', False),
    ("long_extra_cell", b"value,area,label\n1.0,2.0," + b"y" * 200000 + b"\n", True),
]


@pytest.mark.parametrize("data,fast", [c[1:] for c in _CSV_CASES], ids=[c[0] for c in _CSV_CASES])
def test_csv_fast_path_reads_as_the_row_loop(tmp_path, monkeypatch, capsys, data, fast):
    src = tmp_path / "cells.csv"
    src.write_bytes(data)
    served = []
    c_columns = cli._c_columns

    def counted(*args):
        cols = c_columns(*args)
        served.append(True)
        return cols

    def refused(*args):
        raise ValueError("read row by row")

    runs = []
    for columns in (counted, refused):
        monkeypatch.setattr(cli, "_c_columns", columns)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                values, areas = cli._read_samples(str(src))
                read = (np.asarray(values, float).tobytes(), np.asarray(areas, float).tobytes())
            except ValueError as exc:
                read = (type(exc), str(exc))
            code = cli.main(["rearrange", "--in", str(src)])
        assert not caught, [str(w.message) for w in caught]
        runs.append((read, code, capsys.readouterr()))
    assert served == ([True, True] if fast else [])
    assert runs[0] == runs[1]
    assert csv.field_size_limit() == 131072


def test_rearrange_reads_past_a_byte_order_mark(tmp_path):
    src = tmp_path / "cells.csv"
    src.write_bytes(b"\xef\xbb\xbf1.0,2.0\n0.5,1.0\n")
    out = tmp_path / "profile.json"
    assert cli.main(["rearrange", "--in", str(src), "--out", str(out)]) == 0
    assert RadialProfile.from_json(out.read_text()).t_support == 3.0


def test_rearrange_reads_a_pipe_row_by_row():
    res = subprocess.run(
        [sys.executable, "-m", "moser2d", "rearrange", "--in", "/dev/stdin"],
        input=b"\xef\xbb\xbfvalue,area\n2.0,1.0\n1.0,2.0\n0.5,0.5\n", capture_output=True,
    )
    assert res.returncode == 0, res.stderr
    assert RadialProfile.from_json(res.stdout).t_support == 3.5


def test_rearrange_csv_output_is_the_profile_dict(tmp_path):
    src = tmp_path / "cells.csv"
    src.write_text("value,area\n2.0,1.0\n1.0,2.0\n0.5,0.5\n")
    out = tmp_path / "profile.csv"
    assert cli.main(["rearrange", "--in", str(src), "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == (
        "key,value\n"
        "knots[0][0],0\nknots[0][1],0\nknots[1][0],0\nknots[1][1],0.5\n"
        "knots[2][0],0.15415067982725836\nknots[2][1],0.5\n"
        "knots[3][0],0.15415067982725836\nknots[3][1],1\n"
        "knots[4][0],1.2527629684953681\nknots[4][1],1\n"
        "knots[5][0],1.2527629684953681\nknots[5][1],2\n"
        "t_support,3.5\n"
    )


def test_main_reuses_its_parser_without_leaking_flags(tmp_path, capsys):
    first = ["eval", "--family", "moser", "--n", "10", "--beta", "4pi"]
    assert cli.main(first + ["--out", str(tmp_path / "a.json")]) == 0
    # the second call omits --beta, then --n, that the first one set
    assert cli.main(["eval", "--family", "moser", "--n", "10"]) == 2
    assert "--beta is required" in capsys.readouterr().err
    assert cli.main(["eval", "--family", "moser", "--beta", "4pi"]) == 2
    assert "requires --n" in capsys.readouterr().err
    third = ["eval", "--family", "cap", "--k", "4", "--beta", "2pi"]
    assert cli.main(third + ["--out", str(tmp_path / "c.json")]) == 0
    for argv, name in ((first, "a.json"), (third, "c.json")):
        manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
        assert manifest["argv"] == argv + ["--out", str(tmp_path / name)]
    assert cli._parser() is cli._parser()


_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.5e-310, -1e-308,
    9.999999999999998e15, 1e16, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
]
_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_TINY, _HUGE = 5e-324, 1.7976931348623157e308
_PROFILES = [
    RadialProfile.zero(),
    RadialProfile(2.5, [0.0, 0.0, 0.4, 0.4, 1.3], [0.0, 0.5, 0.5, 1.0, 2.0]),  # jumps
    RadialProfile(1.0, [-0.0, 1.0], [-0.0, 0.25]),
    RadialProfile(_TINY, [0.0, _TINY, 2 * _TINY], [0.0, _TINY, 1e-310]),
    RadialProfile(_HUGE, [0.0, 1e300, _HUGE], [1e-300, 1e307, _HUGE]),
    moser(1000),
]
_pairs = st.lists(st.tuples(_floats, _floats).map(list), max_size=6)
_keys = st.one_of(st.text(max_size=6), st.sampled_from(['a"b', "c\\d", "\u00e9\u2603", "\x00"]))
_leaves = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(10**399, 10**400 - 1).flatmap(lambda n: st.sampled_from([n, -n])),
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    st.lists(_floats, max_size=6),
    st.lists(_floats, max_size=6).map(np.array),
    _pairs,
    _pairs.map(lambda knots: np.array(knots, dtype=float).reshape(-1, 2)),
    _pairs.map(lambda knots: [tuple(k) for k in knots]),
    st.sampled_from(_PROFILES),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_payloads)
@example(np.array([[0.0, 1.5], [2.0, math.nan]]))
@example([])
@example(())
@example({})
@example({1: moser(1000)})
@example([math.nan, math.inf, -math.inf, -0.0])
@example({"p": (moser(1000),)})
def test_json_text_matches_stdlib(payload):
    want = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    assert _json_text(payload) == want


@pytest.mark.parametrize("p", _PROFILES, ids=["zero", "jumps", "negative_zero", "tiny", "huge", "moser"])
def test_json_text_writes_a_profile_as_its_dict(p):
    want = json.dumps(p.to_dict(), sort_keys=True, indent=2)
    assert _json_text(p) == want
    nested = {"profiles": [p, p], "tag": "x"}
    assert _json_text(nested) == json.dumps(
        {"profiles": [p.to_dict(), p.to_dict()], "tag": "x"}, sort_keys=True, indent=2
    )


def test_readme_commands_write_the_json_layout(tmp_path):
    cells = tmp_path / "cells.csv"
    cells.write_text("value,area\n2.0,1.0\n1.0,2.0\n0.5,0.5\n")
    profile = str(tmp_path / "profile.json")
    commands = [
        ["oracles"],
        ["eval", "--family", "moser", "--n", "1000", "--beta", "4pi"],
        ["rearrange", "--in", str(cells), "--out", profile],
        ["verify", "--inequality", "alvino", "--family", "alvino", "--T", "10", "--delta", "54.598"],
        ["verify", "--inequality", "limine", "--profile", profile],
        ["eval", "--profile", profile, "--beta", "0.5"],
        ["equivalence", "--direction", "at-to-ruf", "--family", "moser", "--n", "100", "--beta", "2pi"],
        ["optimize", "--constraint", "reduced", "--beta", "2pi", "--knots", "8", "--budget", "300"],
        ["scan-blowup", "--betas", "2pi,4pi", "--ns", "1000,1000000"],
        ["table", "constants"],
    ]
    for i, argv in enumerate(commands):
        out = argv[-1] if "--out" in argv else str(tmp_path / ("out%d.json" % i))
        if "--out" not in argv:
            argv = argv + ["--out", out]
        assert cli.main(argv) == 0, argv
        for path in (out, out + ".manifest.json"):
            with open(path) as fh:
                text = fh.read()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", argv
