"""Command-line surface: oracle suite, evaluation, checks, scans, tables.

Every run is pure given its flags and input files: results and the
manifest are byte-identical across repeats, and the only timestamp lives
in a separate .stamp file next to the output.  Exit codes: 0 success,
1 failed check or overflow, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import platform
import re
import sys
import warnings
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np
import scipy

from . import __version__
from .equivalence import adachi_split, ruf_normalize
from .inequalities import (
    InequalityReport,
    adachi_ratio,
    alvino_ratio_sup,
    at_constant_eps,
    at_quadratic_bound,
    best_eps,
    check_limine,
    zcharact_bound,
    zygmund_quasinorm,
)
from .optimizer import ConstraintSet, blowup_scan, maximize
from .profile import RadialProfile, dirichlet_norm_sq, l2_norm_sq, tm_functional
from .rearrangement import WeightedSamples, decreasing_rearrangement
from .sequences import FAMILIES, SequenceSpec, oracle_rows, zygmund_optimal

_4PI = 4.0 * math.pi


def _beta(text: str) -> float:
    """Accept plain floats or pi multiples like '4pi', '3.5pi', 'pi'."""
    t = str(text).strip().lower()
    if t.endswith("pi"):
        head = t[:-2]
        return (float(head) if head else 1.0) * math.pi
    return float(t)


# CPython prints no int of more digits (sys.get_int_max_str_digits)
_MAX_N_DIGITS = 4300


def _exact_int(text) -> int:
    """A positive integer given in decimal or scientific notation, exactly.

    '1e400' is 10**400; '1.5', '0' and '-3' raise ValueError.
    """
    exp = re.search(r"[eE]([+-]?\d+)\s*$", str(text))
    if exp and abs(int(exp.group(1))) >= _MAX_N_DIGITS:
        raise ValueError("n = %s has more than %d digits" % (str(text).strip(), _MAX_N_DIGITS))
    q = Fraction(text)
    if q.denominator != 1 or q <= 0:
        raise ValueError("n must be a positive integer, got %s" % str(text).strip())
    return q.numerator


def _float_list(text: str, conv=float):
    items = [x for x in str(text).split(",") if x.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return [conv(x) for x in items]


def _fmt_cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _csv_text(rows) -> str:
    rows = list(rows)
    if not rows:
        return ""
    header = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(h, "")) for h in header])
    return buf.getvalue()


def _kv_rows(payload):
    # csv fallback for tree-shaped payloads: dotted key, scalar value
    out = []

    def walk(prefix, val):
        if isinstance(val, RadialProfile):
            val = val.to_dict()
        if isinstance(val, dict):
            for k in sorted(val):
                walk("%s.%s" % (prefix, k) if prefix else str(k), val[k])
        elif isinstance(val, (list, tuple)):
            for i, item in enumerate(val):
                walk("%s[%d]" % (prefix, i), item)
        else:
            out.append({"key": prefix, "value": val})

    walk("", payload)
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, RadialProfile):
        return obj.to_dict()
    raise TypeError("not JSON serializable: %r" % type(obj))


def _knot_cells(x):
    """The floats of knot column x, for a %s template.

    Where neighbours share their bits, as the jump knots of a step profile
    do, repr runs once per run and its texts are expanded by index; bits,
    not values, so that -0.0 beside 0.0 keeps both spellings.  A column
    without runs is returned as floats, which the template formats.
    """
    bits = x.view(np.int64)
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    if first.all():
        return x.tolist()
    texts = np.array(list(map(repr, x[first].tolist())), dtype=object)
    return texts[np.cumsum(first) - 1].tolist()


# knots per part of a profile's text, so that a part stays near 300 kB
_KNOT_BLOCK = 4096


def _knot_blocks(s, v, row):
    """The text of the knots (s, v) on lines that open with row, in parts
    of _KNOT_BLOCK knots; each part after the first opens with its comma."""
    pair = "[" + row + "  %s," + row + "  %s" + row + "]"
    more = "," + row + pair
    for i in range(0, s.size, _KNOT_BLOCK):
        k = min(_KNOT_BLOCK, s.size - i)
        cells = [None] * (2 * k)
        cells[0::2] = _knot_cells(s[i : i + k])
        cells[1::2] = _knot_cells(v[i : i + k])
        yield (more * k if i else pair + more * (k - 1)) % tuple(cells)


# json.dumps writes this string as each profile's knot list; _json_parts
# puts the knots in its place
_STUB = "moser2d-knots"


def _json_parts(obj):
    """json.dumps(obj, sort_keys=True, indent=2, default=_json_default), byte
    for byte, as a sequence of strings; a profile's knots come in parts of
    _KNOT_BLOCK knots, each filled into one %s template.

    json lays out the text with _STUB as each profile's knot list.  The knot
    text of profiles that share their knot arrays is made once per indent
    and kept under (id(s), id(v), row), while profiles holds the arrays, so
    that no id is reused; every other profile's parts are made as they are
    taken, so that a writer holds one part at a time.  Where obj holds the
    stub's own text, json writes it all.
    """
    found = []

    def hook(x):
        if isinstance(x, RadialProfile):
            found.append(x)
            return {"knots": _STUB, "t_support": x.t_support}
        return _json_default(x)

    pieces = json.dumps(obj, sort_keys=True, indent=2, default=hook).split(json.dumps(_STUB))
    # json's encoder, a cycle of closures, holds hook until the collector
    # runs; rebinding found makes hook's cell let go of the profiles now
    profiles, found = found, None
    if len(pieces) != len(profiles) + 1:
        yield json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
        return
    counts = collections.Counter((id(p.s), id(p.v)) for p in profiles)
    kept = {}
    yield pieces[0]
    for p, before, after in zip(profiles, pieces, pieces[1:]):
        # before ends with the stub's line: a newline, the indent, '"knots": '
        inner = before[before.rindex("\n") : -len('"knots": ')]
        row = inner + "  "
        key = (id(p.s), id(p.v), row)
        if counts[key[:2]] > 1 and key not in kept:
            kept[key] = list(_knot_blocks(p.s, p.v, row))
        yield "[" + row
        yield from kept.get(key) or _knot_blocks(p.s, p.v, row)
        yield inner + "]"
        yield after


def _emit(ns, payload, rows=None) -> None:
    """Write payload as JSON, or as CSV rows, to --out or to stdout, and its
    manifest beside --out or to stderr.

    JSON goes out part by part as _json_parts makes it, so that a profile's
    text is never held whole; the CSV and the manifest, which holds no
    profile, are written whole.
    """
    if ns.format == "csv":
        parts = [_csv_text(rows if rows is not None else _kv_rows(payload))]
    else:
        parts = itertools.chain(_json_parts(payload), ["\n"])
    manifest = {
        "argv": list(ns.raw_argv),
        "package": "moser2d " + __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": ns.seed,
    }
    manifest = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.writelines(parts)
        with open(ns.out + ".manifest.json", "w") as fh:
            fh.write(manifest)
        with open(ns.out + ".stamp", "w") as fh:
            fh.write(datetime.now(timezone.utc).isoformat() + "\n")
            wall = getattr(ns, "wall_time", None)
            if wall is not None:
                fh.write("wall_time %.6f\n" % wall)
    else:
        sys.stdout.writelines(parts)
        sys.stderr.write(manifest)


def _family_profile(ns) -> RadialProfile:
    params = {}
    for name, flag, default in FAMILIES[ns.family].params:
        value = getattr(ns, flag)
        if value is None:
            value = default
        if value is None:
            raise ValueError("family %s requires --%s" % (ns.family, flag))
        params[name] = value
    return SequenceSpec(ns.family, params).build()


def _load_profile(ns) -> RadialProfile:
    if getattr(ns, "profile", None):
        with open(ns.profile, "rb") as fh:
            # a leading byte-order mark is dropped, as _read_samples drops
            # one, and the bytes are freed before the parse
            text = fh.read().decode("utf-8-sig")
        return RadialProfile.from_json(text)
    if getattr(ns, "family", None):
        return _family_profile(ns)
    raise ValueError("provide --profile FILE or --family NAME")


def _params_text(params: dict) -> str:
    return ",".join("%s=%s" % (k, _fmt_cell(v)) for k, v in sorted(params.items()))


def cmd_oracles(ns) -> int:
    rows = []
    first_fail = None
    for spec in oracle_rows():
        p = spec.build()
        computed = {"dirichlet_sq": dirichlet_norm_sq(p), "l2_sq": l2_norm_sq(p)}
        oracle = spec.oracle_values()
        for quantity in ("dirichlet_sq", "l2_sq"):
            got = computed[quantity]
            want = oracle[quantity]
            rel = abs(got - want) / abs(want)
            ok = rel <= ns.tol
            row = {
                "family": spec.family,
                "params": _params_text(spec.params),
                "quantity": quantity,
                "computed": got,
                "oracle": want,
                "rel_error": rel,
                "status": "pass" if ok else "fail",
            }
            rows.append(row)
            if not ok and first_fail is None:
                first_fail = row
    n_fail = sum(1 for r in rows if r["status"] == "fail")
    _emit(ns, {"rows": rows, "n_fail": n_fail}, rows=rows)
    if first_fail is not None:
        sys.stderr.write("oracle mismatch: %s\n" % json.dumps(first_fail, sort_keys=True))
        return 1
    return 0


def cmd_eval(ns) -> int:
    p = _load_profile(ns)
    if ns.beta is None:
        raise ValueError("--beta is required for eval")
    report = tm_functional(p, ns.beta, ns.tol)
    payload = {"beta": ns.beta, "t_support": p.t_support, "n_knots": p.n_knots}
    payload.update(report.to_dict())
    _emit(ns, payload)
    return 0


def _csv_rows(lines, name):
    """The value and area columns of CSV lines, read row by row.

    Row 0 is a header when its first cell is not a number; blank rows are
    skipped and cells past the second are ignored, however long, as numpy's
    reader ignores them.  A bad row raises ValueError naming it.
    """
    values = []
    areas = []
    limit = csv.field_size_limit(sys.maxsize)
    try:
        for i, row in enumerate(csv.reader(lines)):
            if not row:
                continue
            try:
                v = float(row[0])
            except ValueError:
                if i == 0:
                    continue
                raise ValueError("bad csv row %d in %s" % (i + 1, name))
            if len(row) < 2:
                raise ValueError("row %d needs value,area" % (i + 1,))
            try:
                a = float(row[1])
            except ValueError:
                raise ValueError("bad csv row %d in %s" % (i + 1, name)) from None
            values.append(v)
            areas.append(a)
    finally:
        csv.field_size_limit(limit)
    return values, areas


def _c_columns(path, first):
    """_csv_rows's columns as arrays, parsed by numpy's C reader, which
    quotes as csv does and, but for _SEPARATORS, reads a number as float
    does or refuses it.

    The reader opens the file at path itself and reads it in chunks; first
    is its first line, a byte-order mark dropped, which is skipped where it
    is a header.  Raises ValueError or csv.Error where the reader refuses a
    row, or where row 0 leaves a quoted cell open past the first line.
    """
    head = next(csv.reader([first], strict=True), None) or [""]
    try:
        float(head[0])
        skip = 0
    except ValueError:
        skip = 1  # row 0 is a header or blank
    with warnings.catch_warnings():
        # no rows warn; the caller refuses them as "no samples"
        warnings.simplefilter("ignore", UserWarning)
        cols = np.loadtxt(
            path, delimiter=",", comments=None, quotechar='"', usecols=(0, 1), ndmin=2,
            skiprows=skip, encoding="utf-8-sig",
        )
    return cols.T


# numpy's float parser strips these ASCII separators around a number, and
# float refuses them
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_name(path) -> bool:
    """Whether np.loadtxt opens path as the plain file it names: numpy's
    DataSource fetches a name of the form scheme://host/... and
    decompresses a file by its extension."""
    return "://" not in path and os.path.splitext(path)[1] not in (".gz", ".bz2", ".xz", ".lzma")


def _read_samples(path):
    """The value and area columns of the CSV file at path, as _csv_rows
    reads them once a leading byte-order mark is dropped.

    _c_columns reads a seekable file without a byte of _SEPARATORS whose
    name numpy reads as a plain file; where it raises, and for every other
    file, _csv_rows reads the rows and picks the message.
    """
    with open(path, newline="") as fh:
        fast = fh.seekable() and _plain_name(path)
        if fast:
            blocks = iter(functools.partial(fh.buffer.read, 1 << 20), b"")
            fast = not any(sep in block for block in blocks for sep in _SEPARATORS)
            fh.seek(0)
        first = fh.readline().removeprefix("\ufeff")
        if fast:
            try:
                return _c_columns(path, first)
            except (ValueError, csv.Error):
                pass
        return _csv_rows(itertools.chain([first], fh), path)


def cmd_rearrange(ns) -> int:
    values, areas = _read_samples(ns.infile)
    if not len(values):
        raise ValueError("no samples in %s" % ns.infile)
    _emit(ns, decreasing_rearrangement(WeightedSamples(values, areas)))
    return 0


def cmd_verify(ns) -> int:
    p = _load_profile(ns)
    kind = ns.inequality
    if kind == "alvino":
        t_win = ns.T if ns.T is not None else p.t_support
        report = alvino_ratio_sup(p, t_win)
    elif kind == "limine":
        report = check_limine(p)
    elif kind == "adachi":
        if ns.beta is None:
            raise ValueError("--beta is required for the adachi check")
        report = InequalityReport.from_sides(
            adachi_ratio(p, ns.beta, ns.tol), at_quadratic_bound(ns.beta)
        )
    else:
        if ns.lam is None:
            raise ValueError("--lambda is required for the zcharact check")
        lhs, witness = zygmund_quasinorm(p)
        report = InequalityReport.from_sides(lhs, zcharact_bound(p, ns.lam, ns.tol), witness)
    payload = {"inequality": kind}
    payload.update(report.to_dict())
    _emit(ns, payload)
    return 0 if report.holds else 1


def cmd_equivalence(ns) -> int:
    p = _load_profile(ns)
    if ns.direction == "at-to-ruf":
        if ns.beta is None:
            raise ValueError("--beta is required for at-to-ruf")
        trace = ruf_normalize(p, ns.beta)
    else:
        trace = adachi_split(p)
    payload = {"direction": ns.direction}
    # _emit writes the profiles from their arrays, not from to_dict's lists
    payload.update(dataclasses.replace(trace, profiles=()).to_dict())
    payload["profiles"] = list(trace.profiles)
    _emit(ns, payload)
    return 0


def cmd_optimize(ns) -> int:
    kind = "norm_sum" if ns.constraint == "norm-sum" else ns.constraint
    constraint = ConstraintSet(kind=kind, delta=ns.delta, K=ns.K, tau=ns.tau)
    if ns.beta is None:
        raise ValueError("--beta is required for optimize")
    result = maximize(
        constraint,
        ns.beta,
        n_knots=ns.knots,
        budget=ns.budget,
        seed=ns.seed,
    )
    payload = result.to_dict()
    payload["best_profile"] = result.best_profile
    # wall time is the one nondeterministic field; it travels with the
    # timestamp so the result file stays byte-identical across reruns
    ns.wall_time = payload.pop("wall_time")
    _emit(ns, payload)
    return 0


def cmd_scan_blowup(ns) -> int:
    n_list = [_exact_int(n) for n in ns.n_list]
    rows = blowup_scan(ns.delta, ns.K, ns.beta_list, n_list, tol=max(ns.tol, 1e-10))
    _emit(ns, {"rows": rows}, rows=rows)
    return 0


_TABLE_BETAS = (3.0 * math.pi, 3.5 * math.pi, 3.9 * math.pi, 3.99 * math.pi)
_BLOWUP_BETAS = (2.0 * math.pi, 4.0 * math.pi)
_BLOWUP_NS = (10**3, 10**4, 10**5, 10**6)


def cmd_table(ns) -> int:
    if ns.name == "blowup":
        rows = blowup_scan(0.0, 1.0, _BLOWUP_BETAS, _BLOWUP_NS, tol=max(ns.tol, 1e-10))
    elif ns.name == "constants":
        rows = []
        for beta in _TABLE_BETAS:
            b = beta / _4PI
            asym = math.exp(1.0 / (1.0 - b)) / (1.0 - b) ** 2
            c_best = at_constant_eps(beta, best_eps(beta))
            rows.append(
                {
                    "beta": beta,
                    "c_eps_best": c_best,
                    "quadratic_bound": at_quadratic_bound(beta),
                    "inv_one_minus_b": 1.0 / (1.0 - b),
                    "asym_equiv": asym,
                    "ratio_to_asym": c_best / asym,
                }
            )
    else:
        rows = []
        for k in (1.0, 4.0, 16.0, 64.0, 256.0):
            p = zygmund_optimal(k)
            q = zygmund_quasinorm(p)[0]
            sob = math.sqrt(dirichlet_norm_sq(p) + l2_norm_sq(p))
            rows.append(
                {
                    "k": k,
                    "quasinorm": q,
                    "sobolev": sob,
                    "ratio": math.sqrt(_4PI) * q / sob,
                }
            )
    _emit(ns, {"table": ns.name, "rows": rows}, rows=rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (json or csv)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=1e-10)

    profile_src = argparse.ArgumentParser(add_help=False)
    profile_src.add_argument("--profile", default=None, help="profile json file")
    profile_src.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default=None,
        help="named sequence family instead of --profile",
    )
    profile_src.add_argument("--n", type=int, default=None)
    profile_src.add_argument("--k", type=float, default=None)
    profile_src.add_argument("--delta", type=float, default=None)
    profile_src.add_argument("--T", type=float, default=None)
    profile_src.add_argument("--R", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="moser2d",
        description="Radial profiles, exponential-integral functionals, "
        "inequality checks, and constrained maximization on the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_or = sub.add_parser("oracles", parents=[common], help="closed-form oracle suite")
    p_or.set_defaults(func=cmd_oracles)

    p_ev = sub.add_parser(
        "eval", parents=[common, profile_src], help="norms and J_beta of a profile"
    )
    p_ev.add_argument("--beta", type=_beta, default=None)
    p_ev.set_defaults(func=cmd_eval)

    p_re = sub.add_parser(
        "rearrange", parents=[common], help="decreasing rearrangement of value,area csv"
    )
    p_re.add_argument("--in", dest="infile", required=True, help="csv of value,area rows")
    p_re.set_defaults(func=cmd_rearrange)

    p_vf = sub.add_parser(
        "verify", parents=[common, profile_src], help="check one inequality on a profile"
    )
    p_vf.add_argument(
        "--inequality",
        required=True,
        choices=("alvino", "limine", "adachi", "zcharact"),
    )
    p_vf.add_argument("--beta", type=_beta, default=None)
    p_vf.add_argument("--lambda", dest="lam", type=_beta, default=None)
    p_vf.set_defaults(func=cmd_verify)

    p_eq = sub.add_parser(
        "equivalence", parents=[common, profile_src], help="constructive norm transforms"
    )
    p_eq.add_argument("--direction", required=True, choices=("at-to-ruf", "ruf-to-at"))
    p_eq.add_argument("--beta", type=_beta, default=None)
    p_eq.set_defaults(func=cmd_equivalence)

    p_op = sub.add_parser(
        "optimize", parents=[common], help="maximize J_beta under a constraint set"
    )
    p_op.add_argument(
        "--constraint", required=True, choices=("reduced", "ruf", "norm-sum")
    )
    p_op.add_argument("--beta", type=_beta, default=None)
    p_op.add_argument("--delta", type=float, default=0.0)
    p_op.add_argument("--K", type=float, default=1.0)
    p_op.add_argument("--tau", type=float, default=1.0)
    p_op.add_argument("--knots", type=int, default=32)
    p_op.add_argument("--budget", type=int, default=100_000)
    p_op.set_defaults(func=cmd_optimize)

    p_sc = sub.add_parser(
        "scan-blowup", parents=[common], help="J of the rescaled blow-up family on a grid"
    )
    p_sc.add_argument("--delta", type=float, default=0.0)
    p_sc.add_argument("--K", type=float, default=1.0)
    p_sc.add_argument(
        "--betas",
        dest="beta_list",
        type=lambda s: _float_list(s, _beta),
        default=list(_BLOWUP_BETAS),
        help="comma list, e.g. 2pi,4pi",
    )
    p_sc.add_argument(
        "--ns",
        dest="n_list",
        type=lambda s: _float_list(s, str),
        default=list(_BLOWUP_NS),
        help="comma list of n values",
    )
    p_sc.set_defaults(func=cmd_scan_blowup)

    p_tb = sub.add_parser(
        "table", parents=[common], help="plot-ready csv tables"
    )
    p_tb.add_argument("name", choices=("blowup", "constants", "zygmund-optimality"))
    p_tb.set_defaults(func=cmd_table)
    return parser


# built on the first call to main; parse_args returns a fresh namespace
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    ns = _parser().parse_args(raw)
    ns.raw_argv = raw
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (OverflowError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
