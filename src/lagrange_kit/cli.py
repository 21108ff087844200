"""Command line front end.

Subcommands: coeffs (coefficients of f^k for f = x R(f)), invert
(compositional inverse of a series literal), identity (run a named
check), oracle (brute-force census against closed formulas), and list
(identity names).  Flags are read only as spelled in full.

Output formats: json (versioned with "schema": 1, key-sorted), csv
(fixed headers), each written by one helper for every command, and
pretty (human table; the only mode that reports elapsed time; a
polynomial is written as ``str`` writes a series).  Exit codes: 0 success, 1 identity or oracle failure,
2 usage or parse errors (a literal past ``scalars.LITERAL_BITS`` among
them), a coefficient too long to print (``SizeLimit``) and a self-check
that failed outside an identity suite (``SelfCheckFailed``), each
reported on one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import sys
import time
from fractions import Fraction
from math import factorial, gcd

from . import trees
from .errors import LagrangeKitError, ParseError, SizeLimit
from .identities import IDENTITY_CATALOG, MAX_ORDER, identity_names, run_identity
from .lagrange import solve_xR
from .scalars import LITERAL_BITS, _sum_text, format_rational, parse_rational
from .series import PowerSeries, _monomials

DEFAULT_ORDER = 30
SERIES_PRESETS = ("exp", "geom", "one-plus-t-squared")


class _UsageError(Exception):
    pass


def _order(args) -> int:
    """The --order given, or the default when it was left out."""
    return DEFAULT_ORDER if args.order is None else args.order


def _series_from_literal(literal: str, order: int) -> PowerSeries:
    """Comma-separated rationals, or one of the named presets."""
    text = literal.strip()
    if text == "exp":
        coeffs = [Fraction(1, factorial(n)) for n in range(order)]
    elif text == "geom":
        coeffs = [1] * order
    elif text == "one-plus-t-squared":
        coeffs = [1, 0, 1]
    else:
        coeffs = []
        position = 0
        for token in text.split(","):
            value = parse_rational(token, position)
            if max(abs(value.numerator), value.denominator).bit_length() > LITERAL_BITS:
                raise ParseError(
                    "rational literal %r at position %d exceeds %d bits"
                    % (token, position, LITERAL_BITS)
                )
            coeffs.append(value)
            position += len(token) + 1
    return PowerSeries(coeffs[:order], order)


def _parse_int_list(literal: str) -> list:
    out = []
    for token in literal.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(int(token))
        except ValueError:
            raise _UsageError("bad integer literal %r" % token)
    return out


# -- output ------------------------------------------------------------------


def _emit_json(payload, out) -> None:
    """``payload`` as schema-1 JSON, key-sorted with indent 2."""
    print(json.dumps({**payload, "schema": 1}, sort_keys=True, indent=2), file=out)


def _emit_csv(headers, rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def _emit_table(fmt, headers, rows, meta, elapsed_ms, out) -> None:
    if fmt == "json":
        _emit_json({**meta, "rows": [dict(zip(headers, row)) for row in rows]}, out)
    elif fmt == "csv":
        _emit_csv(headers, rows, out)
    else:
        widths = [
            max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
            for i, h in enumerate(headers)
        ]
        print(
            "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)), file=out
        )
        for row in rows:
            print(
                "  ".join(str(v).ljust(w) for v, w in zip(row, widths)), file=out
            )
        print("elapsed: %.1f ms" % elapsed_ms, file=out)


# -- subcommands ----------------------------------------------------------------


def _emit_coefficients(args, series, meta, started, out) -> int:
    """The n,value table of ``series`` below ``meta["order"]``, each value
    written from the stored form: on the rational path a numerator over
    the series' denominator, reduced by one gcd.  A value that Python
    cannot turn into text (its int digit limit) raises ``SizeLimit``
    naming it, before anything is written."""
    nums, den = series._form
    rows = []
    for n, c in enumerate(nums[: meta["order"]]):
        try:
            if den is None:
                text = format_rational(c)
            elif not c:
                text = "0"
            else:
                g = gcd(c, den)
                text = "%d" % (c // g) if g == den else "%d/%d" % (c // g, den // g)
        except ValueError:
            raise SizeLimit(
                "the coefficient of x^%d has too many digits to print" % n
            ) from None
        rows.append((n, text))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _emit_table(args.format, ("n", "value"), rows, meta, elapsed_ms, out)
    return 0


def cmd_coeffs(args, out) -> int:
    started = time.perf_counter()
    order = _order(args)
    r_series = _series_from_literal(args.series, order)
    if not r_series.constant_term:
        raise _UsageError("R must have a nonzero constant term")
    fk = solve_xR(r_series, args.k)
    meta = {"command": "coeffs", "R": args.series, "k": args.k, "order": order}
    return _emit_coefficients(args, fk, meta, started, out)


def cmd_invert(args, out) -> int:
    started = time.perf_counter()
    order = _order(args)
    g = _series_from_literal(args.series, order).reversion()
    meta = {"command": "invert", "f": args.series, "order": order}
    return _emit_coefficients(args, g, meta, started, out)


# subcommands that read no order reject --order instead of ignoring it
_ORDERLESS = ("oracle", "list")

# identity's flags, each passed only when given; --order too, so a suite
# that takes no order rejects it instead of running at its own size
_PARAM_FLAGS = ("order", "p", "i", "j", "r", "n_max", "seed")


def cmd_identity(args, out) -> int:
    name = args.name
    if name not in IDENTITY_CATALOG:
        raise _UsageError(
            "unknown identity %r; known: %s" % (name, ", ".join(identity_names()))
        )
    func = IDENTITY_CATALOG[name]
    accepted = set(inspect.signature(func).parameters)
    params = {}
    for flag in _PARAM_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in accepted:
            raise _UsageError(
                "identity %r does not take --%s" % (name, flag.replace("_", "-"))
            )
        params[flag] = value
    report = run_identity(name, **params)
    rendered = report.to_dict()
    if args.format == "json":
        _emit_json(rendered, out)
    elif args.format == "csv":
        packed = ";".join("%s=%s" % kv for kv in sorted(rendered["params"].items()))
        _emit_csv(
            ("identity", "params", "order", "status", "first_failure"),
            [(report.name, packed, report.order, report.status, report.first_failure or "")],
            out,
        )
    else:
        print(
            "identity %s: %s (order %d, %.1f ms)"
            % (report.name, report.status.upper(), report.order, report.elapsed_ms),
            file=out,
        )
        if report.first_failure:
            print("first failure: %s" % report.first_failure, file=out)
        for key, value in sorted(rendered.get("details", {}).items()):
            if key == "polynomial":  # fc-polynomial's integer coefficients
                value = _sum_text(_monomials(value))
            print("%s: %s" % (key, value), file=out)
    return 0 if report.passed else 1


# the flags each oracle kind reads, with their defaults; the others stay
# None unless given, so a kind rejects a flag it does not read
_ORACLE_FLAGS = {
    "ordered-forest": {"n": 6, "k": 1},
    "labeled-forest": {"n": 6, "k": 1},
    "prufer": {"m": 5},
    "degree-trees": {"m": 5},
    "cycle-lemma": {"alphabet": "-1,0,1,2", "len": 6},
}


def cmd_oracle(args, out) -> int:
    started = time.perf_counter()
    reads = _ORACLE_FLAGS[args.kind]
    meta = {"command": "oracle", "kind": args.kind}
    for flag in ("n", "k", "m", "alphabet", "len"):
        value = getattr(args, flag)
        if flag in reads:
            meta[flag] = reads[flag] if value is None else value
        elif value is not None:
            raise _UsageError("oracle %r does not take --%s" % (args.kind, flag))
    alphabet = _parse_int_list(meta["alphabet"]) if "alphabet" in meta else None
    rows = [
        (label, census, formula, "yes" if census == formula else "NO")
        for label, census, formula in trees.oracle_rows(
            args.kind,
            n=meta.get("n"),
            k=meta.get("k"),
            m=meta.get("m"),
            alphabet=alphabet,
            length=meta.get("len"),
        )
    ]
    _emit_table(
        args.format,
        ("case", "oracle", "formula", "match"),
        rows,
        meta,
        (time.perf_counter() - started) * 1000.0,
        out,
    )
    return 1 if any(row[3] == "NO" for row in rows) else 0


def cmd_list(args, out) -> int:
    names = identity_names()
    if args.format == "json":
        _emit_json({"identities": names}, out)
    elif args.format == "csv":
        _emit_csv(("identity",), [(name,) for name in names], out)
    else:
        print("\n".join(names), file=out)
    return 0


# -- argument wiring ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only reads it."""
    # every parser reads a flag only as spelled in full: --s is not --seed
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument(
        "--order", type=int, default=None,
        help="truncation order (default %d)" % DEFAULT_ORDER,
    )
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="pretty"
    )
    parser = argparse.ArgumentParser(
        prog="lagrange-kit",
        description="Exact power series inversion, identity checks, and "
        "combinatorial oracles.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p = add("coeffs", help="coefficients of f^k for f = x R(f)")
    p.add_argument("--R", dest="series", default="geom", help="coefficient list or preset (%s)" % ", ".join(SERIES_PRESETS))
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_coeffs)

    p = add("invert", help="compositional inverse of a series literal")
    p.add_argument("--R", dest="series", required=True, help="coefficient list of the series to invert")
    p.set_defaults(func=cmd_invert)

    p = add("identity", help="run a named identity check")
    p.add_argument("name")
    for flag in _PARAM_FLAGS[1:]:  # --order comes from common
        p.add_argument("--" + flag.replace("_", "-"), type=int, default=None)
    p.set_defaults(func=cmd_identity)

    p = add("oracle", help="brute-force census vs closed formula")
    p.add_argument("kind", choices=trees.ORACLE_KINDS)
    for flag in ("--n", "--k", "--m", "--len"):
        p.add_argument(flag, type=int, default=None)
    p.add_argument("--alphabet", default=None)
    p.set_defaults(func=cmd_oracle)

    p = add("list", help="list identity names")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    # join "--alphabet -1,0,1" so the negative entry is not read as a flag;
    # the loop then goes on at the token after the joined value
    for idx, token in enumerate(argv):
        if token == "--alphabet" and idx + 1 < len(argv):
            argv[idx:idx + 2] = ["--alphabet=%s" % argv[idx + 1]]
    args = build_parser().parse_args(argv)
    try:
        if args.order is not None and args.command in _ORDERLESS:
            raise _UsageError("%s does not take --order" % args.command)
        if not 1 <= _order(args) <= MAX_ORDER:
            raise _UsageError("order must lie in 1..%d" % MAX_ORDER)
        return args.func(args, out)
    except (_UsageError, LagrangeKitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
