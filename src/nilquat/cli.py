"""Command line front end.

Subcommands: census, decompose, verify, table.  Exit codes: 0 success,
1 invalid input or command line, 2 enumeration cap exceeded, 3 trace
obstruction, 4 target outside the orbit union, 5 factor not nilpotent,
6 census mismatch or verification violations.  The cap is checked where
a command first builds Q^4 data, so work that needs none, such as most
of ``decompose`` and the ``example39`` suite, runs on any ring.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager

from .chain_ring import ring_from_string
from .mat2 import (DEFAULT_ENUMERATION_CAP, CapExceededError, matrix_space,
                   parse_matrix)
from .nilfactor import (DEFAULT_SEED, DecompositionError,
                        NotInOrbitUnionError, NotNilpotentError,
                        TraceObstructionError, census_formula_only,
                        census_orbit_union, census_set_product, decompose)
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_TRACE = 3
EXIT_UNION = 4
EXIT_NILPOTENT = 5
EXIT_MISMATCH = 6

_CENSUS_FIELDS = ("ring", "q", "n", "s", "brute_count", "formula_count",
                  "match", "method")
_TABLE_FIELDS = _CENSUS_FIELDS + ("error",)
_THREADS_HELP = "accepted for compatibility; has no effect"
# decompose holds and prints s factors, and table a row per s, so memory
# and output grow with s; past this both refuse before building anything
_S_LIMIT = 10_000


@contextmanager
def _exact_ints():
    """Lift the interpreter's int-to-str digit limit, where it has one
    (Python 3.10.7 on), while the CLI writes its own output: a count is
    exact, whatever its length."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    with _exact_ints():
        return str(value)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(fields, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_cell(row.get(k)) for k in fields])
    return buf.getvalue()


def _json_text(payload) -> str:
    with _exact_ints():
        return json.dumps(payload, indent=2) + "\n"


def _census(ring, s: int, method: str, cap: int):
    """One census by its --method name; the report of census and table."""
    if method == "formula":
        return census_formula_only(ring, s)
    space = matrix_space(ring, cap)
    if method == "set-product":
        return census_set_product(space, s)
    return census_orbit_union(space, s)


def _cmd_census(args) -> int:
    if args.s < 1:
        raise ValueError("s must be >= 1")
    report = _census(ring_from_string(args.ring), args.s, args.method,
                     args.cap)
    payload = report.to_dict(stable=args.stable_output)
    if args.fmt == "json":
        text = _json_text(payload)
    elif args.fmt == "csv":
        fields = list(_CENSUS_FIELDS)
        if "elapsed_ms" in payload:
            fields.append("elapsed_ms")
        text = _csv_text(fields, [payload])
    else:
        pairs = " ".join(f"{k}={_cell(v)}" for k, v in payload.items())
        text = pairs + "\n"
    _emit(text, args.out)
    return EXIT_MISMATCH if report.match is False else EXIT_OK


_DECOMPOSE_KINDS = (
    (TraceObstructionError, "trace-obstruction", EXIT_TRACE),
    (NotInOrbitUnionError, "not-in-orbit-union", EXIT_UNION),
    (NotNilpotentError, "not-nilpotent", EXIT_NILPOTENT),
)


def _cmd_decompose(args) -> int:
    if args.s < 1:
        raise ValueError("s must be >= 1")
    if args.s > _S_LIMIT:
        raise ValueError(f"s must be at most {_S_LIMIT}")
    ring = ring_from_string(args.ring)
    target = parse_matrix(ring, args.matrix)
    try:
        fact = decompose(matrix_space(ring, args.cap), target, args.s)
    except DecompositionError as exc:
        kind, code = "decomposition-error", EXIT_USAGE
        for cls, name, c in _DECOMPOSE_KINDS:
            if isinstance(exc, cls):
                kind, code = name, c
                break
        payload = {"error": str(exc), "kind": kind}
        if args.fmt == "json":
            _emit(_json_text(payload), args.out)
        else:
            _emit(f"refused ({kind}): {exc}\n", args.out)
        return code
    payload = fact.to_dict()
    if args.fmt == "json":
        text = _json_text(payload)
    else:
        lines = [f"target: {payload['target']}",
                 f"factors ({len(payload['factors'])}):"]
        lines += [f"  {f}" for f in payload["factors"]]
        lines += [f"conjugator: {payload['conjugator']}", "verified: true"]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ring = ring_from_string(args.ring)
    names = tuple(t for t in args.suite.split(",") if t)
    results = run_suites(ring, names, cap=args.cap, samples=args.samples,
                         seed=args.seed)
    if args.fmt == "json":
        text = _json_text([r.to_dict() for r in results])
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = (f"{status} {r.suite} checks={r.checks} "
                    f"violations={r.violations}")
            if r.note:
                line += f" ({r.note})"
            lines.append(line)
        failed = sum(not r.passed for r in results)
        if failed:
            lines.append(f"FAIL: {failed} of {len(results)} suites")
        else:
            lines.append(f"ok: {len(results)} suites")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_MISMATCH


def _parse_s_values(text: str) -> list[int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty s range {text!r}")
    else:
        lo = hi = int(text)
    if hi > _S_LIMIT:
        raise ValueError(f"s must be at most {_S_LIMIT}")
    if hi - lo >= _S_LIMIT:
        raise ValueError(f"s range {text!r} holds more than {_S_LIMIT} values")
    return list(range(lo, hi + 1))


def _cmd_table(args) -> int:
    ring_specs = [t for t in args.rings.split(",") if t]
    if not ring_specs:
        raise ValueError("no ring specs given")
    s_values = _parse_s_values(args.s)
    rows = []
    clean = True
    for spec_text in ring_specs:
        for s in s_values:
            row = {"ring": spec_text, "q": None, "n": None, "s": s,
                   "brute_count": None, "formula_count": None,
                   "match": None, "method": args.method, "error": None}
            try:
                if s < 1:
                    raise ValueError("s must be >= 1")
                ring = ring_from_string(spec_text)
                row["q"], row["n"] = ring.q, ring.n
                report = _census(ring, s, args.method, args.cap)
                row.update(report.to_dict(stable=True))
                if report.match is False:
                    clean = False
            except ValueError as exc:  # includes the cap guard
                row["error"] = str(exc)
                clean = False
            rows.append(row)
    _emit(_csv_text(_TABLE_FIELDS, rows), args.out)
    return EXIT_OK if clean else EXIT_MISMATCH


def _add_common(sp, *, formats, default_format) -> None:
    sp.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                    help="refuse rings with more than this many 2x2 matrices")
    sp.add_argument("--format", dest="fmt", choices=formats,
                    default=default_format)
    sp.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nilquat",
        description="Nilpotent products in quaternion rings over finite "
                    "chain rings of odd order.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="count s-fold nilpotent products")
    c.add_argument("--ring", required=True,
                   help="ring spec, zmod:p^n or polyq:p^r^n")
    c.add_argument("--s", type=int, required=True, help="number of factors")
    c.add_argument("--method", default="set-product",
                   choices=("set-product", "orbit-union", "formula"))
    c.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    c.add_argument("--stable-output", action="store_true",
                   help="omit timing fields so runs diff cleanly")
    _add_common(c, formats=("json", "csv", "text"), default_format="json")
    c.set_defaults(func=_cmd_census)

    d = sub.add_parser("decompose",
                       help="factor a matrix into s nilpotents")
    d.add_argument("--ring", required=True)
    d.add_argument("--matrix", required=True,
                   help="target, e.g. [[(0,0),(1,0)],[(0,0),(0,0)]]")
    d.add_argument("--s", type=int, required=True)
    _add_common(d, formats=("json", "text"), default_format="json")
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", help="run structural verification suites")
    v.add_argument("--ring", required=True)
    v.add_argument("--suite", default="all",
                   help="comma separated suite names; one of "
                        + ", ".join(SUITE_NAMES) + ", all")
    v.add_argument("--samples", type=int, default=100_000)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    _add_common(v, formats=("text", "json"), default_format="text")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("table", help="censuses over several rings as CSV")
    t.add_argument("--rings", required=True,
                   help="comma separated ring specs")
    t.add_argument("--s", required=True,
                   help="factor count, a single value or a range lo..hi")
    t.add_argument("--method", default="set-product",
                   choices=("set-product", "orbit-union", "formula"))
    t.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    t.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_table)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2, the cap's code, on a usage error and 0 on --help
        return EXIT_USAGE if exc.code else EXIT_OK
    if getattr(args, "threads", 1) < 1:
        print("error: threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:  # OSError: an --out not written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
