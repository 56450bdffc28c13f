"""Command-line interface.

Exit codes: 0 success, 1 domain error (anything derived from GogError, plus
bad argument values, an unreadable input and an unwritable or closed
output), 2 usage error (argparse).  Output is deterministic for
fixed inputs and seeds: JSON is emitted with sorted keys and no whitespace,
integers print as exact decimal strings, and rationals carry exact
numerator/denominator columns with 12-significant-digit decimals as
presentation only.  Large integers are JSON strings, never numbers.

A cold `gog` process enters through `run`, which calls `main`, flushes
stdout and stderr and ends with `os._exit`, skipping the interpreter's
teardown of the modules it loaded: `atexit` handlers and finalizers
registered in that process do not run.  `main` itself never ends the
process, so calling it in process is unaffected.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn

from .errors import GogError, VerificationFailure

if TYPE_CHECKING:
    from fractions import Fraction


def _decimal(value: Fraction, sig: int = 12) -> str:
    approx = float(value)
    if abs(approx) >= sys.float_info.min or not value:
        return f"{approx:.{sig}g}"
    # Zero or subnormal as a double, which holds fewer than `sig` digits:
    # round the exact value instead.
    from decimal import Decimal, localcontext

    with localcontext() as context:
        context.prec = sig
        exact = Decimal(value.numerator) / Decimal(value.denominator)
    return f"{exact.normalize():.{sig}g}"


def _int_arg(low: int, high: float, rejected: str) -> Callable[[str], int]:
    """An argparse type: the int that `text` spells, in [low, high); a value
    outside is `rejected`, worded with %r for the text."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if not low <= value < high:
            raise argparse.ArgumentTypeError(rejected % (text,))
        return value

    return parse


_POSITIVE = _int_arg(1, float("inf"), "expected a positive integer, got %r")
_NONNEGATIVE = _int_arg(0, float("inf"), "expected a nonnegative integer, got %r")
_SEED = _int_arg(-(2**63), 2**64, "seed %r does not fit in 64 bits")


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


# Each command imports the modules it runs, so that a cold `gog` process
# compiles no more of the package than its command needs.


def cmd_asm_count(args: argparse.Namespace) -> int:
    from . import counting

    if args.method == "formula":
        value = counting.asm_number(args.n)
    else:
        value = counting.asm_number_dp(args.n)
    print(value)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import enumeration, triangles

    for chunk in triangles.triangles_to_text_chunks(enumeration.enumerate_triangles(args.n)):
        sys.stdout.write(chunk)
    return 0


# The parser for each `--from` format.  The matrix parsers and writers are
# looked up on `triangles` too, which loads `matrices` for them on first use.
_PARSERS = {
    "triangle": "parse_triangles",
    "column-sum": "parse_column_sums",
    "asm": "parse_asms",
}


def cmd_convert(args: argparse.Namespace) -> int:
    from . import triangles

    objects = getattr(triangles, _PARSERS[args.source])(_read_input(args.input))
    ts = [t if isinstance(t, triangles.MonotoneTriangle) else t.to_triangle() for t in objects]
    if not ts:
        return 0
    if args.target == "triangle":
        sys.stdout.write(triangles.triangles_to_text(ts))
    elif args.target == "column-sum":
        sys.stdout.write(triangles.matrices_to_text([t.to_column_sum() for t in ts]))
    else:
        sys.stdout.write(triangles.matrices_to_text([t.to_asm() for t in ts]))
    return 0


def cmd_meet(args: argparse.Namespace) -> int:
    from . import lattice, triangles

    ts = triangles.parse_triangles(_read_input(args.input))
    op = lattice.meet if args.operation == "meet" else lattice.join
    sys.stdout.write(str(op(ts)) + "\n")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    from . import census

    sys.stdout.write(census.gap_product_census(args.n).to_text())
    return 0


def cmd_pmin(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import counting

    if args.method == "ie":
        from . import meet_census

        n_min = meet_census.n_min_exact(args.n, args.r)
    else:
        from . import census

        n_min = census.n_min_census(args.n, args.r)
    p_min = Fraction(n_min, counting.asm_number(args.n) ** args.r)
    payload = {
        "n": args.n,
        "r": args.r,
        "n_min": str(n_min),
        "p_min_num": str(p_min.numerator),
        "p_min_den": str(p_min.denominator),
        "p_min_decimal": _decimal(p_min),
    }
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(payload):
            print(f"{key}\t{payload[key]}")
    return 0


def cmd_theorem1(args: argparse.Namespace) -> int:
    from . import meet_census

    reports = meet_census.theorem_report(args.n_max, args.r)
    print("n\tn_min\tp_min_num\tp_min_den\tp_min_decimal\tratio_num\tratio_den\tratio_decimal")
    for rep in reports:
        ratio = rep.theorem1_ratio
        print(
            f"{rep.n}\t{rep.n_min}\t{rep.p_min.numerator}\t{rep.p_min.denominator}\t"
            f"{_decimal(rep.p_min)}\t{ratio.numerator}\t{ratio.denominator}\t{_decimal(ratio)}"
        )
    return 0


def cmd_theorem2(args: argparse.Namespace) -> int:
    from . import meet_census

    reports = meet_census.theorem_report(args.n_max, args.r)
    print("n\tn_min\tmain\tsecond\tE\ttheta_ratio_decimal")
    for rep in reports:
        print(
            f"{rep.n}\t{rep.n_min}\t{rep.main_term}\t{rep.second_term}\t"
            f"{rep.error_term}\t{_decimal(rep.theta_ratio)}"
        )
    return 0


def cmd_classes(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import census

    sizes = census.class_sizes(args.n, args.r)
    print("label\tsize\tbound\tratio_decimal")
    rows = [
        (f"C_{v}", size, census.class_bound(args.n, args.r, v))
        for v, size in sorted(sizes.exact_sizes.items(), reverse=True)
    ]
    rows.append((f"C_<={sizes.tail_threshold}", sizes.tail_size, None))
    for label, size, bound in rows:
        if bound is None or bound == 0:
            print(f"{label}\t{size}\t\t")
        else:
            print(f"{label}\t{size}\t{bound}\t{_decimal(Fraction(size, bound))}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from . import enumeration, triangles

    ts = enumeration.sample_uniform(args.n, args.count, args.seed)
    sys.stdout.write(triangles.triangles_to_text(ts))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    try:
        for name, checks in verify.run_suites(args.suite, args.n_max):
            print(f"OK {name} checks={checks}")
    except VerificationFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


_NO_EFFECT = "accepted; has no effect"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gog",
        description="Exact combinatorics of the monotone-triangle lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm-count", help="exact count of size-n triangles")
    p.add_argument("--n", type=_NONNEGATIVE, required=True)
    p.add_argument("--method", choices=("formula", "dp"), default="formula")
    p.set_defaults(func=cmd_asm_count)

    p = sub.add_parser("enumerate", help="stream all size-n triangles")
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--workers", type=_POSITIVE, default=1, help=_NO_EFFECT)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("convert", help="convert between triangle/matrix forms")
    p.add_argument("--from", dest="source", choices=tuple(_PARSERS), required=True)
    p.add_argument("--to", dest="target", choices=tuple(_PARSERS), required=True)
    p.add_argument("--input", help="input path; defaults to stdin")
    p.set_defaults(func=cmd_convert)

    for name in ("meet", "join"):
        p = sub.add_parser(name, help=f"entry-wise {name} of a triangle stream")
        p.add_argument("--input", help="input path; defaults to stdin")
        p.set_defaults(func=cmd_meet, operation=name)

    p = sub.add_parser(
        "census",
        help="distinguished-row census from the gap products",
        description="Print the census, computed on every call; nothing is read or "
        "written, and $GOG_CACHE_DIR is ignored.",
    )
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--cache-dir", help=_NO_EFFECT)
    p.add_argument("--workers", type=_POSITIVE, default=1, help=_NO_EFFECT)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("pmin", help="exact trivial-meet count and probability")
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--r", type=_POSITIVE, required=True)
    p.add_argument(
        "--method",
        choices=("ie", "census"),
        default="ie",
        help="ie: the exact transfer-matrix count (name kept for compatibility); "
        "census: the enumeration oracle, n <= 7",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=_POSITIVE, default=1, help=_NO_EFFECT)
    p.set_defaults(func=cmd_pmin)

    p = sub.add_parser("theorem1", help="ratio p_min*A(n)/r trajectory")
    p.add_argument("--r", type=_POSITIVE, required=True)
    p.add_argument("--n-max", type=_POSITIVE, required=True)
    p.add_argument("--workers", type=_POSITIVE, default=1, help=_NO_EFFECT)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("theorem2", help="second-order decomposition table")
    p.add_argument("--r", type=_POSITIVE, required=True)
    p.add_argument("--n-max", type=_POSITIVE, required=True)
    p.add_argument("--workers", type=_POSITIVE, default=1, help=_NO_EFFECT)
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("classes", help="trivial-meet class sizes and bounds")
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--r", type=_POSITIVE, required=True)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("sample", help="exact uniform triangle samples")
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--count", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument(
        "--suite",
        choices=("bijections", "lattice", "lemmas", "census", "theorems", "all"),
        required=True,
    )
    p.add_argument("--n-max", type=_POSITIVE, default=6)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Lift CPython's cap on int-to-str digits (4300 by default, 0 for none,
    # and no cap before 3.10.7) while the command runs, and restore it after.
    cap = getattr(sys, "get_int_max_str_digits", int)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        # A closed reader of the output still buffered is met here, where
        # the handler below reports it, and not in a flush after `main`.
        sys.stdout.flush()
        return status
    except (GogError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone: let the later flush of the unwritten
            # output go nowhere instead of failing again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def run() -> NoReturn:
    """The process entry of `gog`: run `main` on the command line, flush
    stdout and stderr and end the process with its status, skipping the
    interpreter's teardown.  An argparse exit with an int code is such a
    status; any other exit or exception, and a flush that fails, leave
    through the interpreter as they would without this entry."""
    try:
        status = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        status = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
