"""Command-line surface: constant tables, single reductions, verification
campaigns, and the two-rounding failure demo.

Output is either a table in the significand * 2^exponent layout (easy to
diff against the published constants) or JSON with stable key order, so
identical arguments and seed give byte-identical output.  Decimal
arguments are converted by exact rational rounding, never through a
host float, so results are platform-independent.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .constgen import HypothesisViolation, audit, format_table, gen_constants, set_to_record
from .realnum import NAMED_CONSTANTS, AmbiguousRoundingError, Constant, RealEnclosure
from .reduction import ReductionRangeError, reduce
from .softfp import FORMATS, TIES_AWAY, TIES_EVEN, Format, Fpn, round_nearest

__all__ = ["main"]

_DECIMAL_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d*))?(?:[eE]([+-]?\d+))?$")


def parse_decimal(text: str, fmt: Format | None = None) -> Fraction:
    """Exact decimal-to-rational conversion ('10.0', '-3.25e2', ...).  Given
    fmt, a value below 2^(e_min_q-2) is 0 and one at or above 2^(e_max+1)
    raises OverflowError, decided before 10**|E| is built."""
    m = _DECIMAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse decimal {text!r}")
    sign, intpart, fracpart, exp = m.groups()
    sig = (intpart + (fracpart or "")).lstrip("0")
    e10 = int(exp or 0) - len(fracpart or "")  # |value| = int(sig) * 10^e10
    top = len(sig) + e10  # 10^(top-1) <= |value| < 10^top, and 8^k <= 10^k for k >= 0
    if not sig or fmt is not None and 3 * top <= min(0, fmt.e_min_q - 2):
        return Fraction(0)
    if fmt is not None and 3 * (top - 1) >= max(0, fmt.e_max + 1):
        raise OverflowError(f"--x {text} exceeds the e_max={fmt.e_max} range")
    value = Fraction(int(sig) * 10**e10) if e10 >= 0 else Fraction(int(sig), 10**-e10)
    return -value if sign == "-" else value


def parse_x(text: str, fmt: Format, ties: str) -> Fpn:
    """Accept the textual FPN form (contains '*') or an exact decimal."""
    if "*" in text:
        return Fpn.from_text(text, fmt)
    return round_nearest(parse_decimal(text, fmt), fmt, ties=ties)


def _parse_dyadic(text: str) -> Fraction:
    m = isinstance(text, str) and re.match(r"^\s*([+-]?\d+)\s*\*\s*2\^([+-]?\d+)\s*$", text)
    if not m:
        raise ValueError(f"cannot parse dyadic bound {text!r}")
    sig, e = int(m.group(1)), int(m.group(2))
    return Fraction(sig) * Fraction(2) ** e


def load_constant(selector: str) -> Constant:
    """'pi', 'ln2', or a JSON file with dyadic enclosure bounds."""
    if selector in NAMED_CONSTANTS:
        return NAMED_CONSTANTS[selector]
    path = Path(selector)
    if not path.is_file():
        raise ValueError(f"unknown constant {selector!r} (not a preset or a file)")
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "lo" not in data or "hi" not in data:
        raise ValueError(f"constant file {selector!r} is not a JSON object with \"lo\" and \"hi\"")
    lo, hi = _parse_dyadic(data["lo"]), _parse_dyadic(data["hi"])
    bits = int(data.get("bits", 64))
    enc = RealEnclosure(lo, hi, bits, None)
    return Constant.from_enclosure(str(data.get("name", path.stem)), enc)


def resolve_format(args: argparse.Namespace) -> Format:
    """The --format preset (double by default), or the format --p, --e-min-q and
    --e-max define; an option the chosen format would not read is refused."""
    if args.p is None:
        if (args.e_min_q, args.e_max) != (None, None):
            raise ValueError("--e-min-q and --e-max need --p")
        return FORMATS[args.format or "double"]
    if args.format is not None:
        raise ValueError("--p defines a format; it takes no --format")
    if args.e_min_q is None:
        raise ValueError("--p needs --e-min-q")
    return Format(p=args.p, e_min_q=args.e_min_q, e_max=16383 if args.e_max is None else args.e_max)


def frac_sci(f: Fraction, digits: int = 6) -> str:
    """Short scientific rendering of an exact rational."""
    if f == 0:
        return "0"
    sign = "-" if f < 0 else ""
    a = abs(f)
    e10 = len(str(a.numerator)) - len(str(a.denominator))
    t = a * Fraction(10) ** (-e10)
    while t < 1:  # the digit counts put t in (1/10, 10)
        t *= 10
        e10 -= 1
    scaled = int(t * 10 ** (digits - 1) + Fraction(1, 2))
    if scaled >= 10**digits:
        scaled //= 10
        e10 += 1
    s = str(scaled)
    return f"{sign}{s[0]}.{s[1:]}e{e10:+d}"


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_constants(args: argparse.Namespace) -> int:
    if args.all and (args.format, args.p, args.e_min_q, args.e_max) != (None,) * 4:
        raise ValueError("--all runs the four presets; it takes no --format, --p, --e-min-q or --e-max")
    jobs = [(c, f) for c in ("pi", "ln2") for f in FORMATS] if args.all else [(args.const, None)]
    grouped: dict[str, list] = {}
    for cname, flabel in jobs:
        constant = load_constant(cname)
        fmt = FORMATS[flabel] if flabel else resolve_format(args)
        try:
            cs = gen_constants(constant, fmt, n=args.N, q=args.q)
        except HypothesisViolation as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        grouped.setdefault(constant.name, []).append(cs)
    audit_failures = []
    if args.json:
        _emit_json([set_to_record(cs) for sets in grouped.values() for cs in sets])
    else:
        for cname, sets in grouped.items():
            print(f"constant: {cname}  (N={args.N}, q={args.q})")
            print(format_table(sets))
            print()
    if args.audit:
        for cname, sets in grouped.items():
            for cs in sets:
                rep = audit(cs)
                if not args.json:
                    print(f"audit {cname}/{set_to_record(cs)['precision']}:")
                    for line in rep.lines():
                        print("  " + line)
                for c in rep.failed_checks():
                    audit_failures.append(f"{cname}: {c.theorem}: {c.hypothesis}")
        if audit_failures:
            for f in audit_failures:
                print(f"audit failure: {f}", file=sys.stderr)
            return 1
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    constant = load_constant(args.const)
    fmt = resolve_format(args)
    ties = args.ties
    try:
        cs = gen_constants(constant, fmt, n=args.N, q=args.q)
        x = parse_x(args.x, fmt, ties)
        out = reduce(x, cs, ties=ties)
    except ReductionRangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        print("the admissible bound is |x*R| <= 2^(p-N-2) - 2^-N", file=sys.stderr)
        return 1
    # near the underflow threshold s and the residual carry thousands of
    # decimal digits, above the interpreter's default limit for str(int)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        record = {
            "x": x.to_text(),
            "constant": constant.name,
            "N": args.N,
            "q": args.q,
            "z": out.z.to_text(),
            "u": out.u.to_text(),
            "v1": out.v1.to_text(),
            "v2": out.v2.to_text(),
            "w": out.w.to_text(),
            "ell": out.ell,
            "s": str(out.s),
            "exact_first": out.exact_first,
            "exact_second": out.exact_second,
            "rounding_ops_second": out.rounding_ops_second,
            "residual_hi": str(out.residual_hi) if out.residual_hi is not None else None,
        }
        if args.json:
            _emit_json(record)
            return 0
        print(f"x  = {record['x']}")
        print(f"z  = {record['z']}   (ell={out.ell}, s={frac_sci(out.s)})")
        print(f"u  = {record['u']}   exact={out.exact_first}")
        print(f"v1 = {record['v1']}")
        print(f"v2 = {record['v2']}   exact v1+v2={out.exact_second}, ops={out.rounding_ops_second}")
        print(f"w  = {record['w']}")
        if out.residual_hi is not None:
            print(f"|v1 + w - (x - z*C)| in [{frac_sci(out.residual_lo)}, {frac_sci(out.residual_hi)}]")
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(t) for t in text.split(",") if t != "")
    if not values:
        # an empty --N or --q list would run no case and still pass
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")
    return values


def cmd_verify(args: argparse.Namespace) -> int:
    from .theorems import CheckConfig, default_jobs, run_check

    same = ("theorem", "beta", "p", "p1", "p2", "window", "seed", "trials", "ties", "r_step")
    cfg = CheckConfig(
        **{name: getattr(args, name) for name in same},
        n_values=_int_list(args.N) if args.N else (0, 1, 2),
        q_values=_int_list(args.q) if args.q else (2,),
        mode="exhaustive" if args.exhaustive else "randomized",
        constant=args.const,
        fmt=args.format,
        jobs=default_jobs() if args.jobs is None else args.jobs,
    )
    res = run_check(cfg)
    if args.json:
        _emit_json(res.to_record())
    else:
        status = "pass" if res.passed else "FAIL"
        print(f"{res.theorem}: {status} ({res.cases} cases)")
        for key, val in sorted(res.stats.items()):
            print(f"  {key}: {val}")
        for fail in res.failures[:20]:
            print(f"  counterexample: {json.dumps(fail, sort_keys=True)}")
        if len(res.failures) > 20:
            print(f"  ... {len(res.failures) - 20} more")
        if not res.failures and "correct1" == res.theorem and 1 in cfg.q_values:
            print("  no counterexample found (informative only, not a converse claim)")
    return 0 if res.passed else 1


def cmd_demo_codywaite(args: argparse.Namespace) -> int:
    from .theorems import demo_codywaite

    report = demo_codywaite()
    if args.json:
        _emit_json(report)
        return 0
    print("two-rounding versus fma first step (double precision, C = pi)")
    print(f"  x                = {report['x']}")
    print(f"  z                = {report['z']}")
    print(f"  C1 (p-2 bits)    = {report['C1_pipeline']}")
    print(f"  C1 (full p bits) = {report['C1_full']}")
    print(f"  o(x - o(z*C1_full)) = {report['two_round_u']}")
    print(f"    product rounded: {report['two_round_product_inexact']}, "
          f"error vs x - z*C1_full = {report['two_round_error_vs_x_zC1full']}")
    print(f"  fma(x - z*C1)       = {report['fma_u']}")
    print(f"    exact: {report['fma_exact']} (error 0); cancelled bits: {report['cancellation_bits']}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_set_args(sp: argparse.ArgumentParser) -> None:
    """The options that pick a constant set: its format, N and q."""
    sp.add_argument("--format", choices=sorted(FORMATS))
    sp.add_argument("--p", type=int, help="explicit precision (with --e-min-q)")
    sp.add_argument("--e-min-q", type=int)
    sp.add_argument("--e-max", type=int)
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--q", type=int, default=2)


@functools.cache
def build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, argparse.ArgumentParser | None]:
    """The nested argred parser with only `command`'s options added, and that
    command's own parser (prog `argred <command>`) or None.  Every subcommand's
    name and help stay, for --help and the usage errors.  Parsing leaves a
    parser unchanged, so main() calls share them."""
    ap = argparse.ArgumentParser(
        prog="argred",
        description="fma-based argument reduction: constants, reductions, verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="generate and print constant sets")
    if command == "constants":
        c.add_argument("--const", default="pi", help="pi, ln2, or a JSON enclosure file")
        _add_set_args(c)
        c.add_argument("--all", action="store_true", help="both constants x all four presets")
        c.add_argument("--audit", action="store_true")
        c.add_argument("--json", action="store_true")
        c.set_defaults(fn=cmd_constants)

    r = sub.add_parser("reduce", help="run one reduction")
    if command == "reduce":
        r.add_argument("--x", required=True, help="decimal or 'm * 2^e'")
        r.add_argument("--const", default="pi")
        _add_set_args(r)
        r.add_argument("--json", action="store_true")
        r.add_argument("--ties", choices=(TIES_EVEN, TIES_AWAY), default=TIES_EVEN)
        r.set_defaults(fn=cmd_reduce)

    v = sub.add_parser("verify", help="run a theorem check")
    if command == "verify":
        from .theorems import _CHECKS

        v.add_argument("--theorem", required=True, choices=tuple(_CHECKS))
        v.add_argument("--beta", type=int, default=2)
        v.add_argument("--p", type=int, default=None)
        v.add_argument("--p1", type=int, default=None)
        v.add_argument("--p2", type=int, default=None)
        v.add_argument("--window", type=int, default=None, help="binades (default: the check's own)")
        v.add_argument("--N", default=None, help="comma-separated list")
        v.add_argument("--q", default=None, help="comma-separated list")
        v.add_argument("--exhaustive", action="store_true")
        v.add_argument("--trials", type=int, default=10000)
        v.add_argument("--seed", type=int, default=0)
        v.add_argument("--const", choices=("pi", "ln2"), default="pi")
        v.add_argument("--format", choices=sorted(FORMATS), default="double")
        v.add_argument("--r-step", type=int, default=1)
        v.add_argument("--ties", choices=(TIES_EVEN, TIES_AWAY), default=TIES_EVEN)
        v.add_argument("--jobs", type=int, default=None, help="worker processes (default: $ARGRED_JOBS or 1)")
        v.add_argument("--json", action="store_true")
        v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("demo-codywaite", help="show a two-rounding failure the fma avoids")
    if command == "demo-codywaite":
        d.add_argument("--json", action="store_true")
        d.set_defaults(fn=cmd_demo_codywaite)
    return ap, sub.choices.get(command)


def main(argv: list[str] | None = None) -> int:
    """`argred <argv>`: a command named first is parsed by its own parser; any other
    argv, or leftovers, go to the nested parser, which prints help and usage errors."""
    argv = sys.argv[1:] if argv is None else argv
    # no top-level option takes a value: the first other argument is the subcommand
    command = next((a for a in argv if not a.startswith("-")), None)
    nested, own = build_parser(command)
    args, extra = own.parse_known_args(argv[1:]) if own and argv[0] == command else (None, None)
    if args is None or extra:
        args = nested.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, AmbiguousRoundingError) as exc:
        # input the library refuses exits 2, as usage errors; 1 is for failed checks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
