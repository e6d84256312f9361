"""Command-line front end.

Commands: coeffs, sur, invert, localize, reconstruct, sample, verify.
Output is machine-first: exact rationals print as "p/q", structured
results as JSON (one line per record for reports). --pretty adds decimal
renderings and indentation. Exit codes: 0 success, 1 input error,
2 internal-consistency failure, 3 enumeration or sampling budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from .errors import ConsistencyError, InputError, MomentforgeError
from .finab import MAX_ORDER_BITS, FinAbGroup
from .inversion import MomentTable, multi_invert_zero
from .localize import (
    ModuleMomentTable,
    collector_paused,
    localized_moments,
    reconstruct_probability,
)
from .qseries import SimpleType, inversion_coefficient
from .rationals import check_printable, format_rational
from .surjcount import basis_from_json_obj, check_index, sur_product


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _add_type_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abelian", type=int, metavar="H", help="abelian type with field size H")
    p.add_argument(
        "--nonabelian-aut", type=int, metavar="A", help="nonabelian type with A automorphisms"
    )


def _simple_type(args) -> SimpleType:
    if (args.abelian is None) == (getattr(args, "nonabelian_aut", None) is None):
        raise InputError("pass exactly one of --abelian H or --nonabelian-aut A")
    if args.abelian is not None:
        return SimpleType.abelian(args.abelian)
    return SimpleType.nonabelian(args.nonabelian_aut)


def _int_list(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"{name} must be a comma-separated integer list: {exc}") from exc


def _per_type(text: str, name: str, types: int) -> tuple[int, ...]:
    """Comma-separated depths, one per basis type; a single value applies to all."""
    values = _int_list(text, name)
    if len(values) == 1 and types > 1:
        values = values * types
    return values


def _loads(text: str, what: str):
    """json.loads, with an integer past Python's digit limit refused like bad syntax."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"{what}: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return _loads(text, f"{path} is not valid JSON")


def _parse_group(text: str) -> FinAbGroup:
    return FinAbGroup.from_json_obj(_loads(text, "group must be JSON like '{\"2\":[1]}'"))


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None))


def _decimal(value: Fraction) -> float:
    """float(value), or an infinity of its sign where the value is out of float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _emit_scalar(value: Fraction, pretty: bool) -> None:
    text = format_rational(value)
    if pretty and value.denominator != 1:
        print(f"{text} ~= {_decimal(value):.10g}")
    else:
        print(text)


def _bracket_obj(bracket, pretty: bool) -> dict:
    obj = bracket.to_json_obj()
    if pretty:
        obj["lower_decimal"] = repr(_decimal(bracket.lower))
        obj["upper_decimal"] = repr(_decimal(bracket.upper))
    return obj


def _sur_bits(t: SimpleType, e: int, k: int) -> int:
    """Lower bound on log2 Sur(t**e, t**k) for k <= e: each factor h**e - h**j is at
    least h**(e-1), and e!/(e-k)! aut**k at least (aut * max(e-k+1, k/4))**k."""
    if t.is_abelian:
        return (e - 1) * k * (t.h.bit_length() - 1)
    return k * (t.aut.bit_length() + max((e - k + 1).bit_length(), (k >> 2).bit_length()) - 2)


def _cmd_coeffs(args) -> int:
    t, k = _simple_type(args), args.k
    if k > 0 and t.is_abelian:  # c_k = +-1/den with den >= h**(k(k-1)/2)
        check_printable(k * (k - 1) // 2 * (t.h.bit_length() - 1))
    elif k > 0:  # den = k! aut**k = Sur(t**k, t**k)
        check_printable(_sur_bits(t, k, k))
    _emit_scalar(inversion_coefficient(t, k), args.pretty)
    return 0


def _cmd_sur(args) -> int:
    if args.basis is not None:
        basis = basis_from_json_obj(_loads(args.basis, "bad JSON"))
    else:
        basis = (_simple_type(args),)
    e = check_index(basis, _int_list(args.e, "--e"), "e")
    k = check_index(basis, _int_list(args.k, "--k"), "k")
    if all(ki <= ei for ei, ki in zip(e, k)):  # otherwise the count is 0
        check_printable(sum(_sur_bits(t, ei, ki) for t, ei, ki in zip(basis, e, k)))
    _emit_scalar(Fraction(sur_product(basis, e, k)), args.pretty)
    return 0


def _cmd_invert(args) -> int:
    table = MomentTable.from_json_obj(_load_json(args.file))
    if args.order is not None:
        table = table.reorder(_int_list(args.order, "--order"))
    bracket = multi_invert_zero(table, _per_type(args.rmax, "--rmax", len(table.basis)))
    _emit(_bracket_obj(bracket, args.pretty), args.pretty)
    return 0


def _table_and_primes(args) -> tuple[ModuleMomentTable, tuple[int, ...]]:
    with collector_paused():  # the parsed JSON holds no cycles either
        table = ModuleMomentTable.from_json_obj(_load_json(args.file))
    return table, _int_list(args.primes, "--primes") if args.primes else table.primes


def _cmd_localize(args) -> int:
    table, primes = _table_and_primes(args)
    M = _parse_group(args.group)
    k_bound = _per_type(args.kbound, "--kbound", len(primes))
    moments = localized_moments(table, M, primes, k_bound)
    _emit(moments.to_json_obj(), args.pretty)
    return 0


def _cmd_reconstruct(args) -> int:
    table, primes = _table_and_primes(args)
    M = _parse_group(args.group)
    r_max = _per_type(args.rmax, "--rmax", len(primes))
    bracket = reconstruct_probability(table, M, primes, r_max)
    _emit(_bracket_obj(bracket, args.pretty), args.pretty)
    return 0


def _cmd_sample(args) -> int:
    from .sampler import SamplerConfig, convergence_report, sample_measure

    config = SamplerConfig(
        p=args.p, cap=args.cap, n=args.n, u=args.u, seed=args.seed, count=args.count
    )
    if args.report:
        if not args.ts or not args.target:
            raise InputError("--report needs --ts and at least one --target")
        counts = _int_list(args.ts, "--ts")
        targets = [_parse_group(g) for g in args.target]
        records = convergence_report(config, counts, targets, args.rmax)
        for rec in records:
            print(json.dumps(rec))
        return 0
    mu = sample_measure(config)
    obj = mu.to_json_obj()
    obj["config"] = dataclasses.asdict(config)
    _emit(obj, args.pretty)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.seed, quick=args.quick)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} ({res.seconds:.2f}s)")
        failed += not res.passed
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        raise ConsistencyError(f"{failed} verification checks failed")
    print(f"all {len(results)} checks passed")
    return 0


_TABLE_HELP = (
    "module moment-table JSON path; it must hold what localize.localization_middles "
    "reads: the group plus a vertical strip of up to {depth} boxes at each basis "
    "prime. Any order_bound field is read but not enforced"
)
_GROUP_HELP = (
    "group JSON, e.g. '{\"2\":[1]}'; refused where the sum over p of its exponents times "
    f"ceil(log2 p) passes MAX_ORDER_BITS = {MAX_ORDER_BITS}, so orders are < 2**{MAX_ORDER_BITS}"
)
_PRIMES_HELP = "distinct primes to localize at, comma separated (default: the table's primes)"


def build_parser() -> _Parser:
    parser = _Parser(prog="momentforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="inversion coefficient c_k for a simple type")
    _add_type_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("sur", help="closed-form surjection count between powers")
    _add_type_flags(p)
    p.add_argument("--basis", help="JSON basis for product counts")
    p.add_argument("--e", required=True, help="source exponent(s), comma separated")
    p.add_argument("--k", required=True, help="target exponent(s), comma separated")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_sur)

    p = sub.add_parser("invert", help="bracket the mass at 0 from a moment table")
    p.add_argument("--file", required=True, help="moment-table JSON path")
    p.add_argument("--rmax", required=True, help="truncation depth(s), comma separated")
    p.add_argument("--order", help="elimination order as a permutation, e.g. 1,0")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("localize", help="localized moments at a fixed group")
    p.add_argument("--file", required=True, help=_TABLE_HELP.format(depth="--kbound"))
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--primes", help=_PRIMES_HELP)
    p.add_argument("--kbound", required=True, help="moment depth(s), comma separated")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_localize)

    p = sub.add_parser("reconstruct", help="bracket the mass of a group from moments")
    p.add_argument("--file", required=True, help=_TABLE_HELP.format(depth="--rmax"))
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--primes", help=_PRIMES_HELP)
    p.add_argument("--rmax", required=True, help="truncation depth(s), comma separated")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("sample", help="random-matrix cokernel sampling")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--cap", type=int, required=True, help="work modulo p**cap")
    p.add_argument("--n", type=int, required=True, help="matrix rows")
    p.add_argument("--u", type=int, default=0, help="extra columns")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--report", action="store_true", help="emit a convergence report")
    p.add_argument("--ts", help="sample counts for the report, comma separated")
    p.add_argument("--target", action="append", help=_GROUP_HELP + " (repeatable)")
    p.add_argument("--rmax", type=int, default=8, help="truncation depth for the report")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser(
        "verify",
        help="run the full oracle suite",
        description=(
            "Check every closed form against its brute-force oracle. The checks run in "
            "forked workers, one per usable CPU; results print in check order, each "
            "with that check's own wall time. Exit 2 if any check fails."
        ),
    )
    p.add_argument("--seed", type=int, required=True, help="seed for randomized checks")
    p.add_argument("--quick", action="store_true", help="reduced desk-scale ranges")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except MomentforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
