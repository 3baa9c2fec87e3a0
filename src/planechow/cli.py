"""Command line interface.

Subcommands: verify (run every per-degree check over a range), present
(Groebner presentation reports), table (the weight-3 coefficient table,
each row checked against its closed form), lambda (the tautological
report at one degree), and eval (the expression calculator).  Exit codes:
0 all checks passed, 1 a check failed or an expression errored, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import moduli

DEFAULT_MAX_D = 64


def parse_range(text: str) -> tuple[int, int]:
    """Parse 'N' or 'A..B' into an inclusive pair."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or A..B, got {text!r}"
        ) from None
    return a, b


def _check_range(parser, pair: tuple[int, int], max_d: int, low: int = 1) -> range:
    a, b = pair
    if a < low or b < a:
        parser.error(f"degree range must satisfy {low} <= A <= B, got {a}..{b}")
    if b > max_d:
        parser.error(f"degree {b} exceeds the cap {max_d}; raise --max-d")
    return range(a, b + 1)


def _fan_out(fn, degrees, jobs: int) -> list:
    if jobs == 1 or len(degrees) <= 1:
        return [fn(d) for d in degrees]
    from concurrent.futures import ProcessPoolExecutor

    workers = jobs if jobs else (os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=min(workers, len(degrees))) as pool:
        return list(pool.map(fn, degrees))


def _emit(parser, text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def verify_record(d: int) -> dict:
    values = moduli.claim_values(moduli.lambda_classes(d))
    return {"d": d, **values, "pass": moduli.passes(values)}


def present_record(d: int) -> dict:
    smooth = moduli.smooth_presentation(d)
    nodal = moduli.nodal_presentation(d)
    return {
        "d": d,
        "smooth": smooth,
        "nodal": nodal,
        "pass": smooth["pass"] and nodal["pass"],
    }


def table_row(d: int) -> dict:
    (_, a, b, c), = moduli.hodge_table(d, d)
    return {"d": d, "A": a, "B": b, "C": c}


def _table_mismatch(rows: list[dict]) -> str | None:
    """The first table entry that differs from its closed form, described."""
    for r in rows:
        for col, expected in zip("ABC", moduli.reference_closed_forms(r["d"])):
            if r[col] != expected:
                return (
                    f"table: d={r['d']} column {col} is {r[col]}, "
                    f"the closed form gives {expected}"
                )
    return None


def _str_or_none(value) -> str | None:
    return None if value is None else str(value)


def lambda_record(d: int) -> dict:
    t = moduli.lambda_classes(d)
    ok = moduli.claim_values(t, tautological=True)
    abc = t.abc
    return {
        "d": d,
        "genus": moduli.genus(d),
        "delta": str(t.delta),
        "delta_ok": ok["delta_ok"],
        "lambda1_raw": str(t.lambda1),
        "lambda2_raw": str(t.lambda2),
        "lambda3_raw": str(t.lambda3),
        "lambda1_ok": ok["lambda1_ok"],
        "lambda2_reduced": _str_or_none(t.reduced(2)),
        "lambda3_reduced": _str_or_none(t.reduced(3)),
        "lambda2_ok": ok["lambda2_ok"],
        "lambda3_ok": ok["lambda3_ok"],
        "abc": None if abc is None else list(abc),
        "mumford_ok": ok["mumford_ok"],
        "pass": moduli.passes(ok),
    }


def _flag(value) -> str:
    if value is None:
        return "n/a"
    return "ok" if value else "FAIL"


def _verify_text(records: list[dict]) -> str:
    lines = []
    for r in records:
        flags = " ".join(
            f"{c.label}={_flag(moduli.verdict(r[c.key]))}" for c in moduli.CLAIMS
        )
        lines.append(f"d={r['d']} {flags} {'PASS' if r['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _present_text(records: list[dict]) -> str:
    lines = []
    for r in records:
        for locus in ("smooth", "nodal"):
            rep = r[locus]
            lines.append(
                "d={d} locus={locus} ideal_equal={eq} dims={dims} "
                "expected={exp} {verdict}".format(
                    d=r["d"],
                    locus=locus,
                    eq=rep["ideal_equal"],
                    dims=rep["graded_dims"],
                    exp=rep["expected"],
                    verdict="PASS" if rep["pass"] else "FAIL",
                )
            )
    return "\n".join(lines) + "\n"


def _table_text(rows: list[dict]) -> str:
    return (
        "\n".join(
            f"d={r['d']} A={r['A']} B={r['B']} C={r['C']}" for r in rows
        )
        + "\n"
    )


def _table_csv(rows: list[dict]) -> str:
    return (
        "d,A,B,C\n"
        + "\n".join(f"{r['d']},{r['A']},{r['B']},{r['C']}" for r in rows)
        + "\n"
    )


def _lambda_text(record: dict) -> str:
    lines = [
        f"d={record['d']} genus={record['genus']}",
        f"delta = {record['delta']}  [{_flag(record['delta_ok'])}]",
        f"lambda1 = {record['lambda1_raw']}  [{_flag(record['lambda1_ok'])}]",
        f"lambda2 = {record['lambda2_raw']}",
        f"lambda3 = {record['lambda3_raw']}",
    ]
    if record["lambda2_reduced"] is not None:
        lines.append(
            f"lambda2 reduced = {record['lambda2_reduced']}  "
            f"[{_flag(record['lambda2_ok'])}]"
        )
        lines.append(
            f"lambda3 reduced = {record['lambda3_reduced']}  "
            f"[{_flag(record['lambda3_ok'])}]"
        )
    else:
        lines.append(f"lambda2 vanishes: {_flag(record['lambda2_ok'])}")
        lines.append(f"lambda3 vanishes: {_flag(record['lambda3_ok'])}")
    if record["abc"] is not None:
        a, b, c = record["abc"]
        lines.append(f"abc = ({a}, {b}, {c})")
    lines.append(f"mumford = {_flag(record['mumford_ok'])}")
    lines.append("PASS" if record["pass"] else "FAIL")
    return "\n".join(lines) + "\n"


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planechow",
        description="Exact Chow-ring checks for moduli of plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=True, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", default=None)
        if jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                metavar="N",
                help="worker processes; 0 = one per CPU",
            )
        p.add_argument(
            "--max-d",
            type=int,
            default=DEFAULT_MAX_D,
            metavar="N",
            help=f"largest allowed degree (default {DEFAULT_MAX_D})",
        )

    p_verify = sub.add_parser("verify", help="run every check over a range")
    p_verify.add_argument("--d", type=parse_range, required=True, metavar="A..B")
    common(p_verify)

    p_present = sub.add_parser("present", help="presentation reports")
    p_present.add_argument("--d", type=parse_range, required=True, metavar="A..B")
    common(p_present)

    p_table = sub.add_parser("table", help="weight-3 coefficient table")
    p_table.add_argument("--from", dest="d_from", type=int, required=True)
    p_table.add_argument("--to", dest="d_to", type=int, required=True)
    common(p_table, formats=("text", "json", "csv"))

    p_lambda = sub.add_parser("lambda", help="tautological report at one degree")
    p_lambda.add_argument("--d", type=int, required=True, metavar="N")
    common(p_lambda, jobs=False)

    p_eval = sub.add_parser("eval", help="evaluate a calculator expression")
    p_eval.add_argument("expression")
    mode = p_eval.add_mutually_exclusive_group()
    mode.add_argument(
        "--generic",
        action="store_true",
        help="leave d formal (the default)",
    )
    mode.add_argument("--d", type=int, default=None, metavar="N")
    p_eval.add_argument("--out", metavar="PATH", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command in ("verify", "present"):
        record, render = {
            "verify": (verify_record, _verify_text),
            "present": (present_record, _present_text),
        }[args.command]
        degrees = _check_range(parser, args.d, args.max_d)
        jobs = _check_jobs(parser, args.jobs)
        records = _fan_out(record, list(degrees), jobs)
        text = _json_dump(records) if args.format == "json" else render(records)
        _emit(parser, text, args.out)
        return 0 if all(r["pass"] for r in records) else 1

    if args.command == "table":
        degrees = _check_range(
            parser, (args.d_from, args.d_to), args.max_d, low=4
        )
        jobs = _check_jobs(parser, args.jobs)
        rows = _fan_out(table_row, list(degrees), jobs)
        if args.format == "csv":
            text = _table_csv(rows)
        elif args.format == "json":
            text = _json_dump(rows)
        else:
            text = _table_text(rows)
        _emit(parser, text, args.out)
        mismatch = _table_mismatch(rows)
        if mismatch:
            sys.stderr.write(mismatch + "\n")
            return 1
        return 0

    if args.command == "lambda":
        _check_range(parser, (args.d, args.d), args.max_d)
        record = lambda_record(args.d)
        text = (
            _json_dump(record)
            if args.format == "json"
            else _lambda_text(record)
        )
        _emit(parser, text, args.out)
        return 0 if record["pass"] else 1

    # eval
    from . import calc

    if args.d is not None and args.d < 1:
        parser.error(f"degree must be positive, got {args.d}")
    try:
        result = calc.run(args.expression, at=args.d)
    except calc.Diagnostic as exc:
        _emit(parser, exc.render() + "\n", args.out)
        return 1
    _emit(parser, str(result) + "\n", args.out)
    return 0


def _check_jobs(parser, jobs: int) -> int:
    if jobs < 0:
        parser.error(f"--jobs must be >= 0, got {jobs}")
    return jobs


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
