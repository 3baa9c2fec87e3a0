"""Command line interface.

Subcommands: verify (run every per-degree check over a range), present
(Groebner presentation reports), table (the weight-3 coefficient table),
lambda (the tautological report at one degree), and eval (the expression
calculator).  Exit codes: 0 all checks passed, 1 a check failed or an
expression errored, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import calc, moduli

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


def _check_range(parser, pair: tuple[int, int], max_d: int) -> range:
    a, b = pair
    if a < 1 or b < a:
        parser.error(f"degree range must satisfy 1 <= A <= B, got {a}..{b}")
    if b > max_d:
        parser.error(f"degree {b} exceeds the cap {max_d}; raise --max-d")
    return range(a, b + 1)


def _fan_out(fn, degrees, jobs: int) -> list:
    if jobs == 1 or len(degrees) <= 1:
        return [fn(d) for d in degrees]
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
    report = moduli.lambda_classes(d)
    record = {
        "d": d,
        "coherence": moduli.coherence_check(d),
        "smooth": moduli.smooth_presentation(d),
        "nodal": moduli.nodal_presentation(d),
        "syzygy": moduli.syzygy_holds(d),
        "delta_ok": report.delta_ok,
        "lambda1_ok": report.lambda1_ok,
        "lambda2_ok": report.lambda2_ok,
        "lambda3_ok": report.lambda3_ok,
        "mumford_ok": report.mumford_ok,
    }
    record["pass"] = all(
        value
        for value in (
            record["coherence"],
            record["smooth"]["pass"],
            record["nodal"]["pass"],
            record["syzygy"],
            record["delta_ok"],
            record["lambda1_ok"],
            record["lambda2_ok"],
            record["lambda3_ok"],
        )
    ) and record["mumford_ok"] is not False
    return record


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


def lambda_record(d: int) -> dict:
    report = moduli.lambda_classes(d)
    return {
        "d": d,
        "genus": report.genus,
        "delta": str(report.delta),
        "delta_ok": report.delta_ok,
        "lambda1_raw": str(report.lambda1),
        "lambda2_raw": str(report.lambda2),
        "lambda3_raw": str(report.lambda3),
        "lambda1_ok": report.lambda1_ok,
        "lambda2_reduced": (
            None if report.lambda2_reduced is None else str(report.lambda2_reduced)
        ),
        "lambda3_reduced": (
            None if report.lambda3_reduced is None else str(report.lambda3_reduced)
        ),
        "lambda2_ok": report.lambda2_ok,
        "lambda3_ok": report.lambda3_ok,
        "abc": None if report.abc is None else list(report.abc),
        "mumford_ok": report.mumford_ok,
        "pass": report.ok,
    }


def _flag(value) -> str:
    if value is None:
        return "n/a"
    return "ok" if value else "FAIL"


def _verify_text(records: list[dict]) -> str:
    lines = []
    for r in records:
        lines.append(
            "d={d} coherence={co} smooth={sm} nodal={no} syzygy={sy} "
            "delta={de} lambda1={l1} lambda2={l2} lambda3={l3} "
            "mumford={mu} {verdict}".format(
                d=r["d"],
                co=_flag(r["coherence"]),
                sm=_flag(r["smooth"]["pass"]),
                no=_flag(r["nodal"]["pass"]),
                sy=_flag(r["syzygy"]),
                de=_flag(r["delta_ok"]),
                l1=_flag(r["lambda1_ok"]),
                l2=_flag(r["lambda2_ok"]),
                l3=_flag(r["lambda3_ok"]),
                mu=_flag(r["mumford_ok"]),
                verdict="PASS" if r["pass"] else "FAIL",
            )
        )
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

    def common(p, jobs=True, max_d=True, formats=("text", "json")):
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
        if max_d:
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
    common(p_table, max_d=False, formats=("text", "json", "csv"))

    p_lambda = sub.add_parser("lambda", help="tautological report at one degree")
    p_lambda.add_argument("--d", type=int, required=True, metavar="N")
    common(p_lambda, jobs=False, max_d=False)

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

    if args.command == "verify":
        degrees = _check_range(parser, args.d, args.max_d)
        jobs = _check_jobs(parser, args.jobs)
        records = _fan_out(verify_record, list(degrees), jobs)
        text = (
            _json_dump(records)
            if args.format == "json"
            else _verify_text(records)
        )
        _emit(parser, text, args.out)
        return 0 if all(r["pass"] for r in records) else 1

    if args.command == "present":
        degrees = _check_range(parser, args.d, args.max_d)
        jobs = _check_jobs(parser, args.jobs)
        records = _fan_out(present_record, list(degrees), jobs)
        text = (
            _json_dump(records)
            if args.format == "json"
            else _present_text(records)
        )
        _emit(parser, text, args.out)
        return 0 if all(r["pass"] for r in records) else 1

    if args.command == "table":
        if args.d_from < 4 or args.d_to < args.d_from:
            parser.error(
                f"table range must satisfy 4 <= A <= B, got {args.d_from}..{args.d_to}"
            )
        jobs = _check_jobs(parser, args.jobs)
        rows = _fan_out(table_row, list(range(args.d_from, args.d_to + 1)), jobs)
        if args.format == "csv":
            text = _table_csv(rows)
        elif args.format == "json":
            text = _json_dump(rows)
        else:
            text = _table_text(rows)
        _emit(parser, text, args.out)
        return 0

    if args.command == "lambda":
        if args.d < 1:
            parser.error(f"degree must be positive, got {args.d}")
        record = lambda_record(args.d)
        text = (
            _json_dump(record)
            if args.format == "json"
            else _lambda_text(record)
        )
        _emit(parser, text, args.out)
        return 0 if record["pass"] else 1

    # eval
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
