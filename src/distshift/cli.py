"""Command-line interface.

Subcommands cover single-shot shift values (ds, rds), the full measure
report (compare), feasible-set tools (card, enum, sample, uniq), and the
correlation experiments (experiment, fork). The library returns
dataclasses; this module alone renders them. ``--format`` picks text,
JSON or CSV in one place (``_emit``), and every result goes through one
sink (``_write_output``) to stdout or the selected output file.
Diagnostics go to stderr; the exit code is 0 only when no error was
emitted. Machine formats render numbers with 12 significant digits,
human text with 4. An exponent (ds --z, uniq --z) is read exactly as the
rational an integer, p/q or decimal names; uniq reports it in that form
("3/2").
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .distributions import (
    DistributionError,
    FrequencyDistribution,
    ValidationError,
    parse_distributions,
)
from .experiments import STREAM_VERSION, ExperimentConfig, run_experiment
from .feasible import (
    DEFAULT_CAP,
    audit_uniqueness,
    audit_uniqueness_default,
    cardinality,
    enumerate_members,
    sample_uniform,
)
from .measures import MEASURE_NAMES, compare_all
from .shift import ds, ds_linear, ds_with_exponent, rds


def _machine(x: float) -> str:
    return format(float(x), ".12g")


def _human(x: float) -> str:
    return format(float(x), ".4g")


def _round12(value):
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(value, float):
        return float(_machine(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _dump_json(payload) -> str:
    return json.dumps(_round12(payload), indent=2)


def _open_output(path: str | None):
    """A context manager for the stream to write: stdout for None or "-",
    else path, opened (and so checked) at once."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_lines(out, lines) -> None:
    out.writelines(line + "\n" for line in lines)


def _write_output(lines, path: str | None) -> None:
    """Write each line and a newline to path, or to stdout for None or "-"."""
    with _open_output(path) as out:
        _write_lines(out, lines)


def _emit(args, payload, text, csv=None) -> None:
    """Write one result to --out: payload as JSON, or the text or csv lines."""
    if args.format == "json":
        lines = [_dump_json(payload)]
    else:
        lines = csv if args.format == "csv" else text
    _write_output(lines, args.out)


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _parse_exponent(text: str) -> Fraction:
    """The rational an integer, p/q or decimal names: "1.1" is exactly 11/10."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"invalid exponent {text!r}") from None


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return value


def _load_single(inline: str | None, path: str | None, fmt: str, label: str) -> FrequencyDistribution:
    if (inline is None) == (path is None):
        raise DistributionError(f"provide exactly one of an inline value or a file for {label}")
    if inline is not None:
        dists = parse_distributions(inline, "csv")
    else:
        dists = parse_distributions(Path(path).read_text(encoding="utf-8"), fmt)
    if len(dists) != 1:
        raise DistributionError(f"{label} must contain exactly one distribution, found {len(dists)}")
    return dists[0]


def _cmd_ds(args) -> int:
    f = _load_single(args.inline, args.input, args.input_format, "input")
    if args.expect_n is not None and f.n != args.expect_n:
        raise DistributionError(f"expected n={args.expect_n}, parsed n={f.n}")
    if args.expect_k is not None and f.k != args.expect_k:
        raise DistributionError(f"expected k={args.expect_k}, parsed k={f.k}")
    if args.linear:
        value = ds_linear(f)
    elif args.z is not None:
        value = ds_with_exponent(f, _parse_exponent(args.z))
    else:
        value = ds(f)
    text = f"ds = {_human(value.ds)}  (z = {_human(value.z_used)}, n = {value.n}, k = {value.k})"
    _emit(args, asdict(value), [text])
    return 0


def _cmd_rds(args) -> int:
    f1 = _load_single(args.a, args.a_file, args.input_format, "--a")
    f2 = _load_single(args.b, args.b_file, args.input_format, "--b")
    value = rds(f1, f2)
    _emit(args, {"rds": value, "k1": f1.k, "k2": f2.k}, [f"rds = {_human(value)}"])
    return 0


def _cmd_compare(args) -> int:
    f1 = _load_single(args.a, args.a_file, args.input_format, "--a")
    f2 = _load_single(args.b, args.b_file, args.input_format, "--b")
    report = compare_all(f1, f2)
    fields = ["rds"] + list(MEASURE_NAMES)
    values = {name: getattr(report, name) for name in fields}
    payload = {name: ("undefined" if v is None else v) for name, v in values.items()}
    payload["undefined_flags"] = sorted(name for name, v in values.items() if v is None)
    text = [f"{name:18s} {'undefined' if v is None else _human(v)}" for name, v in values.items()]
    row = ",".join("undefined" if v is None else _machine(v) for v in values.values())
    _emit(args, payload, text, csv=[",".join(fields), row])
    return 0


def _cmd_card(args) -> int:
    _write_output([str(cardinality(args.n, args.k))], args.out)
    return 0


def _cmd_enum(args) -> int:
    rows = (
        ",".join(map(str, member.totals if args.cumulative else member.counts))
        for member in enumerate_members(args.n, args.k, cap=args.cap)
    )
    _write_output(rows, args.out)
    return 0


def _cmd_sample(args) -> int:
    rows = sample_uniform(args.n, args.k, args.seed, size=args.count).tolist()
    _write_output((",".join(map(str, row)) for row in rows), args.out)
    return 0


def _cmd_uniq(args) -> int:
    if args.z is None:
        report = audit_uniqueness_default(
            args.n, args.k, cap=args.cap, max_collisions=args.max_collisions
        )
    else:
        z = _parse_exponent(args.z)
        report = audit_uniqueness(
            args.n, args.k, z, cap=args.cap, max_collisions=args.max_collisions
        )
    text = [
        f"{report.unique_values} unique / {report.total} "
        f"(n={report.n}, k={report.k}, z={report.z})"
    ]
    for rec in report.collisions:
        members = "; ".join("[" + ",".join(map(str, m)) + "]" for m in rec.members)
        text.append(f"value {_human(rec.value)} shared by {rec.count}: {members}")
    csv = [
        "n,k,z,total,unique",
        f"{report.n},{report.k},{report.z},{report.total},{report.unique_values}",
    ]
    _emit(args, dict(asdict(report), z=str(report.z)), text, csv=csv)
    return 0


def _experiment_config(args) -> ExperimentConfig:
    source = "feasible_set" if args.source == "feasible" else "poisson"
    return ExperimentConfig(
        source=source,
        n=args.n,
        k=args.k,
        num_pairs=args.pairs,
        seed=args.seed,
        lam=args.lam,
    )


def _cmd_experiment(args) -> int:
    config = _experiment_config(args)
    # outputs are opened before any pair is drawn, so a bad path costs no run
    with ExitStack() as stack:
        csv_out = stack.enter_context(_open_output(args.csv_out))
        if args.json_out is not None:
            json_out = stack.enter_context(_open_output(args.json_out))
        table = run_experiment(config, threads=args.threads)
        csv = ["measure," + ",".join(MEASURE_NAMES)]
        for x in MEASURE_NAMES:
            csv.append(x + "," + ",".join(_machine(table.r_squared(x, y)) for y in MEASURE_NAMES))
        _write_lines(csv_out, csv)
        if args.json_out is not None:
            payload = {
                "config": dict(asdict(table.config), stream_version=STREAM_VERSION),
                "measure_names": list(MEASURE_NAMES),
                "r_squared": {
                    x: {y: asdict(table.summaries[(x, y)]) for y in MEASURE_NAMES}
                    for x in MEASURE_NAMES
                },
            }
            _write_lines(json_out, [_dump_json(payload)])
    return 0


def _cmd_fork(args) -> int:
    config = _experiment_config(args)
    with _open_output(args.out) as out:
        table = run_experiment(config, threads=args.threads)
        lines = [f"{args.measure},rds"]
        for value, signed in zip(table.series[args.measure], table.signed_rds):
            cell = "undefined" if math.isnan(value) else _machine(value)
            lines.append(f"{cell},{_machine(signed)}")
        _write_lines(out, lines)
    return 0


def _add_nk(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="observations per distribution")
    p.add_argument("-k", type=int, required=True, help="number of bins")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_output_options(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    p.add_argument("--format", choices=formats, default="text", help="output format")
    _add_out(p)


def _add_pair_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", help="first distribution, inline comma-separated counts")
    p.add_argument("--a-file", help="first distribution read from a file")
    p.add_argument("--b", help="second distribution, inline comma-separated counts")
    p.add_argument("--b-file", help="second distribution read from a file")
    p.add_argument(
        "--input-format", choices=("csv", "json"), default="csv", help="format of input files"
    )


def _add_experiment_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", choices=("feasible", "poisson"), required=True)
    _add_nk(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="Poisson rate")
    p.add_argument("--pairs", type=int, required=True, help="number of random pairs")
    p.add_argument("--seed", type=_parse_seed, required=True, help="unsigned 64-bit seed")
    p.add_argument(
        "--threads", type=int, default=1, help="worker processes, at most one per CPU (default: 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distshift",
        description="Distributional shift and comparison measures for discrete "
        "frequency distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ds", help="distributional shift of one distribution")
    p.add_argument("--inline", help="inline comma-separated counts")
    p.add_argument("--input", help="read the distribution from a file")
    p.add_argument(
        "--input-format", choices=("csv", "json"), default="csv", help="format of input files"
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--linear", action="store_true", help="use z = 1")
    group.add_argument(
        "--z", default=None, help="exponent z > 0 as an integer, p/q or decimal (1.5 or 3/2)"
    )
    p.add_argument("--expect-n", type=int, default=None, help="cross-check parsed n")
    p.add_argument("--expect-k", type=int, default=None, help="cross-check parsed k")
    _add_output_options(p)
    p.set_defaults(func=_cmd_ds)

    p = sub.add_parser("rds", help="relative shift of two distributions")
    _add_pair_inputs(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_rds)

    p = sub.add_parser("compare", help="all pairwise measures for two distributions")
    _add_pair_inputs(p)
    _add_output_options(p, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("card", help="exact cardinality of the feasible set A(n, k)")
    _add_nk(p)
    _add_out(p)
    p.set_defaults(func=_cmd_card)

    p = sub.add_parser("enum", help="stream every member of A(n, k) as CSV rows")
    _add_nk(p)
    p.add_argument("--cumulative", action="store_true", help="emit cumulative totals")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="refuse sets larger than this")
    _add_out(p)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("sample", help="draw uniform random members of A(n, k)")
    _add_nk(p)
    p.add_argument("--count", type=_parse_count, default=1, help="number of draws (at least 1)")
    p.add_argument("--seed", type=_parse_seed, required=True, help="unsigned 64-bit seed")
    _add_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("uniq", help="audit uniqueness of shift values over A(n, k)")
    _add_nk(p)
    p.add_argument(
        "--z",
        default=None,
        help="exponent z > 0 as an integer, p/q or decimal, read exactly "
        "(1.1 is 11/10; default: (k+1)/k)",
    )
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="refuse sets larger than this")
    p.add_argument("--max-collisions", type=int, default=20, help="collision records to keep")
    _add_output_options(p, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_uniq)

    p = sub.add_parser("experiment", help="run a correlation experiment over random pairs")
    _add_experiment_options(p)
    p.add_argument("--csv-out", default=None, help="r-squared matrix CSV path (default: stdout)")
    p.add_argument("--json-out", default=None, help="full table JSON path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fork", help="export (measure, signed rds) scatter data")
    _add_experiment_options(p)
    p.add_argument("--measure", choices=MEASURE_NAMES, required=True, help="series to export")
    _add_out(p)
    p.set_defaults(func=_cmd_fork)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
