"""Command line front end.

Four subcommands: ``verify`` runs the kernel-equals-ideal check per bigraded
piece, ``dims`` emits the graded dimension table, ``lemmas`` sweeps the
supporting identities, and ``qseries`` compares weight totals against the
independent difference-two partition counts.  Reports go to stdout (or
``--out``) as text, JSON or CSV; exit code 0 means every check passed,
1 means some mathematical check was falsified, 2 means a usage error or a
report that ``--out`` cannot write.

A JSON report is the bytes of ``json.dumps(report, indent=2)``, written
faster, since json's indent encoder is pure Python and only ``indent=None``
takes its C encoder.  Each top-level list whose rows are dicts of one shape
(same keys in the same order, the same nested dicts, scalar leaves) is
written from one row template: the first row with ``None`` leaves,
indented by ``json.dumps``, with its ``null`` values turned into ``%s``
slots.  One C-encoder call encodes every leaf of every row, NUL-separated,
and one ``%`` fills the repeated template.  Everything else (``run``,
``lemmas``, empty lists, lists whose rows differ or hold a list) goes
through ``json.dumps(..., indent=2)``.  The text table is built only for
``--format text``, and the argument parser once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import operator
import sys
from typing import Callable, Iterable, NamedTuple

from . import fock, relations, verify

MODULE_CHOICES = (*verify.TAGS, "all")
FORMAT_CHOICES = ("json", "csv", "text")


class RunConfig(NamedTuple):
    command: str
    module_tag: str
    max_weight: int
    t_max: int
    format: str
    output_path: str | None

    def to_json(self) -> dict:
        return self._asdict()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards:
    parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="psverify",
        description="Exact degree-by-degree verification of principal subspace presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("verify", "verify kernel == ideal on every bigraded piece", 12),
        ("dims", "emit the graded dimension table of the image modules", 12),
        ("lemmas", "sweep the supporting polynomial and Fock identities", 6),
        ("qseries", "compare weight totals with difference-two partition counts", 12),
    )
    for name, help_text, default_weight in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--module",
            choices=MODULE_CHOICES,
            default="all",
            help="which module's evaluation map to check (default: all)",
        )
        p.add_argument(
            "--max-weight",
            type=int,
            default=default_weight,
            metavar="N",
            help=f"largest conformal weight to cover (default: {default_weight})",
        )
        p.add_argument(
            "--t-max",
            type=int,
            default=20,
            metavar="T",
            help="largest relation weight in identity sweeps (default: 20)",
        )
        p.add_argument(
            "--format",
            choices=FORMAT_CHOICES,
            default="text",
            help="report format (default: text)",
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="write the report to PATH instead of stdout",
        )
    return parser


def _selected_tags(cfg: RunConfig) -> tuple[str, ...]:
    if cfg.module_tag == "all":
        return verify.TAGS
    return (cfg.module_tag,)


def _skeleton(cfg: RunConfig) -> dict:
    return {"run": cfg.to_json(), "pieces": [], "lemmas": {}, "dims": []}


def _emit(
    cfg: RunConfig,
    report: dict,
    text: Callable[[], list[str]],
    header: list[str],
    rows: Iterable[Iterable],
) -> None:
    """Write the report in the chosen format; ``text`` builds the lines of
    the text table and is called only for ``--format text``."""
    if cfg.format == "json":
        payload = _dumps(report) + "\n"
    elif cfg.format == "csv":
        payload = _to_csv(header, rows)
    else:
        payload = "\n".join(text()) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# the types whose C encoding is the indent encoder's, byte for byte
_SCALARS = {str, int, float, bool, type(None)}
# no indent, so json takes its C encoder; NUL splits the encoded leaves, and
# it cannot occur inside one, since an encoded string escapes it as \u0000
_LEAVES = json.JSONEncoder(separators=("\0", ":"))


def _dumps(report: dict) -> str:
    """``json.dumps(report, indent=2)``, byte for byte.

    Each top-level list whose rows share one shape is written by
    ``_rows``; every other value, and a report that is empty or has a key
    that is not a string, goes through ``json.dumps(..., indent=2)``."""
    if set(map(type, report)) != {str}:
        return json.dumps(report, indent=2)
    items = []
    for key, value in report.items():
        text = _rows(value) if type(value) is list and value else None
        if text is None:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _rows(rows: list) -> str | None:
    """A list of rows as the value of a top-level key, or ``None`` when the
    rows differ in keys, key order or nesting, or hold a list.

    The first row, with every leaf ``None``, is indented once by
    ``json.dumps`` into a template whose slots are the lines that end in
    ``null``: every line of that output ends in its own value, and a key
    holds no raw newline.  All leaves of all rows are encoded in one C
    encoder call and fill the repeated template with one ``%``."""
    columns: list[list] = []
    if not _leaf_columns(rows, columns):
        return None
    template = (
        json.dumps(_blank(rows[0]), indent=2)
        .replace("%", "%%")
        .replace("null\n", "%s\n")
        .replace("null,\n", "%s,\n")
        .replace("\n", "\n    ")
    )
    leaves = _LEAVES.encode(list(itertools.chain.from_iterable(zip(*columns))))[1:-1]
    body = ",\n    ".join([template] * len(rows)) % tuple(leaves.split("\0") if leaves else ())
    return f"[\n    {body}\n  ]"


def _leaf_columns(rows: list, columns: list[list]) -> bool:
    """Append to ``columns`` one list per leaf of the rows' shape, depth
    first in key order, and say whether every row is a dict of that shape
    whose leaves are scalars."""
    if set(map(type, rows)) != {dict} or len(set(map(tuple, rows))) != 1:
        return False
    for key, value in rows[0].items():
        column = list(map(operator.itemgetter(key), rows))
        if type(value) is dict:
            if not _leaf_columns(column, columns):
                return False
        elif set(map(type, column)) <= _SCALARS:
            columns.append(column)
        else:
            return False
    return True


def _blank(row: dict) -> dict:
    """The row with every leaf replaced by ``None``."""
    return {k: _blank(v) if type(v) is dict else None for k, v in row.items()}


def _to_csv(header: list[str], rows: Iterable[Iterable]) -> str:
    """One CSV table; booleans render as ``true``/``false`` and ``None`` as
    an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


def _dims_table(rows: list[dict]) -> tuple[list[str], list]:
    return (list(rows[0]) if rows else []), [row.values() for row in rows]


def _cmd_verify(cfg: RunConfig) -> int:
    runs = [verify.verify_presentation(tag, cfg.max_weight) for tag in _selected_tags(cfg)]
    pieces = sorted(
        (p for run in runs for p in run.pieces),
        key=lambda p: (p.weight, p.charge, p.module_tag),
    )
    report = _skeleton(cfg)
    report["pieces"] = [p.to_json() for p in pieces]
    report["dims"] = [
        {
            "module_tag": p.module_tag,
            "weight": p.weight,
            "charge": p.charge,
            "dim": p.rank_eval,
        }
        for run in runs
        for p in run.pieces
    ]
    ok = all(run.all_pass for run in runs)

    def text() -> list[str]:
        lines = [
            f"presentation check to weight {cfg.max_weight} "
            f"({', '.join(_selected_tags(cfg))})",
            f"{'module':<14}{'weight':>7}{'charge':>7}{'domain':>8}{'rank':>6}"
            f"{'kernel':>8}{'ideal':>7}  contain  equal",
        ]
        for p in pieces:
            lines.append(
                f"{p.module_tag:<14}{p.weight:>7}{p.charge:>7}{p.dim_domain:>8}"
                f"{p.rank_eval:>6}{p.dim_kernel:>8}{p.dim_ideal_piece:>7}"
                f"  {'yes' if p.containment_ok else 'NO':<7}"
                f"  {'yes' if p.equality_ok else 'NO'}"
            )
        lines.append(f"pieces: {len(pieces)}, all equal: {'yes' if ok else 'NO'}")
        return lines

    _emit(cfg, report, text, list(verify.PieceReport._fields), pieces)
    return 0 if ok else 1


def _cmd_dims(cfg: RunConfig) -> int:
    report = _skeleton(cfg)
    for tag in _selected_tags(cfg):
        dims = verify.graded_dims(tag, cfg.max_weight)
        for (w, k), d in sorted(dims.items()):
            report["dims"].append(
                {"module_tag": tag, "weight": w, "charge": k, "dim": d}
            )

    def text() -> list[str]:
        lines = [f"graded dimensions to weight {cfg.max_weight}"]
        for row in report["dims"]:
            lines.append(
                f"{row['module_tag']:<14} weight {row['weight']:>3}"
                f"  charge {row['charge']:>3}  dim {row['dim']}"
            )
        return lines

    _emit(cfg, report, text, *_dims_table(report["dims"]))
    return 0


def _cmd_lemmas(cfg: RunConfig) -> int:
    results = {
        "translate_relation": all(
            relations.check_translate_relation(t) for t in range(2, cfg.t_max + 1)
        ),
        "derivation_relation": all(
            relations.check_derive_relation(t) for t in range(2, cfg.t_max + 1)
        ),
        "lift_identity": all(
            relations.check_lift_identity(t) for t in range(4, cfg.t_max + 1)
        ),
        "square_zero": fock.check_square_zero(cfg.max_weight),
        "translate_ideal_inclusion": all(
            relations.check_translate_ideal_inclusion(w, k)
            for w in range(cfg.max_weight + 1)
            for k in range(w + 1)
        ),
    }
    report = _skeleton(cfg)
    report["lemmas"] = results

    def text() -> list[str]:
        lines = [f"identity sweeps (t <= {cfg.t_max}, weight <= {cfg.max_weight})"]
        for name, ok in results.items():
            lines.append(f"{name:<28} {'pass' if ok else 'FAIL'}")
        return lines

    _emit(cfg, report, text, ["name", "ok"], results.items())
    return 0 if all(results.values()) else 1


def _cmd_qseries(cfg: RunConfig) -> int:
    dims0 = verify.graded_dims("lambda0", cfg.max_weight)
    dims1 = verify.graded_dims("lambda1prime", cfg.max_weight)
    totals0 = verify.weight_totals(dims0, cfg.max_weight)
    totals1 = verify.weight_totals(dims1, cfg.max_weight)
    report = _skeleton(cfg)
    ok = True
    for n in range(cfg.max_weight + 1):
        o0 = verify.oracle_weight_total(n, 1)
        o1 = verify.oracle_weight_total(n, 2)
        match = totals0[n] == o0 and totals1[n] == o1
        ok = ok and match
        report["dims"].append(
            {
                "weight": n,
                "lambda0_total": totals0[n],
                "lambda0_oracle": o0,
                "lambda1prime_total": totals1[n],
                "lambda1prime_oracle": o1,
                "match": match,
            }
        )

    def text() -> list[str]:
        lines = [
            f"graded dimension totals to weight {cfg.max_weight}",
            f"{'weight':>6}{'lambda0':>9}{'oracle':>8}{'lambda1prime':>14}{'oracle':>8}  match",
        ]
        for row in report["dims"]:
            lines.append(
                f"{row['weight']:>6}{row['lambda0_total']:>9}{row['lambda0_oracle']:>8}"
                f"{row['lambda1prime_total']:>14}{row['lambda1prime_oracle']:>8}"
                f"  {'yes' if row['match'] else 'NO'}"
            )
        return lines

    _emit(cfg, report, text, *_dims_table(report["dims"]))
    return 0 if ok else 1


_DISPATCH = {
    "verify": _cmd_verify,
    "dims": _cmd_dims,
    "lemmas": _cmd_lemmas,
    "qseries": _cmd_qseries,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        module_tag=args.module,
        max_weight=args.max_weight,
        t_max=args.t_max,
        format=args.format,
        output_path=args.out,
    )
    # dims and qseries are well-defined at weight 0 (the highest weight
    # vector alone); the checking commands need at least weight 1
    weight_floor = 0 if cfg.command in ("dims", "qseries") else 1
    if cfg.max_weight < weight_floor:
        print(f"error: --max-weight must be >= {weight_floor}", file=sys.stderr)
        return 2
    if cfg.command == "lemmas" and cfg.t_max < 4:
        print("error: --t-max must be >= 4 (floor -2 relations start there)", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except OSError as exc:
        # the commands do no I/O but the report's write to --out
        if not cfg.output_path:
            raise
        print(f"error: cannot write {cfg.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
