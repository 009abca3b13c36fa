"""Command line front end.

Four subcommands: ``verify`` runs the kernel-equals-ideal check per bigraded
piece, ``dims`` emits the graded dimension table, ``lemmas`` sweeps the
supporting identities, and ``qseries`` compares weight totals against the
independent difference-two partition counts.  Reports go to stdout (or
``--out``) as text, JSON or CSV; exit code 0 means every check passed,
1 means some mathematical check was falsified, 2 means a usage error or a
report that ``--out`` cannot write.

Each list of report rows is one ``Table``: a CSV header ``fields``, the
row tuples (a verify piece row is the ``PieceReport`` itself), and the
JSON row ``layout``.  The text table unpacks the tuples, CSV writes the
header and the rows, and JSON writes each row through the layout.  A JSON
report is the bytes of ``json.dumps(..., indent=2)`` of the report with
each table as its list of row dicts, written faster, since json's indent
encoder is pure Python and only ``indent=None`` takes its C encoder: the
layout, indented by ``json.dumps``, is the row template, one walk of it
gives the row position of each leaf, one C-encoder call encodes every leaf
of every row, NUL-separated, and one ``%`` fills the repeated template.
``run`` and ``lemmas`` go through ``json.dumps(..., indent=2)``.  The text
table is built only for ``--format text``, and the argument parser once
per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Callable, Iterator, NamedTuple

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


class Table(NamedTuple):
    """Report rows.  ``fields`` is the CSV header and names each position of
    a row tuple; ``layout`` is the JSON row, in key order, with ``None`` at
    each leaf keyed by its field name (a nested dict groups fields), or
    ``None`` for a table that only CSV writes."""

    fields: tuple[str, ...]
    rows: list[tuple]
    layout: dict | None


DIMS_FIELDS = ("module_tag", "weight", "charge", "dim")
# a piece's JSON row: weight and charge first, under idx
PIECE_LAYOUT = {
    "idx": {"weight": None, "charge": None},
    "module_tag": None,
    **dict.fromkeys(verify.PieceReport._fields[3:]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards:
    parsing keeps no state in it.  Its destinations are the fields of
    ``RunConfig``."""
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
            dest="module_tag",
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
            dest="output_path",
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
    return {"run": cfg._asdict(), "pieces": [], "lemmas": {}, "dims": []}


def _emit(cfg: RunConfig, report: dict, text: Callable[[], list[str]], table: Table) -> None:
    """Write the report in the chosen format: CSV writes ``table``, and
    ``text`` builds the lines of the text table, called only for
    ``--format text``."""
    if cfg.format == "json":
        payload = _dumps(report) + "\n"
    elif cfg.format == "csv":
        payload = _to_csv(table)
    else:
        payload = "\n".join(text()) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# no indent, so json takes its C encoder; NUL splits the encoded leaves, and
# it cannot occur inside one, since an encoded string escapes it as \u0000
_LEAVES = json.JSONEncoder(separators=("\0", ":"))


def _dumps(report: dict) -> str:
    """``json.dumps(..., indent=2)`` of the report with each ``Table`` as
    its list of JSON rows, byte for byte; ``_table`` writes the tables."""
    items = []
    for key, value in report.items():
        if isinstance(value, Table):
            text = _table(value)
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _table(table: Table) -> str:
    """A table's JSON rows as the value of a top-level key.

    The layout, indented once by ``json.dumps``, is a template whose slots
    are the lines that end in ``null``: every line of that output ends in
    its own value, and a key holds no raw newline.  The leaves of all rows,
    in the layout's depth-first key order, are encoded in one C encoder
    call and fill the repeated template with one ``%``."""
    fields, rows, layout = table
    if not rows:
        return "[]"
    template = (
        json.dumps(layout, indent=2)
        .replace("%", "%%")
        .replace("null\n", "%s\n")
        .replace("null,\n", "%s,\n")
        .replace("\n", "\n    ")
    )
    order = list(map(fields.index, _leaf_names(layout)))
    leaves = _LEAVES.encode([row[i] for row in rows for i in order])[1:-1]
    body = ",\n    ".join([template] * len(rows)) % tuple(leaves.split("\0") if leaves else ())
    return f"[\n    {body}\n  ]"


def _leaf_names(layout: dict) -> Iterator[str]:
    """The field names at the leaves of a layout, depth first in key order."""
    for key, value in layout.items():
        if value is None:
            yield key
        else:
            yield from _leaf_names(value)


def _to_csv(table: Table) -> str:
    """One CSV table; booleans render as ``true``/``false`` and ``None`` as
    an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.fields)
    for row in table.rows:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


def _cmd_verify(cfg: RunConfig) -> int:
    runs = [verify.verify_presentation(tag, cfg.max_weight) for tag in _selected_tags(cfg)]
    pieces = sorted(
        (p for run in runs for p in run.pieces),
        key=lambda p: (p.weight, p.charge, p.module_tag),
    )
    report = _skeleton(cfg)
    report["pieces"] = Table(verify.PieceReport._fields, pieces, PIECE_LAYOUT)
    report["dims"] = Table(
        DIMS_FIELDS,
        [(p.module_tag, p.weight, p.charge, p.rank_eval) for run in runs for p in run.pieces],
        dict.fromkeys(DIMS_FIELDS),
    )
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

    _emit(cfg, report, text, report["pieces"])
    return 0 if ok else 1


def _cmd_dims(cfg: RunConfig) -> int:
    rows = [
        (tag, w, k, d)
        for tag in _selected_tags(cfg)
        for (w, k), d in sorted(verify.graded_dims(tag, cfg.max_weight).items())
    ]
    report = _skeleton(cfg)
    report["dims"] = Table(DIMS_FIELDS, rows, dict.fromkeys(DIMS_FIELDS))

    def text() -> list[str]:
        lines = [f"graded dimensions to weight {cfg.max_weight}"]
        for tag, w, k, d in rows:
            lines.append(f"{tag:<14} weight {w:>3}  charge {k:>3}  dim {d}")
        return lines

    _emit(cfg, report, text, report["dims"])
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
        "translate_ideal_inclusion": relations.translate_ideal_inclusion(cfg.max_weight),
    }
    report = _skeleton(cfg)
    report["lemmas"] = results

    def text() -> list[str]:
        lines = [f"identity sweeps (t <= {cfg.t_max}, weight <= {cfg.max_weight})"]
        for name, ok in results.items():
            lines.append(f"{name:<28} {'pass' if ok else 'FAIL'}")
        return lines

    _emit(cfg, report, text, Table(("name", "ok"), list(results.items()), None))
    return 0 if all(results.values()) else 1


def _cmd_qseries(cfg: RunConfig) -> int:
    dims0 = verify.graded_dims("lambda0", cfg.max_weight)
    dims1 = verify.graded_dims("lambda1prime", cfg.max_weight)
    totals0 = verify.weight_totals(dims0, cfg.max_weight)
    totals1 = verify.weight_totals(dims1, cfg.max_weight)
    rows = []
    for n in range(cfg.max_weight + 1):
        o0 = verify.oracle_weight_total(n, 1)
        o1 = verify.oracle_weight_total(n, 2)
        rows.append((n, totals0[n], o0, totals1[n], o1, totals0[n] == o0 and totals1[n] == o1))
    fields = (
        "weight",
        "lambda0_total",
        "lambda0_oracle",
        "lambda1prime_total",
        "lambda1prime_oracle",
        "match",
    )
    report = _skeleton(cfg)
    report["dims"] = Table(fields, rows, dict.fromkeys(fields))

    def text() -> list[str]:
        lines = [
            f"graded dimension totals to weight {cfg.max_weight}",
            f"{'weight':>6}{'lambda0':>9}{'oracle':>8}{'lambda1prime':>14}{'oracle':>8}  match",
        ]
        for n, t0, o0, t1, o1, match in rows:
            lines.append(f"{n:>6}{t0:>9}{o0:>8}{t1:>14}{o1:>8}  {'yes' if match else 'NO'}")
        return lines

    _emit(cfg, report, text, report["dims"])
    return 0 if all(row[-1] for row in rows) else 1


_DISPATCH = {
    "verify": _cmd_verify,
    "dims": _cmd_dims,
    "lemmas": _cmd_lemmas,
    "qseries": _cmd_qseries,
}


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
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
