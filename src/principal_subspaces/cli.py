"""Command line front end.

Four subcommands: ``verify`` runs the kernel-equals-ideal check per bigraded
piece, ``dims`` emits the graded dimension table, ``lemmas`` sweeps the
supporting identities, and ``qseries`` compares weight totals against the
independent difference-two partition counts.  Reports go to stdout (or
``--out``) as text, JSON or CSV; exit code 0 means every check passed,
1 means some mathematical check was falsified, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import fock, relations, verify

MODULE_CHOICES = ("lambda0", "lambda1", "lambda1prime", "all")
FORMAT_CHOICES = ("json", "csv", "text")


@dataclass
class RunConfig:
    command: str
    module_tag: str
    max_weight: int
    t_max: int
    format: str
    output_path: str | None

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "module_tag": self.module_tag,
            "max_weight": self.max_weight,
            "t_max": self.t_max,
            "format": self.format,
            "output_path": self.output_path,
        }


def build_parser() -> argparse.ArgumentParser:
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


def _emit(cfg: RunConfig, report: dict, text: str) -> None:
    if cfg.format == "json":
        payload = json.dumps(report, indent=2) + "\n"
    elif cfg.format == "csv":
        payload = _to_csv(cfg, report)
    else:
        payload = text
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _to_csv(cfg: RunConfig, report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if cfg.command == "verify":
        writer.writerow(
            [
                "module_tag",
                "weight",
                "charge",
                "dim_domain",
                "rank_eval",
                "dim_kernel",
                "dim_ideal_piece",
                "containment_ok",
                "equality_ok",
                "witness",
            ]
        )
        for p in report["pieces"]:
            writer.writerow(
                [
                    p["module_tag"],
                    p["idx"]["weight"],
                    p["idx"]["charge"],
                    p["dim_domain"],
                    p["rank_eval"],
                    p["dim_kernel"],
                    p["dim_ideal_piece"],
                    str(p["containment_ok"]).lower(),
                    str(p["equality_ok"]).lower(),
                    p["witness"] or "",
                ]
            )
    elif cfg.command == "lemmas":
        writer.writerow(["name", "ok"])
        for name, ok in report["lemmas"].items():
            writer.writerow([name, str(ok).lower()])
    else:
        rows = report["dims"]
        header = list(rows[0].keys()) if rows else []
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [str(v).lower() if isinstance(v, bool) else v for v in row.values()]
            )
    return buf.getvalue()


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
    _emit(cfg, report, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_dims(cfg: RunConfig) -> int:
    report = _skeleton(cfg)
    lines = [f"graded dimensions to weight {cfg.max_weight}"]
    for tag in _selected_tags(cfg):
        dims = verify.graded_dims(tag, cfg.max_weight)
        for (w, k), d in sorted(dims.items()):
            report["dims"].append(
                {"module_tag": tag, "weight": w, "charge": k, "dim": d}
            )
            lines.append(f"{tag:<14} weight {w:>3}  charge {k:>3}  dim {d}")
    _emit(cfg, report, "\n".join(lines) + "\n")
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
    lines = [f"identity sweeps (t <= {cfg.t_max}, weight <= {cfg.max_weight})"]
    for name, ok in results.items():
        lines.append(f"{name:<28} {'pass' if ok else 'FAIL'}")
    _emit(cfg, report, "\n".join(lines) + "\n")
    return 0 if all(results.values()) else 1


def _cmd_qseries(cfg: RunConfig) -> int:
    dims0 = verify.graded_dims("lambda0", cfg.max_weight)
    dims1 = verify.graded_dims("lambda1prime", cfg.max_weight)
    totals0 = verify.weight_totals(dims0, cfg.max_weight)
    totals1 = verify.weight_totals(dims1, cfg.max_weight)
    report = _skeleton(cfg)
    lines = [
        f"graded dimension totals to weight {cfg.max_weight}",
        f"{'weight':>6}{'lambda0':>9}{'oracle':>8}{'lambda1prime':>14}{'oracle':>8}  match",
    ]
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
        lines.append(
            f"{n:>6}{totals0[n]:>9}{o0:>8}{totals1[n]:>14}{o1:>8}"
            f"  {'yes' if match else 'NO'}"
        )
    _emit(cfg, report, "\n".join(lines) + "\n")
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
    return _DISPATCH[cfg.command](cfg)


if __name__ == "__main__":
    raise SystemExit(main())
