"""Correctness gate applied to every benchmark sample, timed or traced.

A sample passes only if the process exited 0, its stdout splits into one
JSON report per command line, each report's SHA-256 equals the digest
pinned here for that command line (reports are byte-identical by design),
and each report's own verdicts hold: every piece has ``containment_ok`` and
``equality_ok`` true, every lemma is true and every ``qseries`` row has
``match`` true.  Reports are read from stdout rather than ``--out`` because
the report embeds ``run.output_path``.
"""

from __future__ import annotations

import hashlib
import json

# sha256 of each report, keyed by its psverify command line
PINNED_SHA256 = {
    "verify --module all --max-weight 22 --format json":
        "fd5f5ef344e5bb61fc4f8fde5659dd3ea5fc12b8b960b228bf87c98fec319047",
    "lemmas --max-weight 6 --t-max 20 --format json":
        "136649a1ebfc9ae7e67cdf8ce9e6466c98ed6879a14d3eeb3793eaea023a4e6d",
    "verify --module all --max-weight 20 --format json":
        "13d0cba9d1d1a1912fc1e226e424453fd41401864cb7aca4b05d73b66aa413c8",
    "qseries --module all --max-weight 20 --format json":
        "35ecba9d3d1750cc88b2f4e7fac1805a9d90d744c0d94c188f603cecd8dbe32f",
    "dims --module all --max-weight 20 --format json":
        "7dd55cd0c8235d7f119caf2469b67514b9659c6091786f0eda6675890acc48fa",
}


def split_reports(stdout: bytes) -> list[bytes]:
    """The concatenated JSON reports of one process, each with the newline
    that ends it.  Raises ValueError if stdout is not such a sequence."""
    text = stdout.decode("utf-8")
    decoder = json.JSONDecoder()
    reports = []
    pos = 0
    while pos < len(text):
        _, end = decoder.raw_decode(text, pos)
        if text[end:end + 1] != "\n":
            raise ValueError(f"report ending at offset {end} is not newline-terminated")
        reports.append(text[pos:end + 1].encode("utf-8"))
        pos = end + 1
    return reports


def verdict_problems(report: dict) -> list[str]:
    """Every verdict in one parsed report that is not a pass."""
    problems = []
    for p in report["pieces"]:
        for key in ("containment_ok", "equality_ok"):
            if p[key] is not True:
                problems.append(
                    f"{p['module_tag']} piece {p['idx']}: {key} is {p[key]!r}"
                )
    problems += [f"lemma {name} is {ok!r}" for name, ok in report["lemmas"].items() if ok is not True]
    problems += [f"qseries weight {row['weight']}: match is {row['match']!r}"
                 for row in report["dims"] if "match" in row and row["match"] is not True]
    return problems


def check(argvs: list[list[str]], exit_code: int, stdout: bytes,
          pinned: dict[str, str] = PINNED_SHA256) -> list[str]:
    """Problems found in one sample; an empty list means it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        reports = split_reports(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not a sequence of JSON reports: {exc}"]
    if len(reports) != len(argvs):
        return problems + [f"{len(reports)} reports for {len(argvs)} command lines"]
    for argv, raw in zip(argvs, reports):
        line = " ".join(argv)
        digest = hashlib.sha256(raw).hexdigest()
        if pinned.get(line) != digest:
            problems.append(f"{line}: sha256 {digest} is not the pinned {pinned.get(line)}")
        report = json.loads(raw)
        try:
            if report["run"]["command"] != argv[0]:
                problems.append(f"{line}: report is for {report['run']['command']!r}")
            problems += [f"{line}: {p}" for p in verdict_problems(report)]
        except (KeyError, TypeError) as exc:
            problems.append(f"{line}: malformed report ({exc!r})")
    return problems
