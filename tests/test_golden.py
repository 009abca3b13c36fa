"""Golden reports: the SHA-256 of every subcommand's output in every format.

Any change to a verdict, a number, the row order or the rendering of a
report changes its digest.  A deliberate change to the report layout has to
update these digests in the same change.  The reports that the benchmark
gate pins, in ``perfbench/gate.py``, are checked here too, from that file.
Every JSON report here is also compared with ``json.dumps(...,
indent=2)`` of the report with each table turned into its row dicts
through its layout (the ``json_oracle`` fixture), the oracle of the cli's
JSON writer.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from principal_subspaces.cli import main

# each report by its test id: the command line, and the SHA-256 of its
# bytes in each format
DIGESTS = {
    "verify": (
        ("verify", "--max-weight", "6"),
        {
            "text": "bae41ffad6e9def83a63e0bbdb1b3eb077303b62d995cd18845ad7de82026b58",
            "csv": "7779bc597a04813b6ccece48112fbb1c00605b99319541774b800201cb26cbe1",
            "json": "7b9a6256ea162c01835284647645cdf046b621ff079f874d1c8e7bc26395f760",
        },
    ),
    "dims": (
        ("dims", "--max-weight", "6"),
        {
            "text": "3fef5376d886f791cb671e1f0eee180ecde0569536ec739f77916f64d13f746b",
            "csv": "dfc23451f5f1c1d3a2d07d4908286d0ffc3c489140ad03ac4568f2547f0544bc",
            "json": "f61014c44dd0ce923e9a6d5590fb62c20f83af520277b51c150a23b8be3b7a9e",
        },
    ),
    "qseries": (
        ("qseries", "--max-weight", "6"),
        {
            "text": "be2fb7cec86aafd58c819330add14c974f64bfbff9f8d91cb6c7260663823e59",
            "csv": "8791a94c69d27a8f84d9b5958375f6d1efaff56b13b6f5d345cfc28759a98a18",
            "json": "86c622bc0b1f053c76a499df9bba4c06bf502c4f70551f2e27e93d3bc3ab17b4",
        },
    ),
    "verify_w30": (
        ("verify", "--module", "all", "--max-weight", "30"),
        {
            "text": "b7b03430b04d8393619b2beed89efbecefd8e41b1be8d8d725fe2acfb5f737fb",
            "csv": "bcf13c9f9ed84c175fdd0f7439439396209cea969799b617a186043139c164d0",
            "json": "eb5444bda7179c0da1da70cc337e12f52781b664450639d6eb047009733b25b0",
        },
    ),
    "lemmas": (
        ("lemmas", "--max-weight", "2", "--t-max", "6"),
        {
            "text": "1c5daf6cb3356211d460352d47e98022edd9d542e65bec6c22b884e7a4279c21",
            "csv": "bf6bba095158d218ee02dc3c44af518ba4f68bd5ea0c68877e76ab7ca56daa06",
            "json": "ee273085e5b0386dc8f33f1c6231bc2bdc50fdc3c4ed018a1c721e2a5120f235",
        },
    ),
    "lemmas_w14": (
        ("lemmas", "--max-weight", "14", "--t-max", "20"),
        {
            "text": "aba90e476f414eda4fc4a18daf662bcd1d30c7339592c36977bbd52d2dc49eec",
            "csv": "bf6bba095158d218ee02dc3c44af518ba4f68bd5ea0c68877e76ab7ca56daa06",
            "json": "ffdbad06819f5a4bf512f001651ec3d7ff21b4935a93e9bfaa81c4f29ecfc679",
        },
    ),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("report", list(DIGESTS))
def test_report_bytes_are_pinned(capsys, json_oracle, report, fmt):
    """The digest holds, and a JSON report is written as the
    ``json_oracle`` fixture's ``json.dumps`` would write it."""
    argv, digests = DIGESTS[report]
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]
    assert len(json_oracle) == (fmt == "json")


def _gate_pins():
    """``PINNED_SHA256`` of ``perfbench/gate.py``, read from that file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.PINNED_SHA256


GATE_PINS = _gate_pins()


@pytest.mark.parametrize("line", list(GATE_PINS))
def test_benchmark_reports_are_pinned(capsys, json_oracle, line):
    """Each command line of the benchmark gate, run through ``main`` in
    this process, prints the report with the gate's digest, as the
    ``json_oracle`` fixture's ``json.dumps`` would write it."""
    code = main(line.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GATE_PINS[line]
    assert len(json_oracle) == 1
