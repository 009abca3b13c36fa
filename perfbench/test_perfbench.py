"""Tests for the benchmark's correctness gate and span recorder.

    python3 -m unittest discover -s perfbench -v

The gate must reject a doctored report, or a verifier that always said
"pass" would go unnoticed by every timed run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from principal_subspaces import cli  # noqa: E402

SMALL = [
    ["verify", "--module", "all", "--max-weight", "6", "--format", "json"],
    ["lemmas", "--max-weight", "2", "--t-max", "6", "--format", "json"],
    ["qseries", "--module", "all", "--max-weight", "6", "--format", "json"],
]


def psverify(argvs: list[list[str]]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes = [cli.main(argv) for argv in argvs]
    assert codes == [0] * len(argvs)
    return buf.getvalue().encode()


def pins(stdout: bytes, argvs: list[list[str]]) -> dict[str, str]:
    """Digests of exactly these reports, so a test can isolate one check."""
    return {
        " ".join(argv): hashlib.sha256(raw).hexdigest()
        for argv, raw in zip(argvs, gate.split_reports(stdout))
    }


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.stdout = psverify(SMALL)
        cls.pinned = pins(cls.stdout, SMALL)

    def doctor(self, old: bytes, new: bytes) -> bytes:
        self.assertIn(old, self.stdout)
        return self.stdout.replace(old, new, 1)

    def test_genuine_reports_pass(self):
        self.assertEqual(gate.check(SMALL, 0, self.stdout, self.pinned), [])

    def test_flipped_equality_fails_even_with_matching_digest(self):
        doctored = self.doctor(b'"equality_ok": true', b'"equality_ok": false')
        problems = gate.check(SMALL, 0, doctored, pins(doctored, SMALL))
        self.assertEqual(len(problems), 1)
        self.assertIn("equality_ok is False", problems[0])

    def test_false_lemma_and_qseries_mismatch_fail(self):
        doctored = self.doctor(b'"square_zero": true', b'"square_zero": false')
        doctored = doctored.replace(b'"match": true', b'"match": false', 1)
        problems = gate.check(SMALL, 0, doctored, pins(doctored, SMALL))
        self.assertEqual(len(problems), 2)
        self.assertIn("lemma square_zero is False", problems[0])
        self.assertIn("match is False", problems[1])

    def test_one_changed_byte_fails_the_digest(self):
        doctored = self.doctor(b'"max_weight": 6', b'"max_weight": 7')
        problems = gate.check(SMALL, 0, doctored, self.pinned)
        self.assertEqual(len(problems), 1)
        self.assertIn("sha256", problems[0])

    def test_nonzero_exit_code_fails(self):
        self.assertEqual(gate.check(SMALL, 1, self.stdout, self.pinned), ["exit code 1"])

    def test_missing_reordered_or_truncated_reports_fail(self):
        self.assertTrue(gate.check(SMALL[:2], 0, self.stdout, self.pinned))
        self.assertTrue(gate.check(SMALL[::-1], 0, self.stdout, self.pinned))
        self.assertTrue(gate.check(SMALL, 0, self.stdout[:-10], self.pinned))
        self.assertTrue(gate.check(SMALL, 0, b"", self.pinned))

    def test_every_workload_command_line_is_pinned(self):
        for make in run.WORKLOADS.values():
            for seed in range(6):
                for argvs in itertools.islice(make(random.Random(seed)), 12):
                    for argv in argvs:
                        self.assertIn(" ".join(argv), gate.PINNED_SHA256)


class SpansTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        trace = {"span_ns": 5, "spans": [
            ["cli.main", 0, 100, -1, 0, None],
            ["linalg.rank", 10, 60, 0, 0, None],
            ["linalg.rref", 20, 50, 1, 0, [12, 3]],
            ["linalg.rref", 70, 80, 0, 0, [4, 1]],
        ]}
        m = spans.layer_metrics(trace)
        self.assertEqual(m["cli.main.self_s"], 40e-9)
        self.assertEqual(m["linalg.rank.self_s"], 20e-9)
        self.assertEqual(m["linalg.rref.self_s"], 40e-9)
        self.assertEqual(m["linalg.rref.calls"], 2)
        self.assertEqual(m["linalg.rref.cells_in"], 16)
        self.assertEqual(m["linalg.rref.fill_out"], 0.25)
        self.assertEqual(m["fock.apply_monomial.calls"], 0)
        self.assertEqual(m["verify.eval_matrix.distinct_frac"], 0.0)
        # 4 spans of 5 ns each inside 100 ns of traced time
        self.assertEqual(m["trace.overhead_frac"], 20 / 80)

    def test_span_cost_is_positive_and_small(self):
        cost = spans.span_cost_ns(calls=2000, repeats=3)
        self.assertGreater(cost, 0)
        self.assertLess(cost, 1e6)

    def test_recorder_sees_calls_through_imported_names(self):
        argvs = [SMALL[0], ["dims", "--module", "lambda0", "--max-weight", "6", "--format", "json"]]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.json")
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--spans", path, json.dumps(argvs)],
                capture_output=True, env=run.child_env(), check=True,
            )
            with open(path, encoding="utf-8") as fh:
                trace = json.load(fh)
        self.assertEqual(proc.stdout, psverify(argvs))
        self.assertEqual({s[4] for s in trace["spans"]}, {0, 1})
        m = spans.layer_metrics(trace)
        verify_report = json.loads(gate.split_reports(proc.stdout)[0])
        pieces = len(verify_report["pieces"])
        # verify.py calls these through names imported from their modules
        self.assertEqual(m["verify.piece_report.calls"], pieces)
        self.assertEqual(m["relations.ideal_piece.calls"], pieces)
        self.assertEqual(m["linalg.kernel_basis.calls"], pieces)
        # dims rebuilds the lambda0 matrices verify already built
        lambda0 = sum(p["module_tag"] == "lambda0" for p in verify_report["pieces"])
        self.assertEqual(m["verify.eval_matrix.calls"], pieces + lambda0)
        self.assertEqual(m["verify.eval_matrix.distinct_frac"], pieces / (pieces + lambda0))
        self.assertGreater(m["fock.apply_monomial.calls"], 0)
        self.assertGreater(m["trace.overhead_frac"], 0)
        self.assertEqual(
            m["relations.ideal_piece.useful_frac"],
            sum(p["dim_ideal_piece"] for p in verify_report["pieces"]) / m["relations.ideal_piece.polys"],
        )


if __name__ == "__main__":
    unittest.main()
