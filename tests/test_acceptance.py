"""Acceptance suite: one test per exit criterion, at the stated bounds and
tolerances (every comparison exact).  Each prints a single pass/fail line;
run with ``pytest -s tests/test_acceptance.py`` to see them all.
"""

import io
import json
import time
from contextlib import redirect_stdout

from principal_subspaces.cli import main
from principal_subspaces.fock import check_square_zero
from principal_subspaces.linalg import kernel_basis
from principal_subspaces.poly import coordinates, enumerate_monomials
from principal_subspaces.relations import (
    check_derive_relation,
    check_lift_identity,
    check_translate_relation,
    quadratic_relation,
)
from principal_subspaces.verify import (
    eval_matrix,
    graded_dims,
    oracle_weight_total,
    verify_presentation,
    weight_totals,
)

EXPECTED_TOTALS_14 = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12]


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_presentation_lambda0():
    start = time.perf_counter()
    run = verify_presentation("lambda0", 12)
    elapsed = time.perf_counter() - start
    ok = run.all_pass and elapsed < 30.0
    report(f"presentation lambda0 to weight 12 ({elapsed:.2f}s)", ok)


def test_presentation_lambda1prime():
    run = verify_presentation("lambda1prime", 12)
    report("presentation lambda1prime to weight 12", run.all_pass)


def test_presentation_lambda1_and_kernel_containment(kernel_containment_L0_in_L1):
    run = verify_presentation("lambda1", 12)
    contained = kernel_containment_L0_in_L1(12)
    report("presentation lambda1 to weight 12 + kernel containment", run.all_pass and contained)


def test_graded_dimension_oracle_to_weight_14():
    totals = weight_totals(graded_dims("lambda0", 14), 14)
    oracle = [oracle_weight_total(n, 1) for n in range(15)]
    ok = totals == oracle == EXPECTED_TOTALS_14
    report("graded dimensions of lambda0 match difference-two counts to 14", ok)


def test_identity_sweeps():
    ok = (
        all(check_translate_relation(t) for t in range(2, 21))
        and all(check_derive_relation(t) for t in range(2, 21))
        and all(check_lift_identity(t) for t in range(4, 21))
    )
    report("translate/derive sweeps t<=20, lift sweep 4<=t<=20", ok)


def test_square_zero_to_weight_6():
    report("squared vertex operator vanishes to weight 6, both cosets", check_square_zero(6))


def test_ideal_derivation_stability_to_weight_10(ideal_D_stability):
    report("derivation stability of the lambda0 ideal to weight 10", ideal_D_stability(10))


def test_low_charge_kernel_structure(span_equal):
    """Charge-1 kernel pieces vanish; each charge-2 kernel piece at weight t
    is one-dimensional, spanned by the weight-t relation."""
    ok = True
    for tag, floor, t_min in (("lambda0", -1, 2), ("lambda1prime", -2, 4)):
        for weight in range(1, 13):
            if kernel_basis(eval_matrix(tag, weight, 1)):
                ok = False
        for t in range(t_min, 13):
            kernel = kernel_basis(eval_matrix(tag, t, 2))
            basis = enumerate_monomials(t, 2, floor)
            expected = coordinates([quadratic_relation(t, floor)], basis)
            if len(kernel) != 1 or not span_equal(kernel, expected, len(basis)):
                ok = False
    report("charge-1 kernels vanish, charge-2 kernels spanned by relations (t<=12)", ok)


def test_verify_cli_is_deterministic():
    def run_once():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["verify", "--format", "json"])
        return code, buf.getvalue()

    code1, out1 = run_once()
    code2, out2 = run_once()
    ok = code1 == code2 == 0 and out1 == out2 and json.loads(out1)["pieces"]
    report("two verify --format json runs are byte-identical", bool(ok))
