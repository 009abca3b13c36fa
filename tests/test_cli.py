"""Command line behaviour: exit codes, formats, determinism."""

import dataclasses
import json
import re

import pytest

from principal_subspaces import relations
from principal_subspaces.cli import main
from principal_subspaces.fock import FockState, apply_monomial
from principal_subspaces.poly import Monomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_json_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--module", "lambda0", "--max-weight", "4", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"run", "pieces", "lemmas", "dims"}
    assert report["run"]["command"] == "verify"
    assert report["run"]["module_tag"] == "lambda0"
    assert all(p["equality_ok"] for p in report["pieces"])
    piece = next(
        p for p in report["pieces"] if p["idx"] == {"weight": 4, "charge": 2}
    )
    assert piece["dim_domain"] == 2 and piece["dim_kernel"] == 1


def test_verify_json_roundtrips_byte_identical(capsys):
    code, out, _ = run(
        capsys, "verify", "--module", "lambda1prime", "--max-weight", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_verify_all_modules_text(capsys):
    code, out, _ = run(capsys, "verify", "--max-weight", "3")
    assert code == 0
    assert "all equal: yes" in out
    for tag in ("lambda0", "lambda1", "lambda1prime"):
        assert tag in out


def test_verify_rejects_zero_weight(capsys):
    code, out, err = run(capsys, "verify", "--max-weight", "0")
    assert code == 2
    assert out == ""
    assert "max-weight" in err


def test_lemmas_passes(capsys):
    code, out, _ = run(capsys, "lemmas", "--t-max", "6", "--max-weight", "2")
    assert code == 0
    assert "square_zero" in out and "FAIL" not in out


def test_lemmas_json_names(capsys):
    code, out, _ = run(
        capsys, "lemmas", "--t-max", "4", "--max-weight", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["lemmas"] == {
        "translate_relation": True,
        "derivation_relation": True,
        "lift_identity": True,
        "square_zero": True,
        "translate_ideal_inclusion": True,
    }


def test_lemmas_rejects_small_t_max(capsys):
    code, _, err = run(capsys, "lemmas", "--t-max", "3")
    assert code == 2
    assert "t-max" in err


def test_t_max_ignored_outside_lemmas(capsys):
    code, _, err = run(capsys, "verify", "--t-max", "2", "--max-weight", "2")
    assert code == 0
    assert err == ""


def witness_monomial(witness):
    """Parse a single-monomial witness such as ``x(-1)^2``."""
    factors = re.findall(r"x\((-?\d+)\)(?:\^(\d+))?", witness)
    mono = Monomial(
        tuple(int(m) for m, exp in factors for _ in range(int(exp or 1)))
    )
    assert str(mono) == witness
    return mono


@pytest.mark.parametrize(
    "change, idx, containment_ok, witness, killed",
    [
        # an ideal holding x(-1) is not inside the kernel
        ({"includes_degree_one_generator": True}, (1, 1), False, "x(-1)", False),
        # without the weight-2 relation the kernel escapes the ideal
        ({"relation_weight_min": 3}, (2, 2), True, "x(-1)^2", True),
    ],
)
def test_verify_fails_on_mutated_ideal(
    capsys, monkeypatch, change, idx, containment_ok, witness, killed
):
    spec = relations.IDEALS["lambda0"]
    monkeypatch.setitem(relations.IDEALS, "lambda0", dataclasses.replace(spec, **change))
    code, out, _ = run(
        capsys, "verify", "--module", "lambda0", "--max-weight", "4", "--format", "json"
    )
    assert code == 1
    piece = next(
        p for p in json.loads(out)["pieces"]
        if (p["idx"]["weight"], p["idx"]["charge"]) == idx
    )
    assert piece["containment_ok"] is containment_ok
    assert piece["equality_ok"] is False
    assert piece["witness"] == witness
    image = apply_monomial(witness_monomial(witness), FockState((), 0))
    assert image.is_zero() is killed


def test_qseries_matches_oracle(capsys):
    code, out, _ = run(capsys, "qseries", "--max-weight", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)["dims"]
    assert [r["lambda0_total"] for r in rows] == [1, 1, 1, 1, 2, 2, 3]
    assert [r["lambda1prime_total"] for r in rows] == [1, 0, 1, 1, 1, 1, 2]
    assert all(r["match"] for r in rows)


def test_qseries_weight_one_row(capsys):
    code, out, _ = run(capsys, "qseries", "--max-weight", "1")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip().startswith("1 ")]
    assert lines and lines[0].split()[:3] == ["1", "1", "1"]


def test_qseries_accepts_weight_zero(capsys):
    code, out, _ = run(capsys, "qseries", "--max-weight", "0", "--format", "json")
    assert code == 0
    rows = json.loads(out)["dims"]
    assert len(rows) == 1
    assert rows[0]["lambda0_total"] == rows[0]["lambda1prime_total"] == 1


def test_dims_csv_has_header(capsys):
    code, out, _ = run(
        capsys, "dims", "--module", "lambda0", "--max-weight", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "module_tag,weight,charge,dim"
    assert lines[1] == "lambda0,0,0,1"


def test_verify_csv_header(capsys):
    code, out, _ = run(
        capsys, "verify", "--module", "lambda0", "--max-weight", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "module_tag,weight,charge,dim_domain,rank_eval,dim_kernel,"
        "dim_ideal_piece,containment_ok,equality_ok,witness"
    )


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--module", "lambda0", "--max-weight", "2",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["run"]["output_path"] == str(path)


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_repeat_runs_byte_identical(capsys):
    args = ["verify", "--module", "lambda0", "--max-weight", "5", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
