"""Command line behaviour: exit codes, formats, determinism."""

import csv
import io
import json
import re

import pytest

from principal_subspaces import cli, linalg, relations, verify
from principal_subspaces.cli import build_parser, main
from principal_subspaces.linalg import subspace_leq
from principal_subspaces.poly import (
    PolyQ,
    coordinates,
    enumerate_monomials,
    x,
)


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
    mono = tuple(sorted(int(m) for m, exp in factors for _ in range(int(exp or 1))))
    assert str(PolyQ({mono: 1})) == witness
    return mono


@pytest.mark.parametrize(
    "tag, change, idx, containment_ok, witness, killed",
    [
        # an ideal holding x(-1) is not inside the kernel
        ("lambda0", {"includes_degree_one_generator": True}, (1, 1), False, "x(-1)", False),
        # without the weight-2 relation the kernel escapes the ideal
        ("lambda0", {"zero_relation": 2}, (2, 2), True, "x(-1)^2", True),
        # wrong vacuum: on e^{alpha/2} x(-1) acts as zero, outside the lambda0 ideal
        ("lambda0", {"two_r": 1}, (1, 1), True, "x(-1)", True),
        # wrong vacuum: on e^0 the generator x(-1) of the lambda1 ideal survives
        ("lambda1", {"two_r": 0}, (1, 1), False, "x(-1)", False),
        # wrong vacuum: on e^0 the weight-4 relation x(-2)^2 survives
        ("lambda1prime", {"two_r": 0}, (4, 2), False, "x(-2)^2", False),
        # without its degree-one generator the lambda1 ideal misses x(-1)
        ("lambda1", {"includes_degree_one_generator": False}, (1, 1), True, "x(-1)", True),
    ],
)
def test_verify_fails_on_mutated_ideal(
    capsys, monkeypatch, tag, change, idx, containment_ok, witness, killed
):
    """Each change is to the fields of the module's ``IdealSpec``, or, for
    ``zero_relation`` t, the relation of weight t replaced by zero."""
    if "zero_relation" in change:
        zero_relation(monkeypatch, change["zero_relation"])
    else:
        spec = relations.IDEALS[tag]._replace(**change)
        monkeypatch.setitem(relations.IDEALS, tag, spec)
    spec = relations.IDEALS[tag]
    monkeypatch.setattr(verify, "fallbacks", 0)
    code, out, _ = run(
        capsys, "verify", "--module", tag, "--max-weight", "4", "--format", "json"
    )
    assert code == 1
    assert verify.fallbacks >= 1
    piece = next(
        p for p in json.loads(out)["pieces"]
        if (p["idx"]["weight"], p["idx"]["charge"]) == idx
    )
    assert piece["containment_ok"] is containment_ok
    assert piece["equality_ok"] is False
    assert piece["witness"] == witness
    # the Fock matrix reads the patched spec's vacuum
    monos = enumerate_monomials(*idx, spec.ambient_floor)
    (vec,) = coordinates([PolyQ({witness_monomial(witness): 1})], monos)
    image = verify.fock_matrix(tag, *idx).matvec(vec)
    assert (image == {}) is killed


def zero_relation(monkeypatch, weight):
    """Replace the relation of the given weight, at either floor, by zero."""
    original = relations.quadratic_relation
    monkeypatch.setattr(
        relations,
        "quadratic_relation",
        lambda t, floor=-1: PolyQ() if t == weight else original(t, floor),
    )


CUBE = x(-3) * x(-3) * x(-3)

# the witnesses on (9,3) and (12,4) once the weight-6 relation is dropped
LATER_WITNESSES = {
    "lambda0": [6 * (x(-5) * x(-3) * x(-1)) + CUBE, CUBE * x(-3)],
    "lambda1": [CUBE, CUBE * x(-3)],
    "lambda1prime": [CUBE, CUBE * x(-3)],
}


@pytest.mark.parametrize(
    "tag, witness",
    [
        ("lambda0", 2 * (x(-5) * x(-1)) + 2 * (x(-4) * x(-2)) + x(-3) * x(-3)),
        ("lambda1", 2 * (x(-4) * x(-2)) + x(-3) * x(-3)),
        ("lambda1prime", 2 * (x(-4) * x(-2)) + x(-3) * x(-3)),
    ],
)
def test_verify_fails_without_one_relation_weight(
    capsys, monkeypatch, force_certificate_off, tag, witness
):
    """Dropping the weight-6 relation leaves a kernel vector outside the
    ideal on (6,2), (9,3) and (12,4): at (6,2) a multi-term witness with
    non-unit coefficients.  The certificate declines on each of them, and
    the report is the one the rational path gives with it forced off."""
    zero_relation(monkeypatch, 6)
    monkeypatch.setattr(verify, "fallbacks", 0)
    args = ["verify", "--module", tag, "--max-weight", "12", "--format", "json"]
    code, out, _ = run(capsys, *args)
    assert code == 1
    failed = [p for p in json.loads(out)["pieces"] if not p["equality_ok"]]
    assert [(p["idx"]["weight"], p["idx"]["charge"]) for p in failed] == [
        (6, 2), (9, 3), (12, 4)
    ]
    assert verify.fallbacks >= len(failed)
    spec = relations.IDEALS[tag]
    for piece, witness in zip(failed, [witness, *LATER_WITNESSES[tag]]):
        assert piece["containment_ok"] is True
        assert piece["witness"] == str(witness)
        weight, charge = piece["idx"]["weight"], piece["idx"]["charge"]
        monos = enumerate_monomials(weight, charge, spec.ambient_floor)
        (vec,) = coordinates([witness], monos)
        assert not verify.fock_matrix(tag, weight, charge).matvec(vec)
        ideal = coordinates(relations.ideal_piece(tag, weight, charge), monos)
        assert not subspace_leq(coordinates([witness], monos), ideal, len(monos))
    force_certificate_off()
    code_off, out_off, _ = run(capsys, *args)
    assert (code_off, out_off) == (code, out)


def test_verify_fails_with_a_halved_relation_coefficient(capsys, monkeypatch, json_oracle):
    """With 2*x(-3)*x(-1) changed to x(-3)*x(-1) in the weight-4 relation,
    the lambda0 ideal piece (4,2) has the kernel's dimension but lies
    outside it: only the containment check can reject it.  The failing
    report, witness and all, is written as ``json.dumps`` writes it."""
    original = relations.quadratic_relation
    monkeypatch.setattr(
        relations,
        "quadratic_relation",
        lambda t, floor=-1: (
            PolyQ({m: 1 for m in original(t, floor).terms}) if t == 4 else original(t, floor)
        ),
    )
    monkeypatch.setattr(verify, "fallbacks", 0)
    code, out, _ = run(
        capsys, "verify", "--module", "lambda0", "--max-weight", "6", "--format", "json"
    )
    assert code == 1
    assert verify.fallbacks >= 1
    assert len(json_oracle) == 1
    failed = [p for p in json.loads(out)["pieces"] if not p["equality_ok"]]
    assert [(p["idx"]["weight"], p["idx"]["charge"]) for p in failed] == [(4, 2)]
    piece = failed[0]
    assert piece["containment_ok"] is False
    assert piece["dim_kernel"] == piece["dim_ideal_piece"] == 1
    witness = x(-3) * x(-1) + x(-2) * x(-2)
    assert piece["witness"] == str(witness)
    (vec,) = coordinates([witness], enumerate_monomials(4, 2, -1))
    assert verify.fock_matrix("lambda0", 4, 2).matvec(vec)


def test_verify_fails_on_relations_outside_the_domain(
    capsys, monkeypatch, floor_minus_one_piece
):
    """lambda1prime with the floor -1 relations: its ideal leaves the
    subalgebra on indices <= -2 that the evaluation map is defined on.  The
    first ideal polynomial with an x(-1) term fails containment and is the
    witness; nothing raises."""
    tag = "lambda1prime"
    monkeypatch.setattr(verify, "ideal_piece", floor_minus_one_piece)
    monkeypatch.setattr(verify, "fallbacks", 0)
    code, out, _ = run(
        capsys, "verify", "--module", tag, "--max-weight", "6", "--format", "json"
    )
    assert code == 1
    assert verify.fallbacks >= 1
    failed = [p for p in json.loads(out)["pieces"] if not p["equality_ok"]]
    piece = failed[0]
    assert (piece["idx"]["weight"], piece["idx"]["charge"]) == (4, 2)
    assert piece["containment_ok"] is False
    witness = relations.quadratic_relation(4, -1)
    assert piece["witness"] == str(witness)
    assert witness in floor_minus_one_piece(tag, 4, 2)
    domain = enumerate_monomials(4, 2, relations.IDEALS[tag].ambient_floor)
    assert any(mono not in domain for mono in witness.terms)


# one term added to R_6, at either floor, that no product of its blocks
# can carry into the domain
EXTRA_TERMS = {
    "wrong-weight": x(-4) * x(-3),
    "wrong-charge": x(-2) * x(-2) * x(-2),
    "above-floor": x(-6) * x(0),
}


@pytest.mark.parametrize("extra", EXTRA_TERMS)
def test_verify_fails_on_a_relation_term_off_its_bidegree(
    capsys, monkeypatch, patch_relation, ideal_piece_by_products, ideal_rows_by_three_passes,
    extra,
):
    """R_6 with an extra term of the wrong weight, of the wrong charge or
    with an index above the floor: the generator check of ``_kills``
    fails on R_6, and verify exits 1.  On every piece to weight 10 the
    report's witness is the one the ``PolyQ`` route gives, general
    products read in three passes, and a piece passes exactly where that
    route finds no witness."""
    patch_relation(6, lambda rel: rel + EXTRA_TERMS[extra])
    monkeypatch.setattr(verify, "fallbacks", 0)
    code, out, _ = run(capsys, "verify", "--max-weight", "10", "--format", "json")
    assert code == 1
    failed = 0
    for p in json.loads(out)["pieces"]:
        tag, weight, charge = p["module_tag"], p["idx"]["weight"], p["idx"]["charge"]
        polys = ideal_piece_by_products(tag, weight, charge)
        monos = enumerate_monomials(weight, charge, relations.IDEALS[tag].ambient_floor)
        domain = {mono: j for j, mono in enumerate(monos)}
        matrix = verify.eval_matrix(tag, weight, charge)
        witness = ideal_rows_by_three_passes(polys, domain, matrix)[2]
        if witness is None:
            assert p["equality_ok"] and p["witness"] is None
        else:
            assert not p["containment_ok"] and not p["equality_ok"]
            assert p["witness"] == str(polys[witness])
            failed += 1
    assert failed == verify.fallbacks > 0


@pytest.mark.parametrize("extra", EXTRA_TERMS)
def test_warm_code_tables_give_the_cold_report_of_a_patched_relation(
    capsys, patch_relation, extra
):
    """A passing verify to weight 10 reads a verdict for every generator.
    R_6 patched afterwards with a term off its bidegree gives exit 1, and
    every piece the report that ``piece_report`` gives alone, with a store
    of its own: no verdict of the passing run reaches the next one."""
    args = ["verify", "--max-weight", "10", "--format", "json"]
    assert run(capsys, *args)[0] == 0
    patch_relation(6, lambda rel: rel + EXTRA_TERMS[extra])
    code, out, _ = run(capsys, *args)
    assert code == 1
    pieces = json.loads(out)["pieces"]
    assert any(p["witness"] for p in pieces)
    for p in pieces:
        alone = verify.piece_report(p["module_tag"], p["idx"]["weight"], p["idx"]["charge"])
        assert (p["witness"], p["containment_ok"], p["equality_ok"]) == (
            alone.witness, alone.containment_ok, alone.equality_ok
        )


def test_a_passing_verify_builds_no_ideal_polynomial(capsys, monkeypatch):
    """No ``PolyQ`` product is taken on a passing run of every module to
    weight 12: the certificate reads the blocks of the ideal pieces only."""
    builds = []
    mul = PolyQ.__mul__
    monkeypatch.setattr(
        PolyQ, "__mul__", lambda self, other: builds.append(other) or mul(self, other)
    )
    code, _, _ = run(capsys, "verify", "--max-weight", "12", "--format", "json")
    assert code == 0
    assert builds == []


def test_a_failing_piece_builds_each_element_once(
    monkeypatch, patch_relation, ideal_piece_by_products, ideal_rows_by_three_passes
):
    """On a piece that fails containment, ``piece_report`` builds each
    ``PolyQ`` product of the piece once, calls ``coordinate_rows`` once,
    on those products, and reports the witness element of the three-pass
    oracle; the rational fallback reads the same rows.  The lambda0 piece
    (9, 3) fails by a term of R_6 off its bidegree, and (4, 2) by the
    nonzero image of R_4 with its coefficients set to 1."""
    builds = []
    mul = PolyQ.__mul__
    monkeypatch.setattr(
        PolyQ, "__mul__", lambda self, other: builds.append(other) or mul(self, other)
    )
    coordinate_rows = verify.coordinate_rows
    monkeypatch.setattr(
        verify,
        "coordinate_rows",
        lambda *args: builds.append("rows") or coordinate_rows(*args),
    )
    tag = "lambda0"
    for relation, change, weight, charge in (
        (6, lambda rel: rel + EXTRA_TERMS["wrong-weight"], 9, 3),
        (4, lambda rel: PolyQ({m: 1 for m in rel.terms}), 4, 2),
    ):
        patch_relation(relation, change)
        polys = ideal_piece_by_products(tag, weight, charge)
        monos = enumerate_monomials(weight, charge, relations.IDEALS[tag].ambient_floor)
        domain = {mono: j for j, mono in enumerate(monos)}
        matrix = verify.eval_matrix(tag, weight, charge)
        witness = ideal_rows_by_three_passes(polys, domain, matrix)[2]
        assert witness is not None
        piece = relations.ideal_piece(tag, weight, charge)
        builds.clear()
        report = verify.piece_report(tag, weight, charge)
        assert report.witness == str(polys[witness])
        elements = [g for g, cofactors in piece.blocks for _ in cofactors]
        assert len(elements) == len(polys) and builds == [*elements, "rows"]


def permanent(monkeypatch):
    """Every sign +1: each row a permanent in place of a_delta a_{mu+delta}."""
    real = verify._signed_permutations
    monkeypatch.setattr(
        verify, "_signed_permutations", lambda k: [(rho, 1) for rho, _ in real(k)]
    )


def no_stabilizer(monkeypatch):
    """|Stab f| dropped from every entry."""
    monkeypatch.setattr(verify, "_stabilizer_order", lambda f: 1)


@pytest.mark.parametrize("mutate", [permanent, no_stabilizer])
@pytest.mark.parametrize(
    "tag, idx, witness",
    [
        ("lambda0", (4, 2), "2*x(-3)*x(-1) + x(-2)^2"),
        ("lambda1", (6, 2), "2*x(-5)*x(-1) + 2*x(-4)*x(-2) + x(-3)^2"),
        ("lambda1prime", (6, 2), "2*x(-4)*x(-2) + x(-3)^2"),
    ],
    ids=verify.TAGS,
)
def test_verify_fails_with_a_broken_bialternant(
    capsys, monkeypatch, mutate, tag, idx, witness
):
    """The functional matrix with every sign +1 or with |Stab f| dropped
    has the wrong kernel.  The first failing piece fails containment: its
    relation, which the Fock action kills and the mutant does not, is the
    witness, and the Fock cross-check disagrees on that piece too."""
    mutate(monkeypatch)
    monkeypatch.setattr(verify, "fallbacks", 0)
    code, out, _ = run(
        capsys, "verify", "--module", tag, "--max-weight", "8", "--format", "json"
    )
    assert code == 1
    assert verify.fallbacks >= 1
    failed = [p for p in json.loads(out)["pieces"] if not p["equality_ok"]]
    piece = failed[0]
    assert (piece["idx"]["weight"], piece["idx"]["charge"]) == idx
    assert piece["containment_ok"] is False
    assert piece["witness"] == witness
    weight, charge = idx
    floor = relations.IDEALS[tag].ambient_floor
    relation = relations.quadratic_relation(weight, floor)
    assert str(relation) == witness
    monos = enumerate_monomials(weight, charge, floor)
    vec = {monos.index(mono): c for mono, c in relation.terms.items()}
    matrix = verify.eval_matrix(tag, weight, charge)
    fock = verify.fock_matrix(tag, weight, charge)
    assert matrix.matvec(vec) and not fock.matvec(vec)
    kernel = linalg.kernel_basis(matrix)
    agree, escaped = verify._fock_check(tag, weight, charge, matrix, kernel)
    assert not agree
    assert not matrix.matvec(escaped) and fock.matvec(escaped)


def test_a_broken_bialternant_reaches_the_run_after_a_passing_one(capsys, monkeypatch):
    """A passing verify to weight 8, then every sign of
    ``_signed_permutations`` set to +1: the next run reads every generator
    verdict from the mutant E, so each module fails first on the piece and
    with the witness of ``test_verify_fails_with_a_broken_bialternant``."""
    args = ["verify", "--max-weight", "8", "--format", "json"]
    assert run(capsys, *args)[0] == 0
    permanent(monkeypatch)
    code, out, _ = run(capsys, *args)
    assert code == 1
    first = {}
    for p in json.loads(out)["pieces"]:
        if not p["equality_ok"]:
            first.setdefault(p["module_tag"], (p["idx"]["weight"], p["idx"]["charge"], p["witness"]))
    assert first == {
        "lambda0": (4, 2, "2*x(-3)*x(-1) + x(-2)^2"),
        "lambda1": (6, 2, "2*x(-5)*x(-1) + 2*x(-4)*x(-2) + x(-3)^2"),
        "lambda1prime": (6, 2, "2*x(-4)*x(-2) + x(-3)^2"),
    }


def fock_killing_nothing(m):
    n = m.n_cols
    return linalg.SparseMatQ(n, n, {(j, j): 1 for j in range(n)})


def fock_killing_everything(m):
    return linalg.SparseMatQ(m.n_rows, m.n_cols)


@pytest.mark.parametrize(
    "wrong_fock, disputed",
    [(fock_killing_nothing, "dim_kernel"), (fock_killing_everything, "rank_eval")],
)
def test_verify_reports_a_kernel_the_fock_matrix_disputes(
    capsys, monkeypatch, wrong_fock, disputed
):
    """With a Fock matrix that kills nothing, every piece to weight 8 with a
    kernel fails, and the witness is one of its kernel vectors; with one that
    kills everything, every piece to weight 8 with a nonzero rank fails, and
    the witness is a vector the Fock matrix kills and the evaluation does not.
    Pieces above weight 8 are not cross-checked and pass."""
    real = verify.fock_matrix
    monkeypatch.setattr(verify, "fock_matrix", lambda *piece: wrong_fock(real(*piece)))
    code, out, _ = run(capsys, "verify", "--max-weight", "10", "--format", "json")
    assert code == 1
    pieces = json.loads(out)["pieces"]
    failed = [p for p in pieces if not p["equality_ok"]]
    assert failed == [p for p in pieces if p["idx"]["weight"] <= 8 and p[disputed] > 0]
    for p in failed:
        tag, weight, charge = p["module_tag"], p["idx"]["weight"], p["idx"]["charge"]
        assert p["containment_ok"] is True
        matrix = verify.eval_matrix(tag, weight, charge)
        monos = enumerate_monomials(weight, charge, relations.IDEALS[tag].ambient_floor)
        if wrong_fock is fock_killing_nothing:
            # a kernel vector of the evaluation
            candidates = [
                PolyQ({monos[j]: c for j, c in v.items()})
                for v in linalg.kernel_basis(matrix)
            ]
        else:
            # a monomial that the evaluation does not kill
            candidates = [
                PolyQ({mono: 1}) for j, mono in enumerate(monos) if matrix.matvec({j: 1})
            ]
        assert p["witness"] in map(str, candidates)


def test_fraction_fallback_gives_the_same_report(capsys, monkeypatch, force_certificate_off):
    """With the certificate forced off, each piece is decided by rational
    elimination, and the report is unchanged."""
    args = ["verify", "--max-weight", "12", "--format", "json"]
    code, certified, _ = run(capsys, *args)
    force_certificate_off()
    monkeypatch.setattr(verify, "fallbacks", 0)
    code_fallback, eliminated, _ = run(capsys, *args)
    assert code == code_fallback == 0
    assert eliminated == certified
    assert verify.fallbacks == len(json.loads(eliminated)["pieces"])


def test_lemmas_fail_only_on_the_inclusion_without_x_minus_one(capsys, monkeypatch):
    """A lambda1 ideal without its generator x(-1) breaks the translated
    ideal inclusion and no other identity, and lemmas exits 1."""
    spec = relations.IDEALS["lambda1"]._replace(includes_degree_one_generator=False)
    monkeypatch.setitem(relations.IDEALS, "lambda1", spec)
    code, out, _ = run(
        capsys, "lemmas", "--t-max", "6", "--max-weight", "2", "--format", "json"
    )
    assert code == 1
    lemmas = json.loads(out)["lemmas"]
    assert [name for name, ok in lemmas.items() if not ok] == ["translate_ideal_inclusion"]


def test_lemmas_fail_only_on_square_zero_with_a_zero_relation(capsys, monkeypatch):
    """R_10 set to zero: E(lambda0, 10, 2) kills it, but a zero g is no
    generator, so the vacuum half of the square-zero lemma fails at u = 10.
    No other lemma reads R_10 at these bounds, and lemmas exits 1."""
    zero_relation(monkeypatch, 10)
    code, out, _ = run(
        capsys, "lemmas", "--t-max", "6", "--max-weight", "4", "--format", "json"
    )
    assert code == 1
    lemmas = json.loads(out)["lemmas"]
    assert [name for name, ok in lemmas.items() if not ok] == ["square_zero"]


@pytest.mark.parametrize("weight", [2, 10])
def test_lemmas_fail_on_a_relation_with_a_term_off_its_bidegree(capsys, patch_relation, weight):
    """R_2 or R_10 with the charge-one term x(-3) added: no generator, so
    both lemmas that read it from the ideal pieces are false, not raised.
    translate(R_2 + x(-3)) mixes two bidegrees and fails ``poly.fits``;
    R_10 + x(-3) is a target row of translate(R_8), read with a column
    outside the domain of (10, 2), which the image of R_8 misses."""
    patch_relation(weight, lambda rel: rel + x(-3))
    code, out, _ = run(
        capsys, "lemmas", "--t-max", "6", "--max-weight", "10", "--format", "json"
    )
    assert code == 1
    lemmas = json.loads(out)["lemmas"]
    assert lemmas["translate_ideal_inclusion"] is False
    assert lemmas["square_zero"] is False


@pytest.mark.parametrize("command, payload", [("lemmas", "lemmas"), ("qseries", "dims")])
def test_lemmas_and_qseries_ignore_the_module(capsys, command, payload):
    """lemmas and qseries never read --module: lambda1 gives the exit code
    and the payload of all."""
    results = []
    for module in ("lambda1", "all"):
        code, out, _ = run(
            capsys, command, "--module", module, "--t-max", "6", "--max-weight", "4",
            "--format", "json",
        )
        results.append((code, json.loads(out)[payload]))
    assert results[0] == results[1]
    assert results[0][0] == 0


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


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_out_that_cannot_be_written_exits_two(tmp_path, capsys, target):
    """An --out path in a directory that does not exist, or naming a
    directory, ends the run with one error line and exit 2, not a
    traceback."""
    path = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
    code, out, err = run(capsys, "verify", "--max-weight", "2", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


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


def test_one_parser_serves_every_call(capsys):
    """Calls of ``main`` in one process, a usage error among them, share
    one parser, and each prints what it prints with a parser of its own."""
    calls = [
        ["lemmas", "--max-weight", "1", "--t-max", "4", "--format", "json"],
        ["verify", "--bogus"],
        ["verify", "--max-weight", "2", "--format", "json"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(outcome(argv))
    build_parser.cache_clear()
    together = [outcome(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert together == alone
    assert [code for code, _, _ in alone] == [0, 2, 0]


# rows whose strings and numbers the template must carry through exactly
AWKWARD = cli.Table(
    (
        'q"uote', "back\\slash", "%s", "%%", "nul\0", "ctrl\x01", "null", "x: null",
        "caf\u00e9", "yes", "no", "neg", "big", "zero", "float",
    ),
    [
        (
            'a"b', "c\\d", "%s %d", "%%", "\0", "\x01\n\t", None, "null,",
            "\u00e9\u2603\U0001f600", True, False, -(2**70) - 1, 2**64 + 1, 0, -1.5e-300,
        ),
        (
            "", "\\", "%", "100%", "nul\0\0", "\x1f", "null", None,
            "plain", None, 1, -1, 2**200, True, 2.5,
        ),
    ],
    {
        'q"uote': None,
        "back\\slash": None,
        "%s": None,
        "%%": None,
        "nul\0": None,
        "ctrl\x01": None,
        "null": None,
        "x: null": None,
        "caf\u00e9": None,
        "flags": {"yes": None, "no": None},
        "ints": {"neg": None, "big": None, "zero": None},
        "float": None,
        "empty": {},
    },
)

WRITER_CASES = {
    "awkward rows": {'rows "%s" \u00e9': AWKWARD},
    "one row": {"a": cli.Table(("k",), [(1,)], {"k": None}), "b": {"c": [1, 2]}},
    "nested like pieces": {
        "pieces": cli.Table(
            ("weight", "charge", "ok"),
            [(w, 0, w > 1) for w in range(3)],
            {"idx": {"weight": None, "charge": None}, "ok": None},
        )
    },
    "key order differs": {
        "dims": cli.Table(("a", "b"), [(1, 2), (3, None)], {"b": None, "a": None})
    },
    "nested key order differs": {
        "pieces": cli.Table(
            ("module_tag", "weight", "charge", "ok"),
            [("lambda0", w, w // 2, w > 1) for w in range(3)],
            {"idx": {"weight": None, "charge": None}, "module_tag": None, "ok": None},
        )
    },
    "rows without leaves": {
        "dims": cli.Table((), [(), ()], {}),
        "pieces": cli.Table((), [(), ()], {"e": {}}),
    },
    "empty list": {"run": {"x": 1}, "pieces": cli.Table(("k",), [], {"k": None}), "dims": []},
}


@pytest.mark.parametrize("report", list(WRITER_CASES.values()), ids=list(WRITER_CASES))
def test_json_writer_matches_json_dumps(plain_report, report):
    """The writer gives the bytes of ``json.dumps(..., indent=2)`` of the
    report with each table written as its list of row dicts."""
    assert cli._dumps(report) == json.dumps(plain_report(report), indent=2)


def _flat(row):
    """A JSON row's leaves by key, its nested dicts opened."""
    return {
        name: value
        for key, leaf in row.items()
        for name, value in (_flat(leaf).items() if isinstance(leaf, dict) else [(key, leaf)])
    }


@pytest.mark.parametrize(
    "argv, key",
    [
        (("verify", "--module", "all", "--max-weight", "6"), "pieces"),
        (("qseries", "--max-weight", "6"), "dims"),
        (("dims", "--max-weight", "6"), "dims"),
    ],
    ids=["verify", "qseries", "dims"],
)
def test_csv_rows_are_the_json_rows(capsys, argv, key):
    """The CSV and the JSON report of one command line hold the same rows
    in the same order: each CSV row, field by field in header order, is
    the matching JSON row's leaf of that name as CSV renders it."""
    _, out, _ = run(capsys, *argv, "--format", "csv")
    header, *csv_rows = csv.reader(io.StringIO(out))
    _, out, _ = run(capsys, *argv, "--format", "json")
    json_rows = [_flat(row) for row in json.loads(out)[key]]
    assert len(csv_rows) == len(json_rows) > 1
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert sorted(json_row) == sorted(header)
        assert csv_row == [_csv_field(json_row[name]) for name in header]


def _csv_field(value):
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)
