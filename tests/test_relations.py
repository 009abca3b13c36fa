"""Relation families, ideal pieces and the supporting identities."""

import json

import pytest

from principal_subspaces import linalg, relations
from principal_subspaces.cli import main
from principal_subspaces.poly import (
    PolyQ,
    coordinates,
    enumerate_monomials,
    translate,
    x,
)
from principal_subspaces.relations import (
    check_derive_relation,
    check_lift_identity,
    check_translate_relation,
    ideal_piece,
    quadratic_relation,
    translate_ideal_inclusion,
)


def build_by_ordered_pairs(t, floor):
    """Independent oracle: literally sum over ordered pairs."""
    total = PolyQ()
    m1 = floor
    while -t - m1 <= floor:
        total = total + x(m1) * x(-t - m1)
        m1 -= 1
    return total


def test_relation_minimal_cases():
    assert quadratic_relation(2, -1) == x(-1) * x(-1)
    assert quadratic_relation(4, -2) == x(-2) * x(-2)


def test_relation_matches_ordered_pair_oracle():
    for floor in (-1, -2):
        for t in range(-2 * floor, 16):
            assert quadratic_relation(t, floor) == build_by_ordered_pairs(t, floor)


def test_relation_frozen_weight_four():
    rel = quadratic_relation(4, -1)
    assert rel.terms == {(-3, -1): 2, (-2, -2): 1}
    # the coefficients stay the ints they were built as
    assert all(type(c) is int for c in rel.terms.values())


def test_relation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        quadratic_relation(1, -1)
    with pytest.raises(ValueError):
        quadratic_relation(3, -2)
    with pytest.raises(ValueError):
        quadratic_relation(4, -3)


def test_relation_bidegree_and_coefficient_pattern():
    for floor in (-1, -2):
        for t in range(-2 * floor, 21):
            rel = quadratic_relation(t, floor)
            assert rel.bidegree() == (t, 2)
            for mono, coeff in rel.terms.items():
                m1, m2 = mono
                assert coeff == (1 if m1 == m2 else 2)


def test_projection_sends_floor1_family_to_floor2_family(drop_minus_one_terms):
    for t in range(4, 21):
        assert drop_minus_one_terms(quadratic_relation(t, -1)) == quadratic_relation(t, -2)


def test_ideal_piece_examples():
    assert list(ideal_piece("lambda0", 2, 2)) == [x(-1) * x(-1)]
    assert list(ideal_piece("lambda0", 4, 2)) == [quadratic_relation(4, -1)]
    assert list(ideal_piece("lambda1prime", 4, 2)) == [x(-2) * x(-2)]


def test_ideal_piece_charge_zero_or_negative_weight_empty():
    assert list(ideal_piece("lambda0", 5, 0)) == []
    assert list(ideal_piece("lambda1", 0, 0)) == []
    assert list(ideal_piece("lambda1", -1, 1)) == []


def test_lambda1_piece_includes_degree_one_generator():
    piece = ideal_piece("lambda1", 1, 1)
    assert list(piece) == [x(-1)]


def test_ideal_pieces_are_bihomogeneous():
    for tag in ("lambda0", "lambda1", "lambda1prime"):
        for weight in range(0, 9):
            for charge in range(1, weight + 1):
                for element in ideal_piece(tag, weight, charge):
                    assert element.bidegree() == (weight, charge)


def terms_outside_the_domain(tag, weight, charge):
    """The number of terms of ``ideal_piece`` outside the domain."""
    monos = set(enumerate_monomials(weight, charge, relations.IDEALS[tag].ambient_floor))
    return sum(mono not in monos for p in ideal_piece(tag, weight, charge) for mono in p.terms)


def test_ideal_piece_equals_the_products(monkeypatch, ideal_piece_by_products):
    """On every piece to weight 12, ``ideal_piece`` equals the spanning set
    built by ``PolyQ`` products, and every product lies in the domain.
    With x(-1) a generator at floor -2 the products u * x(-1) leave the
    domain."""
    for tag in relations.IDEALS:
        for weight in range(13):
            for charge in range(weight + 1):
                piece = ideal_piece(tag, weight, charge)
                assert list(piece) == ideal_piece_by_products(tag, weight, charge)
                assert terms_outside_the_domain(tag, weight, charge) == 0
    spec = relations.IDEALS["lambda1prime"]._replace(includes_degree_one_generator=True)
    monkeypatch.setitem(relations.IDEALS, "lambda1prime", spec)
    outside = 0
    for weight in range(13):
        for charge in range(weight + 1):
            piece = ideal_piece("lambda1prime", weight, charge)
            assert list(piece) == ideal_piece_by_products("lambda1prime", weight, charge)
            outside += terms_outside_the_domain("lambda1prime", weight, charge)
    assert outside > 0
    assert list(ideal_piece("lambda1prime", 3, 2)) == [x(-2) * x(-1)]


def test_ideal_piece_is_lazy(monkeypatch, ideal_piece_by_products):
    """On every piece to weight 12, an ``IdealPiece`` has the length of
    the product route with no element built, iterates to its list with
    one ``PolyQ`` product per element, and cannot be indexed."""
    builds = []
    mul = PolyQ.__mul__
    monkeypatch.setattr(
        PolyQ, "__mul__", lambda self, other: builds.append(other) or mul(self, other)
    )
    for tag in relations.IDEALS:
        for weight in range(13):
            for charge in range(weight + 1):
                want = ideal_piece_by_products(tag, weight, charge)
                builds.clear()
                piece = ideal_piece(tag, weight, charge)
                assert len(piece) == len(want) and builds == []
                assert list(piece) == want
                assert len(builds) == len(want)
                with pytest.raises(TypeError):
                    piece[0]


def test_ideal_piece_reads_the_relation_on_every_call(monkeypatch, ideal_piece_by_products):
    """A ``quadratic_relation`` patched after a piece was built reaches
    that piece on the next call."""
    before = list(ideal_piece("lambda0", 8, 3))
    assert before == ideal_piece_by_products("lambda0", 8, 3)
    original = relations.quadratic_relation
    monkeypatch.setattr(
        relations,
        "quadratic_relation",
        lambda t, floor=-1: 3 * original(t, floor) if t == 5 else original(t, floor),
    )
    after = list(ideal_piece("lambda0", 8, 3))
    assert after == ideal_piece_by_products("lambda0", 8, 3)
    assert after != before
    assert [p == q for p, q in zip(after, before)].count(False) == len(
        enumerate_monomials(3, 1, -1)
    )


def test_translate_relation_identity():
    # t = 2: the shift of x(-1)^2 is x(-2)^2, and the identity rearranges it
    assert translate(quadratic_relation(2, -1), 1) == x(-2) * x(-2)
    for t in range(2, 21):
        assert check_translate_relation(t)


def test_lift_identity_weight_four_expansion():
    # expand both sides by hand at t = 4
    lhs = x(-3) * x(-3) * x(-1)
    rhs = (
        quadratic_relation(6, -1) * x(-1)
        - x(-4) * (2 * (x(-2) * x(-1)))
        - 2 * (x(-5) * (x(-1) * x(-1)))
    )
    assert lhs == rhs
    for t in range(4, 21):
        assert check_lift_identity(t)


def test_derive_relation_identity():
    for t in range(2, 21):
        assert check_derive_relation(t)


def test_translate_ideal_inclusion_examples(translate_inclusion_by_pieces):
    assert translate_inclusion_by_pieces(2, 2)
    assert translate_inclusion_by_pieces(3, 2)
    assert translate_inclusion_by_pieces(5, 3)


def test_translate_ideal_inclusion_sweep(translate_inclusion_by_pieces):
    for weight in range(0, 9):
        for charge in range(0, weight + 1):
            assert translate_inclusion_by_pieces(weight, charge)


def without_x_minus_one(monkeypatch):
    """The lambda1 ideal without its generator x(-1)."""
    spec = relations.IDEALS["lambda1"]._replace(includes_degree_one_generator=False)
    monkeypatch.setitem(relations.IDEALS, "lambda1", spec)


def translate_doubling_x_minus_one(p, s=1):
    """``translate`` with x(-1) -> 2 x(-2): still a ring map, but for t >= 3
    translate(R_t) - R_{t+2} is the wrong correction -2 x(-t-1) x(-1) +
    2 x(-2) x(-t), which leaves the lambda1 ideal from t = 4 on."""
    return PolyQ(
        {
            tuple(m - s for m in mono): c * 2 ** mono.count(-1)
            for mono, c in p.terms.items()
        }
    )


def wrong_correction(monkeypatch):
    monkeypatch.setattr(relations, "translate", translate_doubling_x_minus_one)


# mutants of the inclusion, each with the lemmas that it makes false
INCLUSION_MUTANTS = {
    "without_x_minus_one": (without_x_minus_one, ["translate_ideal_inclusion"]),
    "wrong_correction": (wrong_correction, ["translate_relation", "translate_ideal_inclusion"]),
}


def test_translate_ideal_inclusion_needs_the_degree_one_generator(
    monkeypatch, translate_inclusion_by_pieces
):
    """translate(R_t) = R_{t+2} - 2 x(-t-1) x(-1) lies in the lambda1 ideal
    only through its generator x(-1).  Without it the inclusion fails at
    (2, 2), where translate(x(-1)^2) = x(-2)^2 is no multiple of R_4, and at
    (3, 2)."""
    without_x_minus_one(monkeypatch)
    assert not translate_inclusion_by_pieces(2, 2)
    assert not translate_inclusion_by_pieces(3, 2)
    assert not translate_ideal_inclusion(2)


def test_wrong_correction_leaves_the_lambda1_ideal_from_weight_four(
    monkeypatch, translate_inclusion_by_pieces
):
    wrong_correction(monkeypatch)
    assert relations.translate(quadratic_relation(4, -1), 1) == quadratic_relation(
        6, -1
    ) - 2 * (x(-5) * x(-1)) + 2 * (x(-2) * x(-4))
    assert translate_inclusion_by_pieces(3, 2)
    assert not translate_inclusion_by_pieces(4, 2)
    assert translate_ideal_inclusion(3)
    assert not translate_ideal_inclusion(4)


def test_translate_is_multiplicative_on_domain_products():
    """translate(u * v) = translate(u) * translate(v) for every pair of
    floor -1 domain monomials of weight <= 6, and on products of relations:
    the ring-map property the generator route rests on."""
    domain = [u for w in range(7) for k in range(w + 1) for u in enumerate_monomials(w, k)]
    assert len(domain) == 30
    for u in domain:
        pu = PolyQ({u: 1})
        for v in domain:
            pv = PolyQ({v: 1})
            assert translate(pu * pv, 1) == translate(pu, 1) * translate(pv, 1)
    for s in range(2, 9):
        for t in range(2, 9):
            rs, rt = quadratic_relation(s, -1), quadratic_relation(t, -1)
            assert translate(rs * rt, 1) == translate(rs, 1) * translate(rt, 1)
            for u in domain:
                pu = PolyQ({u: 1})
                assert translate(pu * rt, 1) == translate(pu, 1) * translate(rt, 1)


@pytest.mark.parametrize("mutant", list(INCLUSION_MUTANTS))
def test_lemmas_fail_only_on_the_keys_each_inclusion_mutant_breaks(capsys, monkeypatch, mutant):
    patch, broken = INCLUSION_MUTANTS[mutant]
    patch(monkeypatch)
    code = main(["lemmas", "--max-weight", "4", "--t-max", "6", "--format", "json"])
    lemmas = json.loads(capsys.readouterr().out)["lemmas"]
    assert code == 1
    assert [name for name, ok in lemmas.items() if not ok] == broken


@pytest.mark.parametrize("bound", [1, 2, 6, 9])
def test_lemmas_decides_the_inclusion_from_the_generators(capsys, monkeypatch, bound):
    """lemmas --max-weight W calls ``subspace_leq`` at most W times and
    ``ideal_piece`` at most 2 (W + 1) times, where the piece-by-piece sweep
    took one of each per piece; counted by spies on the module names that
    ``relations`` reads."""
    calls = {"subspace_leq": 0, "ideal_piece": 0}
    for name, real in (("subspace_leq", linalg.subspace_leq), ("ideal_piece", ideal_piece)):

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(relations, name, spy)
    assert main(["lemmas", "--max-weight", str(bound), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["lemmas"]["translate_ideal_inclusion"]
    assert 0 < calls["ideal_piece"] <= 2 * (bound + 1)
    assert calls["subspace_leq"] <= bound
    assert calls["subspace_leq"] == bound - 1


@pytest.mark.parametrize("mutant", [None, *INCLUSION_MUTANTS])
def test_generator_route_equals_the_piece_oracle(
    monkeypatch, translate_inclusion_by_pieces, mutant
):
    """``translate_ideal_inclusion(W)`` is the all of the piece-by-piece
    oracle over the pieces of weight <= W, for every W <= 10, on the real
    ideals and under each mutant; each mutant is rejected by both."""
    if mutant is not None:
        INCLUSION_MUTANTS[mutant][0](monkeypatch)
    pieces = {
        (w, k): translate_inclusion_by_pieces(w, k) for w in range(11) for k in range(w + 1)
    }
    routes = []
    for bound in range(11):
        oracle = all(ok for (w, _), ok in pieces.items() if w <= bound)
        assert translate_ideal_inclusion(bound) == oracle
        routes.append(oracle)
    assert all(routes) == (mutant is None)


def test_translated_lambda0_piece_spans_lambda1prime_piece(drop_minus_one_terms, span_equal):
    """After projecting away x(-1) terms (a no-op here, since every shifted
    index is <= -2) the translated piece spans exactly the floor -2 ideal
    piece at the shifted bidegree."""
    for weight in range(2, 9):
        for charge in range(2, weight + 1):
            source = ideal_piece("lambda0", weight, charge)
            if not source:
                continue
            basis = enumerate_monomials(weight + charge, charge, -1)
            shifted = coordinates(
                [drop_minus_one_terms(translate(p, 1)) for p in source], basis
            )
            target = coordinates(
                ideal_piece("lambda1prime", weight + charge, charge), basis
            )
            assert span_equal(shifted, target, len(basis))


def test_lift_composition_closes():
    """Shifting down then up returns any x(-1)-multiple unchanged, which is
    what chains the two lifting maps together."""
    for b in (x(-3), x(-4) * x(-3), x(-5) * x(-3) * x(-3)):
        assert translate(translate(b, -1), 1) * x(-1) == b * x(-1)
