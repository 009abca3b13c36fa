"""Fixtures shared by the test modules.  Each returns a function, so a
test can call it partway through."""

import pytest

from principal_subspaces import relations, verify
from principal_subspaces.poly import PolyQ, enumerate_monomials


@pytest.fixture
def force_certificate_off(monkeypatch):
    """Make both halves of the certificate of ``piece_report`` decline on
    every piece, from the call on."""

    def force():
        monkeypatch.setattr(verify, "_full_row_rank", lambda *args: False)
        monkeypatch.setattr(verify, "_distinct_leads", lambda *args: 0)

    return force


@pytest.fixture
def floor_minus_one_piece():
    """The lambda1prime ideal piece with the floor -1 relations: floor -2
    cofactors times R_t at floor -1, for t from 2, in the order of
    ``ideal_piece``.  Other tags keep their own pieces."""

    def piece(tag, weight, charge):
        if tag != "lambda1prime":
            return relations.ideal_piece(tag, weight, charge)
        return [
            PolyQ({u: 1}) * relations.quadratic_relation(t, -1)
            for t in range(2, weight + 1)
            for u in enumerate_monomials(weight - t, charge - 2, -2)
        ]

    return piece
