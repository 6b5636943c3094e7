"""The algebra registry: ``coproduct.ALGEBRAS`` maps a module's ``kind`` to its record.

Every kind a builder gives has an entry, ``verify hopf`` checks the Hopf
axioms of every entry, a module of a kind without Klein rows names its kind,
and because every check reads the entry of its modules' kind when it is
called, a wrong row swapped into one entry fails ``verify hopf``.
"""
import dataclasses
import json

import numpy as np
import pytest

from sl11kit import suites
from sl11kit.algebra import atypical_rep, klein_twist
from sl11kit.cli import main
from sl11kit.coproduct import ALGEBRAS, CoproductTable
from sl11kit.qaffine import GROUP_LIKE, affine_eval_rep
from sl11kit.qalgebra import q_atypical_rep

#: The prefix of each entry's Hopf-axiom cases in ``verify hopf``, after ``[k]``.
HOPF_CASE_PREFIX = {"classical": "", "q": "", "affine": "affine-"}


def draws(seed=0):
    rng = np.random.default_rng(seed)
    return suites.draw_labels(rng), suites.draw_qlabels(rng)


def test_each_registry_key_is_the_kind_of_its_builders_modules():
    labels, qlabels = draws()
    built = {"classical": atypical_rep(labels), "q": q_atypical_rep(qlabels),
             "affine": affine_eval_rep(qlabels)}
    assert set(built) == set(ALGEBRAS) == set(HOPF_CASE_PREFIX)
    for kind, rep in built.items():
        assert rep.kind == kind
        assert ALGEBRAS[kind].coproduct.names == rep.names


def test_verify_hopf_checks_the_hopf_axioms_of_every_entry(tmp_path):
    path = tmp_path / "hopf.json"
    assert main(["verify", "hopf", "--samples", "1", "--seed", "0", "--no-timestamp",
                 "-o", str(path)]) == 0
    names = [case["identity"] for case in json.loads(path.read_text())["cases"]]
    for kind, alg in ALGEBRAS.items():
        prefix = f"[0]{HOPF_CASE_PREFIX[kind]}"
        for family, generators in (("coassoc", alg.coproduct.names),
                                   ("antipode", alg.coproduct.names),
                                   ("cocomm", alg.cocommutative)):
            missing = [g for g in generators if f"{prefix}{family}:{g}" not in names]
            assert not missing, (kind, family, missing)
    assert sum(name.startswith("[0]affine-") for name in names) == 58


def test_a_module_of_a_kind_without_klein_rows_names_its_kind():
    _, qlabels = draws()
    with pytest.raises(KeyError, match="unknown twist 'ef' of kind 'affine'"):
        klein_twist("ef", affine_eval_rep(qlabels))


def _mutant(kind, rows):
    """The entry of ``kind`` with ``rows`` (name -> terms) replacing its coproduct rows."""
    table = ALGEBRAS[kind].coproduct
    inverses = {name: src for name, (src, sign) in table.antipode.items() if sign == 1}
    return dataclasses.replace(ALGEBRAS[kind],
                               coproduct=CoproductTable(dict(table.terms) | rows, inverses))


def _failing(rpt):
    return [c.identity for c in rpt.cases
            if c.residual > (rpt.tolerance if c.tolerance is None else c.tolerance)]


def test_a_sign_flipped_affine_group_like_coproduct_fails_verify_hopf(monkeypatch):
    # Delta(K) = -K (x) K keeps coassociativity, cocommutativity and every
    # intertwining case; only m(S x id)Delta(K) = -1 != eps(K) sees it
    monkeypatch.setitem(ALGEBRAS, "affine",
                        _mutant("affine", {c: ((-1, (c,), (c,)),) for c in GROUP_LIKE}))
    rpt = suites.run_suite("hopf", 1, 0)
    assert not rpt.passed
    assert _failing(rpt) == [f"[0]affine-antipode:{c}" for c in GROUP_LIKE]


def test_a_sign_flipped_classical_coproduct_term_fails_verify_hopf(monkeypatch):
    monkeypatch.setitem(ALGEBRAS, "classical", _mutant(
        "classical", {"e1": ((1, ("e1",), ("u-",)), (-1, ("u+",), ("e1",)))}))
    rpt = suites.run_suite("hopf", 1, 0)
    assert not rpt.passed
    # the Hopf axioms and fusion, which reads the same entry, see the flipped term
    assert _failing(rpt) == ["[0]coassoc:e1", "[0]antipode:e1", "[0]e1.v21",
                             "[0]basis-conjugation:e1"]
