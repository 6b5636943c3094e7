"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary.  Tolerances are pinned here and nowhere else.
"""
import json
import warnings

import numpy as np
import pytest

from sl11kit import suites
from sl11kit.algebra import (AtypicalLocusWarning, DegenerateFusionError,
                             RepLabels, atypical_rep, check_relations,
                             fuse_check, singlet_report, typical_rep)
from sl11kit.graded import C11, graded_perm, max_abs
from sl11kit.qalgebra import (q_atypical_rep, q_check_relations, q_fuse_check,
                              q_singlet_report, q_typical_rep)
from sl11kit.rmatrix import (r_closed, r_solve, r_trig, rq_closed,
                             rq_from_powers, unitarity_check, ybe_residual,
                             _assemble, _trig_coefficients)
from sl11kit.suites import (_child_rngs, draw_alpha, draw_labels, draw_q,
                            draw_qlabels)
from sl11kit.yangian import (antipode_report, coproduct_hom_report,
                             k_cocommutativity_report, kir_report,
                             level_bracket_report, omega_twist_equivalence,
                             scaled_eval_pair, yangian_intertwine)
from sl11kit.qaffine import (affine_eval_rep, affine_intertwine,
                             affine_relations_report)
from sl11kit.zhukovski import (dispersion, left_labels, q_labels_from_x,
                               q_zhukovski_point, right_labels, zhukovski_solve)


def _criterion(name: str, worst: float, bound: float, note: str = ""):
    ok = worst <= bound
    extra = f" ({note})" if note else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: max residual {worst:.3e} "
          f"<= {bound:.1e}{extra}")
    assert ok, f"{name}: {worst:.3e} > {bound:.1e}"


def test_criterion_1_solver_oracle_equivalence():
    worst_classical = 0.0
    for rng in _child_rngs(101, 50):
        alpha = draw_alpha(rng)
        la, lb = draw_labels(rng, alpha), draw_labels(rng, alpha)
        rc = r_closed(la, lb)
        rs = r_solve(atypical_rep(la), atypical_rep(lb), match_r11=rc.normalization)
        worst_classical = max(worst_classical, max_abs(rs.m - rc.m))
    worst_deformed = 0.0
    for rng in _child_rngs(102, 50):
        q = draw_q(rng)
        alpha = draw_alpha(rng)
        la, lb = draw_qlabels(rng, q, alpha), draw_qlabels(rng, q, alpha)
        rc = rq_closed(la, lb)
        rs = r_solve(q_atypical_rep(la), q_atypical_rep(lb),
                     match_r11=rc.normalization)
        worst_deformed = max(worst_deformed, max_abs(rs.m - rc.m))
    _criterion("1a solver = closed form (50 undeformed pairs)", worst_classical, 1e-10)
    _criterion("1b solver = deformed closed form (50 pairs)", worst_deformed, 1e-10)


def test_criterion_2_yang_baxter():
    worst_u = 0.0
    for rng in _child_rngs(201, 100):
        alpha = draw_alpha(rng)
        triple = [draw_labels(rng, alpha) for _ in range(3)]
        worst_u = max(worst_u, ybe_residual(*triple))
    worst_d = 0.0
    for rng in _child_rngs(202, 100):
        q = draw_q(rng)
        alpha = draw_alpha(rng)
        triple = [draw_qlabels(rng, q, alpha) for _ in range(3)]
        worst_d = max(worst_d, ybe_residual(*triple, which="deformed"))
    _criterion("2a Yang-Baxter, 100 undeformed triples", worst_u, 1e-10)
    _criterion("2b Yang-Baxter, 100 deformed triples", worst_d, 1e-9)


def test_criterion_3_unitarity():
    grid = np.linspace(0.0, np.pi, 20, endpoint=False)
    worst, checked, degenerate = 0.0, 0, []
    for t1 in grid:
        for t2 in grid:
            for lm in grid:
                # where all six coefficients vanish both sides are zero: nothing is checked
                if max(abs(c) for c in _trig_coefficients(t1, t2, lm).values()) < 1e-14:
                    degenerate.append((t1, t2, lm))
                    continue
                res, _ = unitarity_check(t1, t2, lm)
                worst = max(worst, res)
                checked += 1
    half = grid[10]
    assert half == pytest.approx(np.pi / 2)
    assert degenerate == [(0.0, 0.0, 0.0), (0.0, half, half), (half, 0.0, half),
                          (half, half, 0.0)]
    for angles in degenerate:
        with pytest.raises(ValueError, match="coefficients vanish"):
            r_trig(*angles)
    assert checked == 7996
    _criterion(f"3a unitarity on the 20^3 grid, {checked} non-degenerate points", worst, 1e-12)
    res, scalar = unitarity_check(np.pi / 4, np.pi / 4, 0.0)
    ok = scalar == 1.0 and res <= 1e-14
    print(f"[{'PASS' if ok else 'FAIL'}] 3b transmission point: scalar = {scalar!r}, "
          f"|product - 1| = {res:.3e} <= 1e-14")
    assert ok


def test_criterion_4_limits():
    p = graded_perm(C11, C11).m
    worst_ratio = 0.0
    pts = np.array([1e-2, 5e-3, 1e-3, -7e-3])
    for theta in pts:
        for lam in pts:
            diff = max_abs(r_trig(theta, theta, lam).m
                           + (lam * np.eye(4) - 2 * theta * p))
            worst_ratio = max(worst_ratio, diff / (abs(theta) + abs(lam)) ** 3)
    _criterion("4a rational limit of the trigonometric form", worst_ratio, 10.0,
               note="scaled by (|theta|+|lam|)^3")
    la = RepLabels(1.3 - 0.4j, np.exp(0.7j), -0.5, 0.5)
    lb = RepLabels(0.8 + 0.3j, np.exp(-0.35j), -0.5, 0.5)
    rc = r_closed(la, lb).m
    worst = 0.0
    for eps in (1e-3, 1e-4, 1e-5):
        q = 1 + eps
        lnq = np.log(q)
        coeffs = rq_from_powers(la.gamma, la.nu,
                                np.exp(la.lambda1 * lnq / 2), np.exp(la.lambda2 * lnq / 2),
                                lb.gamma, lb.nu,
                                np.exp(lb.lambda1 * lnq / 2), np.exp(lb.lambda2 * lnq / 2))
        worst = max(worst, max_abs(_assemble(coeffs).m - rc) / abs(q - 1))
    _criterion("4b deformed -> undeformed coefficient limit", worst, 1e3,
               note="scaled by |q-1|")


def test_criterion_5_module_theory():
    worst_rel = 0.0
    worst_locus = 0.0
    worst_fuse = 0.0
    worst_singlet = 0.0
    fused = q_fused = 0
    for rng in _child_rngs(501, 20):
        alpha = draw_alpha(rng)
        la, lb = draw_labels(rng, alpha), draw_labels(rng, alpha)
        worst_rel = max(worst_rel, check_relations(atypical_rep(la)).max_residual)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AtypicalLocusWarning)
            typ = typical_rep(la.lambda1, la.lambda2, la.nu, la.alpha)
        worst_rel = max(worst_rel, check_relations(typ).max_residual)
        aty = atypical_rep(la)
        basis = np.column_stack([
            np.array([0, 0, 0, 1 / la.gamma], dtype=complex),
            np.array([0, la.lambda2, -la.mu2, 0], dtype=complex)])
        for name in aty.names:
            worst_locus = max(worst_locus,
                              max_abs(typ[name].m @ basis - basis @ aty[name].m))
        gen = typical_rep(la.lambda1 * 1.7, la.lambda2, la.nu, la.alpha)
        worst_rel = max(worst_rel, check_relations(gen).max_residual)
        try:
            worst_fuse = max(worst_fuse, fuse_check(la, lb).report.max_residual)
            fused += 1
        except DegenerateFusionError:
            pass
        q = draw_q(rng)
        qalpha = draw_alpha(rng)
        qa, qb = draw_qlabels(rng, q, qalpha), draw_qlabels(rng, q, qalpha)
        worst_rel = max(worst_rel, q_check_relations(q_atypical_rep(qa)).max_residual)
        try:
            worst_fuse = max(worst_fuse, q_fuse_check(qa, qb).report.max_residual)
            q_fused += 1
        except DegenerateFusionError:
            pass
        sign = 1 if rng.integers(2) else -1
        partner = RepLabels(sign * la.gamma, 1 / la.nu, la.alpha1, la.alpha2)
        worst_singlet = max(worst_singlet,
                            singlet_report(la, partner).max_residual)
        from sl11kit.qalgebra import QRepLabels
        qpartner = QRepLabels(sign * qa.gamma, 1 / qa.nu, qa.q, 1 / qa.qlam1,
                              1 / qa.qlam2, qa.alpha1, qa.alpha2)
        worst_singlet = max(worst_singlet,
                            q_singlet_report(qa, qpartner).max_residual)
    assert fused >= 1 and q_fused >= 1, "every fusion check hit the shortening locus"
    _criterion("5a typical/atypical relation residuals", worst_rel, 1e-12)
    _criterion("5b atypical-locus submodule identification", worst_locus, 1e-12)
    _criterion("5c fusion basis and weight matches", worst_fuse, 1e-10)
    _criterion("5d singlet annihilation (20 compatible pairs)", worst_singlet, 1e-11)


def test_criterion_6_yangian():
    worst = {"brackets": 0.0, "hom": 0.0, "cocomm": 0.0, "omega": 0.0,
             "antipode": 0.0, "intertwine": 0.0, "kir": 0.0}
    for rng in _child_rngs(601, 10):
        alpha = draw_alpha(rng)
        la, lb = draw_labels(rng, alpha), draw_labels(rng, alpha)
        eva, evb = scaled_eval_pair(la, lb)
        worst["brackets"] = max(worst["brackets"],
                                level_bracket_report(eva, 8).max_residual)
        worst["kir"] = max(worst["kir"], kir_report(eva).max_residual)
        worst["hom"] = max(worst["hom"],
                           coproduct_hom_report(eva, evb, 4).max_residual)
        worst["cocomm"] = max(worst["cocomm"],
                              k_cocommutativity_report(eva, evb, 4).max_residual)
        e1 = 0.5 + rng.random() + 0.3j * rng.random()
        e2 = 0.5 + rng.random() - 0.2j * rng.random()
        worst["omega"] = max(worst["omega"], omega_twist_equivalence(
            eva, evb, e1, e2, 3).max_residual)
        worst["antipode"] = max(worst["antipode"],
                                antipode_report(eva, 4).max_residual)
        worst["intertwine"] = max(worst["intertwine"],
                                  yangian_intertwine(la, lb, 4).max_residual)
    _criterion("6a level brackets r+s <= 8", worst["brackets"], 1e-11)
    _criterion("6b evaluation k-tower", worst["kir"], 1e-12)
    _criterion("6c coproduct homomorphism r <= 4", worst["hom"], 1e-10)
    _criterion("6d k/h co-commutativity r <= 4", worst["cocomm"], 1e-10)
    _criterion("6e twist-family equivalence", worst["omega"], 1e-10)
    _criterion("6f truncated antipode identities (order 4)", worst["antipode"], 1e-10)
    _criterion("6g Yangian intertwining r <= 4", worst["intertwine"], 1e-9)


def test_criterion_7_affine():
    worst_rel = 0.0
    worst_int = 0.0
    for rng in _child_rngs(701, 20):
        q = draw_q(rng)
        alpha = draw_alpha(rng)
        la, lb = draw_qlabels(rng, q, alpha), draw_qlabels(rng, q, alpha)
        for variant, beta in (("standard", 1.0), ("swapped", 1.0), ("standard", -1.0)):
            rep = affine_eval_rep(la, variant, beta)
            worst_rel = max(worst_rel, affine_relations_report(rep).max_residual)
        worst_int = max(worst_int, affine_intertwine(la, lb).max_residual)
        worst_int = max(worst_int,
                        affine_intertwine(la, lb, beta=-1.0).max_residual)
    _criterion("7a affine relations incl. Serre/compatibility, all variants",
               worst_rel, 1e-11)
    _criterion("7b affine intertwining with the deformed R-matrix", worst_int, 1e-9)


def test_criterion_8_parametrizations():
    worst_shell = 0.0
    worst_prod = 0.0
    worst_round = 0.0
    rng = np.random.default_rng(801)
    for _ in range(50):
        p = rng.uniform(0.2, 2.9)
        m = rng.uniform(0.0, 3.0)
        h = rng.uniform(0.5, 2.0)
        zp = zhukovski_solve(p, m, h)
        worst_shell = max(worst_shell, *zp.residuals())
        lab, pack = left_labels(zp)
        worst_prod = max(
            worst_prod,
            abs(pack.a * pack.c - lab.mu1), abs(pack.b * pack.d - lab.mu2),
            abs(pack.a * pack.b - lab.lambda1), abs(pack.c * pack.d - lab.lambda2))
        worst_round = max(worst_round,
                          check_relations(atypical_rep(lab)).max_residual)
        rlab, rpack = right_labels(zp)
        worst_prod = max(worst_prod, abs(rpack.c * rpack.d - rlab.lambda1),
                         abs(rpack.a * rpack.b - rlab.lambda2))
        worst_round = max(worst_round,
                          check_relations(atypical_rep(rlab)).max_residual)
    worst_q = 0.0
    for rng in _child_rngs(802, 20):
        xplus = 1.2 + rng.uniform(0, 1) + 1j * rng.uniform(0.3, 1.2)
        xi = 2.5 + rng.uniform(0, 2) + 1j * rng.uniform(-0.5, 0.5)
        delta = rng.uniform(0.1, 0.5) - 1j * rng.uniform(0, 0.3)
        q = 1 + rng.uniform(0.08, 0.2) * np.exp(2j * np.pi * rng.uniform())
        qzp = q_zhukovski_point(xplus, xi, delta, q)
        worst_q = max(worst_q, *qzp.residuals())
        qlab, _ = q_labels_from_x(qzp)  # internally enforces the 4 products + shortening
        worst_q = max(worst_q, abs(qlab.shortening_residual()))
        worst_round = max(worst_round,
                          q_check_relations(q_atypical_rep(qlab)).max_residual)
    _criterion("8a shell residuals from the x+- solver", worst_shell, 1e-10)
    _criterion("8b coefficient-pack product identities", worst_prod, 1e-10)
    _criterion("8c deformed dictionary (shell, products, shortening)", worst_q, 1e-10)
    _criterion("8d round trips through the atypical modules", worst_round, 1e-10)
    _, mom = dispersion(0.37, np.pi / 4, 1.3)
    ok = mom == 0
    print(f"[{'PASS' if ok else 'FAIL'}] 8e dispersion M = 0 at lam = pi/4 exactly: "
          f"M = {mom!r}")
    assert ok


def test_criterion_9_determinism():
    blobs = []
    for _ in range(2):
        reports = suites.run_all(samples=3, seed=42)
        payload = json.dumps([r.to_dict(include_timestamp=False) for r in reports])
        blobs.append(payload)
    ok = blobs[0] == blobs[1]
    print(f"[{'PASS' if ok else 'FAIL'}] 9 verify-all byte-reproducibility "
          f"(seed 42, timestamp excluded)")
    assert ok
