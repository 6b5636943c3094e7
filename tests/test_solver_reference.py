"""The R-matrix path against the code it replaced, bit for bit.

The solver builds its stacked system by adding the two Kronecker terms onto
zeros and decomposes the R factor of that system; the Yang-Baxter embedding
reads its identity, sign tables and P23 from module constants; the closed
forms write each coefficient into its slot's single entry.  The references
below are the forms these replaced, kept as they were: one ``einsum`` and a
thin SVD of the whole system, per-call ``graded_kron`` embeddings, and a sum
of six dense slot matrices.  Every singular value, null vector, residual and
assembled matrix must carry the same bits, the signs of zeros included.
"""
import numpy as np
import pytest

from sl11kit import algebra, qaffine, qalgebra, rmatrix, suites
from sl11kit.algebra import RepLabels
from sl11kit.graded import (C11, EVEN, SuperMatrix, graded_kron, graded_perm, identity,
                            max_abs, unit)

SEEDS = range(40)
T2 = C11.tensor(C11)


# -- references -------------------------------------------------------------------------


def ref_solve_intertwiner(rep_a, rep_b, null_threshold=1e-8):
    dim = rep_a.space.dim * rep_b.space.dim
    dop, d = rmatrix._coproduct_stacks(rep_a, rep_b)
    eye = np.broadcast_to(np.eye(dim), dop.shape)
    system = np.einsum("sgij,sgkl->gikjl", np.stack([dop, eye]),
                       np.stack([eye, -d.transpose(0, 2, 1)]))
    _, svals, vh = np.linalg.svd(system.reshape(-1, dim * dim), full_matrices=False)
    null = [vh[i].conj().reshape(dim, dim) for i in range(dim * dim)
            if svals[i] < null_threshold * svals[0]]
    return null, svals


def ref_ybe_embed(r12, r13, r23):
    one = identity(C11)
    sm = lambda m: SuperMatrix(T2, T2, m, EVEN)
    big12 = graded_kron(sm(r12), one).m
    big23 = graded_kron(one, sm(r23)).m
    perm23 = graded_kron(one, graded_perm(C11, C11)).m
    big13 = perm23 @ graded_kron(sm(r13), one).m @ perm23
    return max_abs(big12 @ big13 @ big23 - big23 @ big13 @ big12)


def _unit(i, j):
    return unit(C11, C11, i, j)


REF_SLOTS = {
    "11,11": graded_kron(_unit(0, 0), _unit(0, 0)).m,
    "11,22": graded_kron(_unit(0, 0), _unit(1, 1)).m,
    "12,21": graded_kron(_unit(0, 1), _unit(1, 0)).m,
    "21,12": graded_kron(_unit(1, 0), _unit(0, 1)).m,
    "22,11": graded_kron(_unit(1, 1), _unit(0, 0)).m,
    "22,22": graded_kron(_unit(1, 1), _unit(1, 1)).m,
}


def ref_assemble(coeffs):
    return sum(complex(c) * REF_SLOTS[slot] for slot, c in coeffs.items())


def ref_slot_coefficients(mat):
    out = {}
    for slot, s in REF_SLOTS.items():
        i, j = np.unravel_index(np.argmax(np.abs(s)), s.shape)
        out[slot] = complex(mat[i, j] / s[i, j])
    return out


def assert_same_bits(actual, expected):
    """Equal values, dtype and shape, and equal signs of every zero."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


def assert_same_solution(rep_a, rep_b):
    null, svals = rmatrix.solve_intertwiner(rep_a, rep_b)
    ref_null, ref_svals = ref_solve_intertwiner(rep_a, rep_b)
    assert_same_bits(svals, ref_svals)
    assert len(null) == len(ref_null)
    for vec, ref in zip(null, ref_null):
        assert_same_bits(vec, ref)
    return null


# -- pairs ------------------------------------------------------------------------------


def classical_pair(seed):
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    return tuple(algebra.atypical_rep(suites.draw_labels(rng, alpha)) for _ in range(2))


def deformed_labels(seed, count):
    rng = np.random.default_rng(seed)
    q, alpha = suites.draw_q(rng), suites.draw_alpha(rng)
    return [suites.draw_qlabels(rng, q, alpha) for _ in range(count)]


def deformed_pair(seed):
    return tuple(qalgebra.q_atypical_rep(lab) for lab in deformed_labels(seed, 2))


def affine_pair(seed):
    return tuple(qaffine.affine_eval_rep(lab) for lab in deformed_labels(seed, 2))


def typical_pair(seed):
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    nus = np.exp(1j * rng.uniform(0.2, 1.4, size=2))
    return (algebra.typical_rep(1.3 - 0.2j, 0.7 + 0.4j, nus[0], alpha),
            algebra.typical_rep(0.4 + 0.1j, -1.1, nus[1], alpha))


@pytest.mark.parametrize("build", [classical_pair, deformed_pair, affine_pair])
@pytest.mark.parametrize("seed", SEEDS)
def test_solver_equals_the_einsum_and_thin_svd_reference(build, seed):
    null = assert_same_solution(*build(seed))
    assert len(null) == 1


@pytest.mark.parametrize("seed", range(2))
def test_solver_equals_the_reference_on_typical_modules(seed):
    ta, tb = typical_pair(seed)
    ra, _ = classical_pair(seed)
    for pair in ((ta, tb), (ra, tb), (tb, ra)):
        assert_same_solution(*pair)


def test_solver_equals_the_reference_on_a_reducible_pair():
    degenerate = algebra.atypical_rep(RepLabels(1.0, 1.0, -0.5, 0.5))
    null = assert_same_solution(degenerate, degenerate)
    assert len(null) > 1
    with pytest.raises(rmatrix.ReducibleTensorError) as err:
        rmatrix.r_solve(degenerate, degenerate)
    assert err.value.dim == len(null)


# -- Yang-Baxter and the closed forms ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_ybe_embedding_equals_the_graded_kron_reference(seed):
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    labels = [suites.draw_labels(rng, alpha) for _ in range(3)]
    qlabels = deformed_labels(seed, 3)
    for build, (l1, l2, l3) in ((rmatrix.r_closed, labels), (rmatrix.rq_closed, qlabels)):
        mats = build(l1, l2).m, build(l1, l3).m, build(l2, l3).m
        assert_same_bits(rmatrix.ybe_embed(*mats), ref_ybe_embed(*mats))
    thetas = rng.uniform(-np.pi, np.pi, size=5)
    real = [rmatrix.r_trig(a, b, lam).m.real
            for a, b, lam in ((thetas[0], thetas[1], thetas[3]), (thetas[0], thetas[2], thetas[4]),
                              (thetas[1], thetas[2], thetas[4] - thetas[3]))]
    assert_same_bits(rmatrix.ybe_embed(*real), ref_ybe_embed(*real))


def trig_coefficients(theta1, theta2, lam):
    return {
        "11,11": np.sin(theta1 + theta2 - lam),
        "11,22": -np.sin(theta1 - theta2 + lam),
        "12,21": -np.sin(2 * theta1),
        "21,12": np.sin(2 * theta2),
        "22,11": np.sin(theta1 - theta2 - lam),
        "22,22": -np.sin(theta1 + theta2 + lam),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_assembled_matrices_equal_the_sum_of_slot_matrices(seed):
    rng = np.random.default_rng(seed)
    alpha = suites.draw_alpha(rng)
    la, lb = suites.draw_labels(rng, alpha), suites.draw_labels(rng, alpha)
    qa, qb = deformed_labels(seed, 2)
    angles = rng.uniform(-np.pi, np.pi, size=3)
    for rm, coeffs in (
            (rmatrix.r_trig(*angles), trig_coefficients(*angles)),
            (rmatrix.r_closed(la, lb),
             rmatrix.rq_from_powers(la.gamma, la.nu, 1, 1, lb.gamma, lb.nu, 1, 1)),
            (rmatrix.rq_closed(qa, qb),
             rmatrix.rq_from_powers(qa.gamma, qa.nu, qa.qlam1, qa.qlam2,
                                    qb.gamma, qb.nu, qb.qlam1, qb.qlam2))):
        assert_same_bits(rm.m, ref_assemble(coeffs))
        assert rmatrix.slot_coefficients(rm) == ref_slot_coefficients(rm.m)


def test_a_trig_matrix_keeps_its_zero_signs():
    # a plain assignment of c * (-1) into a slot would leave -0.0 in the imaginary part
    rm = rmatrix.r_trig(0.3, 0.4, 0.1)
    assert not np.signbit(rm.m.imag).any()
    assert_same_bits(rm.m, ref_assemble(trig_coefficients(0.3, 0.4, 0.1)))
