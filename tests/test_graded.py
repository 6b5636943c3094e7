import itertools
import json

import numpy as np
import pytest

from sl11kit.algebra import KAC_SPACE
from sl11kit.graded import (C11, EVEN, ODD, GradedSpace, SuperMatrix,
                            _kron_layout, _perm_entries, graded_comm, graded_flip, graded_kron,
                            graded_perm, identity, kron_arrays, max_abs, product_table, unit,
                            zeros)


def E(i, j):
    """1-based matrix unit on the standard (1|1) space."""
    return unit(C11, C11, i - 1, j - 1)


ALL_UNITS = [(i, j) for i in (1, 2) for j in (1, 2)]


def test_space_validation():
    with pytest.raises(ValueError):
        GradedSpace(0, ())
    with pytest.raises(ValueError):
        GradedSpace(2, (0,))
    assert GradedSpace(2, ("even", "odd")).parity == (0, 1)


def test_identity_kron_identity():
    res = graded_kron(identity(C11), identity(C11))
    assert max_abs(res.m - np.eye(4)) == 0.0
    assert res.space_out.parity == (0, 1, 1, 0)


def test_unit_kron_sign_rule_example():
    # (E12 x E21)(E21 x E12) = -(E11 x E22): sign (-1)^{(k+l)(r+s)} by hand
    lhs = graded_kron(E(1, 2), E(2, 1)) @ graded_kron(E(2, 1), E(1, 2))
    rhs = -1 * graded_kron(E(1, 1), E(2, 2))
    assert max_abs(lhs - rhs) == 0.0


def test_diagonal_units_carry_no_sign():
    res = graded_kron(E(1, 1), E(2, 2))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0  # row (1,2), col (1,2) in 1-based labels
    assert max_abs(res.m - expect) == 0.0


def test_product_rule_exhaustive_over_units():
    # graded_kron(A,B) @ graded_kron(C,D) = (-1)^{p(C)p(B)} graded_kron(AC, BD)
    for (ai, aj), (bi, bj), (ci, cj), (di, dj) in itertools.product(ALL_UNITS, repeat=4):
        a, b, c, d = E(ai, aj), E(bi, bj), E(ci, cj), E(di, dj)
        lhs = graded_kron(a, b) @ graded_kron(c, d)
        sign = (-1) ** (c.parity * b.parity)
        rhs = sign * graded_kron(a @ c, b @ d)
        assert max_abs(lhs - rhs) == 0.0


def test_kron_associativity_exact_on_integer_matrices():
    # entries small integers: every float product is exact, so the two
    # flattenings must agree bitwise
    rng = np.random.default_rng(11)
    spaces = [C11, GradedSpace(3, (0, 1, 0))]
    for sa, sb, sc in itertools.product(spaces, repeat=3):
        def draw(s):
            m = rng.integers(-3, 4, size=(s.dim, s.dim)) \
                + 1j * rng.integers(-3, 4, size=(s.dim, s.dim))
            return SuperMatrix(s, s, m)
        a, b, c = draw(sa), draw(sb), draw(sc)
        left = graded_kron(graded_kron(a, b), c)
        right = graded_kron(a, graded_kron(b, c))
        assert max_abs(left - right) == 0.0


def test_kron_associativity_generic_complex():
    rng = np.random.default_rng(12)
    a = SuperMatrix(C11, C11, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    b = SuperMatrix(C11, C11, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = SuperMatrix(C11, C11, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    left = graded_kron(graded_kron(a, b), c)
    right = graded_kron(a, graded_kron(b, c))
    assert max_abs(left - right) < 1e-14


def test_kron_matches_entrywise_formula_on_mixed_spaces():
    # (A (x) B)[(i,k),(j,l)] = A[i,j] B[k,l] (-1)^{p(k)(p(i)+p(j))}, exactly,
    # for non-homogeneous factors on square, mixed and rectangular layouts.
    # Gaussian-integer entries make every product exact, so the scalar loop
    # and the vectorised product must agree bitwise whatever their rounding.
    rng = np.random.default_rng(13)
    layouts = [(C11, C11), (KAC_SPACE, KAC_SPACE),
               (C11.tensor(C11), C11.tensor(C11)), (KAC_SPACE, C11)]

    def draw(out, inn):
        shape = (out.dim, inn.dim)
        m = rng.integers(-9, 10, size=shape) + 1j * rng.integers(-9, 10, size=shape)
        return SuperMatrix(out, inn, m)

    for (ao, ai), (bo, bi) in itertools.product(layouts, repeat=2):
        a, b = draw(ao, ai), draw(bo, bi)
        expect = np.zeros((ao.dim * bo.dim, ai.dim * bi.dim), dtype=complex)
        for i, j, k, l in itertools.product(range(ao.dim), range(ai.dim),
                                            range(bo.dim), range(bi.dim)):
            sign = -1.0 if bo.parity[k] * (ao.parity[i] + ai.parity[j]) % 2 else 1.0
            expect[i * bo.dim + k, j * bi.dim + l] = a.m[i, j] * b.m[k, l] * sign
        res = graded_kron(a, b)
        assert res.space_out == ao.tensor(bo) and res.space_in == ai.tensor(bi)
        assert res.parity is None
        assert np.array_equal(res.m, expect)


def test_kron_arrays_on_stacks_is_graded_kron_per_slice_bitwise():
    rng = np.random.default_rng(17)
    layouts = [(C11, C11), (KAC_SPACE, C11), (C11.tensor(C11), C11.tensor(C11))]

    def draw(out, inn, stack):
        shape = (stack, out.dim, inn.dim)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for (ao, ai), (bo, bi) in itertools.product(layouts, repeat=2):
        a, b = draw(ao, ai, 3), draw(bo, bi, 3)
        stack = kron_arrays(a, b, ao, ai, bo, bi)
        assert stack.shape == (3, ao.dim * bo.dim, ai.dim * bi.dim)
        for s in range(3):
            single = graded_kron(SuperMatrix(ao, ai, a[s]), SuperMatrix(bo, bi, b[s])).m
            assert np.array_equal(stack[s], single)
            assert np.array_equal(kron_arrays(a[s], b[s], ao, ai, bo, bi), single)


def test_cached_tables_are_read_only():
    assert graded_perm(C11, C11) is graded_perm(C11, C11)
    with pytest.raises(ValueError):
        graded_perm(C11, C11).m[0, 0] = 2.0
    _, _, sign = _kron_layout(KAC_SPACE, C11, C11, C11)
    with pytest.raises(ValueError):
        sign[0, 0, 0, 0] = -1.0


def test_perm_is_involution():
    p = graded_perm(C11, C11)
    assert max_abs(p @ p - graded_kron(identity(C11), identity(C11))) == 0.0


def test_perm_vector_action():
    p = graded_perm(C11, C11).m
    # even (x) odd: no sign
    v = np.zeros(4)
    v[0 * 2 + 1] = 1.0  # e0 (x) e1
    out = p @ v
    expect = np.zeros(4)
    expect[1 * 2 + 0] = 1.0
    assert max_abs(out - expect) == 0.0
    # odd (x) odd: Koszul sign
    v = np.zeros(4)
    v[1 * 2 + 1] = 1.0
    assert max_abs(p @ v + v) == 0.0


def test_perm_intertwines_kron():
    p = graded_perm(C11, C11)
    for (ai, aj), (bi, bj) in itertools.product(ALL_UNITS, repeat=2):
        a, b = E(ai, aj), E(bi, bj)
        lhs = p @ graded_kron(a, b) @ p
        rhs = (-1) ** (a.parity * b.parity) * graded_kron(b, a)
        assert max_abs(lhs - rhs) == 0.0


def test_perm_dim_mismatch():
    # the graded flip is defined for spaces of any two dimensions
    w = GradedSpace(3, (0, 0, 1))
    p_vw, p_wv = graded_perm(C11, w), graded_perm(w, C11)
    assert p_vw.space_in == C11.tensor(w) and p_vw.space_out == w.tensor(C11)
    for c, d in itertools.product(range(2), range(3)):
        v = np.zeros(6)
        v[c * 3 + d] = 1.0
        expect = np.zeros(6)
        expect[d * 2 + c] = -1.0 if C11.parity[c] * w.parity[d] else 1.0
        assert np.array_equal(p_vw.m @ v, expect)
    assert max_abs(p_wv @ p_vw - identity(C11.tensor(w))) == 0.0
    w_units = itertools.product(range(3), repeat=2)
    for (ai, aj), (bi, bj) in itertools.product(ALL_UNITS, w_units):
        a, b = E(ai, aj), unit(w, w, bi, bj)
        lhs = p_vw @ graded_kron(a, b) @ p_wv
        rhs = (-1) ** (a.parity * b.parity) * graded_kron(b, a)
        assert max_abs(lhs - rhs) == 0.0


def test_graded_comm_examples():
    # both odd: anticommutator of E12, E21 is the identity
    assert max_abs(graded_comm(E(1, 2), E(2, 1)) - identity(C11)) == 0.0
    rng = np.random.default_rng(3)
    a = SuperMatrix(C11, C11, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    assert max_abs(graded_comm(identity(C11), a, EVEN, EVEN)) == 0.0
    # (even, odd) pair
    assert max_abs(graded_comm(E(1, 1), E(1, 2)) - E(1, 2)) == 0.0


def test_graded_comm_requires_parity():
    mixed = E(1, 1) + E(1, 2)
    with pytest.raises(ValueError):
        graded_comm(mixed, E(2, 1))


def test_matmul_space_mismatch():
    a = zeros(C11, GradedSpace(3, (0, 1, 1)))
    with pytest.raises(ValueError):
        a @ a


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 2)) / 3.0 + 1j * rng.normal(size=(2, 2)) * 1e-17
    sm = SuperMatrix(C11, C11, m)
    blob = json.dumps(sm.to_dict())
    back = SuperMatrix.from_dict(json.loads(blob))
    assert np.array_equal(back.m, sm.m)
    assert back.space_out == sm.space_out and back.space_in == sm.space_in


def _blas_build() -> str:
    """The BLAS numpy was built against, for a failure message."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return json.dumps({key: deps.get(key) for key in ("blas", "lapack")})


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("count", [1, 2, 7, 45, 81, 500])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["no-batch", "batch"])
@pytest.mark.parametrize("gathered", [False, True], ids=["contiguous", "gathered"])
def test_product_table_is_bitwise_the_per_pair_product(n, count, batch, gathered):
    """Every entry of the tall-stacked table equals the per-pair ``@`` exactly:
    the Yangian and relation reports rely on it for bitwise reproducible
    residuals, so a BLAS build without the property must fail here."""
    rng = np.random.default_rng(1000 * n + count)

    def draw(k):
        shape = (*batch, k, n, n)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    left, right = draw(count), draw(5)
    if gathered:  # every other factor of a larger stack, and column-major factors
        left = np.concatenate([left, draw(count)], axis=-3)[..., ::2, :, :]
        right = right.swapaxes(-1, -2).copy().swapaxes(-1, -2)
        assert not right.flags.c_contiguous
    table = product_table(left, right)
    want = left[..., None, :, :, :] @ right[..., :, None, :, :]
    assert table.shape == (*batch, 5, count, n, n)
    assert np.array_equal(table, want), f"tall products differ under BLAS {_blas_build()}"


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("gathered", [False, True], ids=["contiguous", "gathered"])
def test_product_table_with_one_right_stack_is_bitwise_the_per_pair_product(n, gathered):
    """A right stack without leading axes meets every leading index of the left
    in one tall product: each entry still equals the per-pair ``@`` exactly."""
    rng = np.random.default_rng(7 * n)

    def draw(*shape):
        return rng.normal(size=(*shape, n, n)) + 1j * rng.normal(size=(*shape, n, n))
    left, right = draw(3, 4, 9), draw(6)
    if gathered:
        left = left[:, ::2]
    table = product_table(left, right)
    assert table.shape == (*left.shape[:-3], 6, left.shape[-3], n, n)
    assert np.array_equal(table, left[..., None, :, :, :] @ right[:, None])


#: Every space pair whose tensors the package flips: module pairs of dimensions
#: 2 and 4, in both orders, and the 8-dimensional coassociativity tensors.
FLIP_PAIRS = [(C11, C11), (KAC_SPACE, C11), (C11, KAC_SPACE), (KAC_SPACE, KAC_SPACE),
              (C11.tensor(C11), C11), (C11, C11.tensor(C11))]


def _flip_by_permutations(x, v, w):
    return _perm_entries(w, v) @ x @ _perm_entries(v, w)


@pytest.mark.parametrize("v, w", FLIP_PAIRS,
                         ids=["2x2", "4x2", "2x4", "4x4", "(2x2)x2", "2x(2x2)"])
def test_graded_flip_is_the_permutation_product(v, w):
    """The signed gather equals the two permutation products in every value
    (``array_equal`` takes -0.0 for 0.0), on a stack and on one matrix."""
    n = v.dim * w.dim
    rng = np.random.default_rng(n + v.dim)
    x = rng.normal(size=(3, 5, n, n)) + 1j * rng.normal(size=(3, 5, n, n))
    x[0, 0, ::2] = 0.0
    flipped = graded_flip(x, v, w)
    assert flipped.shape == x.shape and flipped.dtype == x.dtype
    assert np.array_equal(flipped, _flip_by_permutations(x, v, w))
    assert np.array_equal(graded_flip(x[1, 2], v, w), _flip_by_permutations(x[1, 2], v, w))
    assert np.array_equal(graded_flip(flipped, w, v), x)


def test_graded_flip_is_exact_on_object_stacks():
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    v, w = KAC_SPACE, C11
    n = v.dim * w.dim
    t = sympy.Symbol("t")
    stacks = [np.array([[[mpmath.mpc(i + k, -j) / 3 for j in range(n)] for i in range(n)]
                         for k in range(2)], dtype=object),
              np.array([[sympy.Rational(i + 1, j + 2) + sympy.I * t ** i for j in range(n)]
                        for i in range(n)], dtype=object)]
    for x in stacks:
        flipped = graded_flip(x, v, w)
        assert flipped.dtype == object
        assert np.array_equal(flipped, _flip_by_permutations(x, v, w))
