import numpy as np
import pytest

import porbit as pb
from porbit.spectral import SubspaceBasis, row_space

from conftest import quiet_rigid_body


def sorted_by_imag(values):
    return np.array(sorted(values, key=lambda v: (round(v.real, 9), v.imag)))


# -- eigen --------------------------------------------------------------------


def test_rigid_eigenvalues_at_e1(rigid_bundle, rigid_e1):
    jac = pb.jacobian_exact(rigid_bundle.field, rigid_e1)
    values = sorted_by_imag(pb.eigen(jac).eigenvalues)
    np.testing.assert_allclose(values, [-1j, 0.0, 1j], atol=1e-12)


def test_clebsch_eigenvalues_at_e1(clebsch_bundle, clebsch_e1):
    jac = pb.jacobian_exact(clebsch_bundle.field, clebsch_e1)
    values = sorted_by_imag(pb.eigen(jac).eigenvalues)
    root2 = np.sqrt(2.0)
    np.testing.assert_allclose(
        values, [-1j * root2, -1j, 0.0, 0.0, 1j, 1j * root2], atol=1e-10
    )


def test_identity_eigenvalues():
    values = pb.eigen(np.eye(4)).eigenvalues
    np.testing.assert_allclose(values, np.ones(4))


def test_eigen_requires_square():
    with pytest.raises(ValueError):
        pb.eigen(np.zeros((2, 3)))


def test_real_matrices_have_conjugate_pairs():
    rng = np.random.default_rng(123)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        values = pb.eigen(a).eigenvalues
        conj = np.conj(values)
        # multiset equality within pairing tolerance
        assert np.max(np.abs(sorted_by_imag(values) - sorted_by_imag(conj))) < 1e-10


def test_rigid_frequency_formula_over_grid():
    worst = 0.0
    for a2 in (-2.0, -1.0, -0.5):
        for gap in (0.5, 1.0, 2.0):
            bundle = quiet_rigid_body(a2=a2, a3=2.0, l=2.0 - gap)
            for m in (0.5, 1.0, 2.0):
                e1 = bundle.equilibrium("e1", m)
                jac = pb.jacobian_exact(bundle.field, e1)
                omegas = pb.imaginary_pairs(pb.eigen(jac))
                assert len(omegas) == 1
                expected = abs(m) * np.sqrt(-a2 * gap)
                worst = max(worst, abs(omegas[0] - expected) / expected)
    assert worst < 1e-9


# -- kernel and subspaces -----------------------------------------------------


def test_rigid_kernel_is_axis(rigid_bundle, rigid_e1):
    jac = pb.jacobian_exact(rigid_bundle.field, rigid_e1)
    ker = pb.kernel(jac)
    assert ker.dim == 1
    grads = row_space(rigid_bundle.constraints[0].gradient(rigid_e1)[None, :])
    assert pb.subspace_equal(grads, ker)


def test_clebsch_kernel_is_two_dimensional(clebsch_bundle, clebsch_e1):
    jac = pb.jacobian_exact(clebsch_bundle.field, clebsch_e1)
    ker = pb.kernel(jac)
    assert ker.dim == 2
    expected = np.zeros((6, 2))
    expected[0, 0] = 1.0  # x1 direction
    expected[3, 1] = 1.0  # p1 direction
    assert pb.subspace_equal(ker, SubspaceBasis(6, expected))


def test_zero_matrix_kernel_is_full_space():
    ker = pb.kernel(np.zeros((3, 3)))
    assert ker.dim == 3
    np.testing.assert_array_equal(ker.vectors, np.eye(3))


def test_kernel_basis_is_orthonormal():
    rng = np.random.default_rng(77)
    a = rng.normal(size=(2, 5))  # rank 2, kernel dim 3
    ker = pb.kernel(a)
    assert ker.dim == 3
    gram = ker.vectors.T @ ker.vectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    assert np.max(np.abs(a @ ker.vectors)) < 1e-12


def test_subspace_equal_examples():
    e1 = SubspaceBasis(3, np.eye(3)[:, :1])
    e2 = SubspaceBasis(3, np.eye(3)[:, 1:2])
    assert not pb.subspace_equal(e1, e2)
    assert pb.subspace_equal(e1, e1)
    with pytest.raises(ValueError):
        pb.subspace_equal(e1, SubspaceBasis(4, np.eye(4)[:, :1]))


def test_kernel_subspace_self_consistency():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        a[:, 0] = a[:, 1]  # force rank deficiency
        ker = pb.kernel(a.T @ a)
        assert pb.subspace_equal(ker, ker)


# -- imaginary pairs ----------------------------------------------------------


def test_imaginary_pairs_examples():
    data = pb.EigenData(np.array([0.0, 1j, -1j]))
    assert pb.imaginary_pairs(data) == [1.0]

    root2 = np.sqrt(2.0)
    data = pb.EigenData(np.array([0.0, 0.0, 1j * root2, -1j * root2, 1j, -1j]))
    np.testing.assert_allclose(pb.imaginary_pairs(data), [root2, 1.0])

    data = pb.EigenData(np.array([1.0, -1.0, 2.0], dtype=complex))
    assert pb.imaginary_pairs(data) == []


def test_imaginary_pairs_merges_coincident_frequencies():
    data = pb.EigenData(np.array([1j, -1j, 1j * (1 + 1e-12), -1j * (1 + 1e-12)]))
    assert len(pb.imaginary_pairs(data, tol=1e-8)) == 1


def test_imaginary_pairs_excludes_damped_modes():
    data = pb.EigenData(np.array([0.5 + 1j, 0.5 - 1j, 2j, -2j]))
    assert pb.imaginary_pairs(data, tol=1e-8) == [2.0]


# -- restricted Hessian -------------------------------------------------------


def test_clebsch_restricted_hessian_spectrum(clebsch_bundle, clebsch_e1):
    hess = pb.hessian_exact(clebsch_bundle.integral, clebsch_e1)
    grads = [q.gradient(clebsch_e1) for q in clebsch_bundle.constraints]
    restricted = pb.restricted_hessian(hess, grads)
    assert restricted.shape == (4, 4)
    # diag(a2 - a1, a3 - a1, 1, 1) up to the basis rotation
    np.testing.assert_allclose(np.linalg.eigvalsh(restricted), [1.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_rigid_restricted_hessian_is_positive(rigid_bundle, rigid_e1):
    hess = pb.hessian_exact(rigid_bundle.integral, rigid_e1)
    grads = [rigid_bundle.constraints[0].gradient(rigid_e1)]
    restricted = pb.restricted_hessian(hess, grads)
    assert restricted.shape == (2, 2)
    # independent 2x2 eigenvalue formula for a symmetric matrix
    a, b, c = restricted[0, 0], restricted[0, 1], restricted[1, 1]
    disc = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    lo, hi = (a + c) / 2.0 - disc, (a + c) / 2.0 + disc
    assert lo > 0.0 and hi > 0.0
    np.testing.assert_allclose(np.linalg.eigvalsh(restricted), [lo, hi], atol=1e-12)


def test_restricted_hessian_without_constraints_is_similarity():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    restricted = pb.restricted_hessian(h, [])
    np.testing.assert_allclose(np.linalg.eigvalsh(restricted), np.linalg.eigvalsh(h), atol=1e-12)


def test_restricted_hessian_rejects_dependent_gradients():
    h = np.eye(3)
    with pytest.raises(pb.DependentConstraints):
        pb.restricted_hessian(h, [np.array([1.0, 0, 0]), np.array([2.0, 0, 0])])


def test_restricted_hessian_spectrum_is_basis_invariant(clebsch_bundle, clebsch_e1):
    hess = pb.hessian_exact(clebsch_bundle.integral, clebsch_e1)
    grads = [q.gradient(clebsch_e1) for q in clebsch_bundle.constraints]
    base = np.linalg.eigvalsh(pb.restricted_hessian(hess, grads))
    basis = pb.kernel(np.vstack(grads)).vectors
    rng = np.random.default_rng(11)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(basis.shape[1], basis.shape[1])))
        rotated = basis @ q
        spectrum = np.linalg.eigvalsh(rotated.T @ hess @ rotated)
        assert np.max(np.abs(spectrum - base)) < 1e-10


def test_restricted_hessian_output_is_exactly_symmetric(clebsch_bundle, clebsch_e1):
    hess = pb.hessian_exact(clebsch_bundle.integral, clebsch_e1)
    grads = [q.gradient(clebsch_e1) for q in clebsch_bundle.constraints]
    restricted = pb.restricted_hessian(hess, grads)
    assert np.array_equal(restricted, restricted.T)


# -- positive definiteness ----------------------------------------------------


def test_is_positive_definite_examples():
    assert pb.is_positive_definite(np.diag([1.0, 2.0, 1.0, 1.0]))
    assert not pb.is_positive_definite(np.diag([1.0, -1.0]))
    assert pb.is_positive_definite(np.zeros((0, 0)))
    assert not pb.is_positive_definite(np.zeros((2, 2)))


# -- oscillation plane --------------------------------------------------------


def test_oscillation_plane_rotation_identity(clebsch_bundle, clebsch_e1):
    jac = pb.jacobian_exact(clebsch_bundle.field, clebsch_e1)
    for omega in (np.sqrt(2.0), 1.0):
        u, v = pb.oscillation_plane(jac, omega)
        plane = np.column_stack((u, v))
        rotation = np.array([[0.0, omega], [-omega, 0.0]])
        assert np.max(np.abs(jac @ plane - plane @ rotation)) < 1e-8


@pytest.mark.parametrize("which", ["clebsch", "rigid"])
def test_oscillation_plane_is_stable_under_one_ulp(which, clebsch_bundle, rigid_bundle):
    # the Clebsch point is a continuation seed whose plane basis used to
    # rotate under a one-ulp change of the Jacobian
    if which == "clebsch":
        bundle, x0 = clebsch_bundle, clebsch_bundle.equilibrium("e1", 1.0290929531478712)
    else:
        bundle, x0 = rigid_bundle, rigid_bundle.equilibrium("e1", 1.0)
    jac = pb.jacobian_exact(bundle.field, x0)
    for omega in pb.check_theorem(bundle, x0).omegas:
        u, v = pb.oscillation_plane(jac, omega)
        for direction in (np.inf, -np.inf):
            u2, v2 = pb.oscillation_plane(np.nextafter(jac, direction), omega)
            assert np.max(np.abs(u2 - u)) <= 1e-12
            assert np.max(np.abs(v2 - v)) <= 1e-12


def test_oscillation_plane_missing_frequency(rigid_bundle, rigid_e1):
    jac = pb.jacobian_exact(rigid_bundle.field, rigid_e1)
    with pytest.raises(pb.EigenSolveError):
        pb.oscillation_plane(jac, 3.0)
