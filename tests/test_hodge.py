import numpy as np
import pytest

from kornlab import hodge, linalg, meshes
from kornlab.assemble import assemble
from kornlab.hodge import SO3_BASIS
from kornlab.meshes import Mesh, generate_primitive, refine_uniform, validate
from kornlab.spaces import Field, TensorField, build_space, interpolate

from helpers import constant_tensor_coeffs, three_patches, two_plates


def betti_oracle(mesh, gamma_all):
    """Independent rank oracle: L = dim ker(curl) - rank(grad)."""
    m = mesh.retag(1) if gamma_all else mesh.retag(0)
    e0 = build_space(m, "Edge0", "gamma_t")
    p1 = build_space(m, "P1_scalar", "gamma_t")
    f0 = build_space(m, "Face0")
    C = assemble("curl_map", e0, f0).toarray()
    G = assemble("mixed_grad", p1, e0).toarray()
    dim_ker_c = e0.free_count - np.linalg.matrix_rank(C)
    rank_g = np.linalg.matrix_rank(G) if G.size else 0
    return dim_ker_c - rank_g


@pytest.mark.parametrize(
    "kind,n,gamma_all,expected",
    [
        ("unit_cube", 2, True, 0),
        ("unit_cube", 2, False, 0),
        ("cube_with_tunnel", 1, False, 1),
        ("slab_mixed", 2, None, 0),
    ],
)
def test_harmonic_dimension(kind, n, gamma_all, expected):
    mesh = generate_primitive(kind, n)
    if gamma_all is True:
        mesh = mesh.retag(1)
    elif gamma_all is False:
        mesh = mesh.retag(0)
    basis = hodge.harmonic_basis(mesh)
    assert basis.dim == expected
    if gamma_all is not None:
        assert betti_oracle(mesh, gamma_all) == expected


def test_harmonic_dim_mixed_tags_rank_oracle():
    # two opposite plates tagged: relative cohomology of dimension one,
    # cross-checked by integer matrix ranks
    m = two_plates(2)
    basis = hodge.harmonic_basis(m)
    e0 = build_space(m, "Edge0", "gamma_t")
    p1 = build_space(m, "P1_scalar", "gamma_t")
    f0 = build_space(m, "Face0")
    C = assemble("curl_map", e0, f0).toarray()
    G = assemble("mixed_grad", p1, e0).toarray()
    oracle = (e0.free_count - np.linalg.matrix_rank(C)) - np.linalg.matrix_rank(G)
    assert basis.dim == oracle == 1


def test_harmonic_dim_refinement_invariant():
    mesh = generate_primitive("cube_with_tunnel", 1)
    fine = refine_uniform(mesh)
    assert hodge.harmonic_basis(mesh).dim == hodge.harmonic_basis(fine).dim == 1


@pytest.mark.parametrize(
    "make, dim, dense",
    [(lambda: generate_primitive("cube_with_tunnel", 1), 1, True),
     (lambda: two_plates(2), 1, True),
     (lambda: generate_primitive("cube_with_tunnel", 2), 1, False),
     (lambda: generate_primitive("cube_with_tunnel", 4), 1, False),
     (lambda: three_patches(4), 2, False)],
    ids=["tunnel1", "two_plates2", "tunnel2", "tunnel4", "three_patches4"],
)
def test_harmonic_field_properties(make, dim, dense):
    # the fields are the eigenvectors as the search returns them: mass-
    # orthonormal, free of gradients and mass-orthogonal to the coexact pair
    mesh = make()
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    M, G = ops.mass, ops.pinned_grad
    assert basis.dim == dim
    assert (ops.edge_space.free_count < linalg.DENSE_CROSSOVER) == dense
    H = basis.fields
    assert np.abs(H @ (M @ H.T) - np.eye(dim)).max() <= 1e-13
    # |G^T M h| against |G|_M |h|_M, |G|_M^2 = tr(G^T M G): mass cosines
    # with the pinned gradients
    g_norm = np.sqrt((G.multiply(M @ G)).sum())
    for h in H:
        assert np.linalg.norm(G.T @ (M @ h)) <= 1e-13 * g_norm * np.sqrt(h @ (M @ h))
    c = basis.coexact.vectors[:, 0]
    assert np.abs(H @ (M @ c)).max() <= 1e-13 * np.sqrt(c @ (M @ c))
    C = assemble("curl_map", ops.edge_space, build_space(mesh, "Face0"))
    assert np.abs(C @ H.T).max() <= 1e-12


def test_per_slice_harmonic_dim_zero():
    # each slice of the ring is simply connected
    mesh = generate_primitive("cube_with_tunnel", 1)
    for s in np.unique(mesh.slice_ids):
        sub = mesh.submesh(mesh.slice_ids == s)
        assert hodge.harmonic_basis(sub).dim == 0


def test_split_of_exact_gradient():
    mesh = generate_primitive("slab_mixed", 2)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    rng = np.random.default_rng(0)
    u = rng.standard_normal(ops.p1_space.free_count)
    v = Field(ops.edge_space, ops.grad @ u)
    split = hodge.helmholtz_split(v, harmonics=basis)
    nv = np.linalg.norm(v.coeffs)
    assert np.linalg.norm(split.grad_part.coeffs - v.coeffs) <= 1e-10 * nv
    assert np.linalg.norm(split.harmonic_part.coeffs) <= 1e-10 * nv
    assert np.linalg.norm(split.coexact_part.coeffs) <= 1e-10 * nv


def test_split_constant_field_full_dirichlet():
    # <e1, grad phi> = 0 for all Dirichlet phi, so the gradient part
    # vanishes; the constant lives in the unconstrained edge space
    mesh = generate_primitive("unit_cube", 2)
    free = build_space(mesh, "Edge0")
    v = interpolate(lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)), free)
    split = hodge.helmholtz_split(v)
    assert np.linalg.norm(split.grad_part.coeffs) <= 1e-12


def test_split_reproduces_harmonic_basis():
    mesh = generate_primitive("cube_with_tunnel", 1)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    v = Field(ops.edge_space, basis.fields[0])
    split = hodge.helmholtz_split(v, harmonics=basis)
    assert np.linalg.norm(split.grad_part.coeffs) <= 1e-10
    assert np.linalg.norm(split.coexact_part.coeffs) <= 1e-10
    assert np.linalg.norm(split.harmonic_part.coeffs - v.coeffs) <= 1e-10


def test_split_refuses_the_harmonic_basis_of_another_mesh():
    # the same edges on a stretched copy: the coefficients were copied
    # across and the harmonic part was off by 1.66 (its norm 0.45)
    mesh = generate_primitive("cube_with_tunnel", 1)
    basis = hodge.harmonic_basis(mesh)
    other = build_space(mesh.transformed(matrix=np.diag([1.0, 1.0, 5.0])), "Edge0", "gamma_t")
    assert other.free_count == basis.space.free_count
    v = Field(other, np.random.default_rng(0).standard_normal(other.free_count))
    with pytest.raises(ValueError, match="an Edge0 space of its own mesh"):
        hodge.helmholtz_split(v, harmonics=basis)


def test_split_properties_random():
    mesh = generate_primitive("cube_with_tunnel", 1)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    M = ops.mass
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = Field(ops.edge_space, rng.standard_normal(ops.edge_space.free_count))
        split = hodge.helmholtz_split(v, harmonics=basis)
        g, h, c = (p.coeffs for p in split.parts())
        assert np.abs(g + h + c - v.coeffs).max() <= 1e-12 * np.abs(v.coeffs).max()
        for a, b in ((g, h), (g, c), (h, c)):
            na = np.sqrt(a @ (M @ a))
            nb = np.sqrt(b @ (M @ b))
            if na > 0 and nb > 0:
                assert abs(a @ (M @ b)) <= 1e-10 * na * nb


# helmholtz_split(...).residuals on tunnel n=2 (harmonic dim 1) for the
# field default_rng(3).standard_normal, recorded while the split still
# computed them eagerly; they are rounding-level, so they move with any
# change in the split's arithmetic
PINNED_SPLIT_RESIDUALS = {
    "grad_harmonic": 2.2552507038666444e-17,
    "grad_coexact": 1.1712772848188233e-16,
    "harmonic_coexact": 3.66078002221523e-17,
}


def test_split_residuals_lazy_and_pinned():
    mesh = generate_primitive("cube_with_tunnel", 2)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    assert basis.dim == 1
    v = Field(ops.edge_space, np.random.default_rng(3).standard_normal(ops.edge_space.free_count))
    split = hodge.helmholtz_split(v, harmonics=basis)
    assert "residuals" not in vars(split)  # not computed until read
    residuals = split.residuals
    assert residuals.keys() == PINNED_SPLIT_RESIDUALS.keys()
    for pair, value in PINNED_SPLIT_RESIDUALS.items():
        assert residuals[pair] == pytest.approx(value, rel=1e-6), pair
    assert split.residuals is residuals


def test_poisson_solve_on_two_component_mesh():
    # untagged unit cube n=3 plus a copy shifted by 5 in x as slice 1:
    # pinning vertex 0 leaves the constants of the copy in the kernel, so the
    # pinned Poisson matrix is singular, but the gradient part is unique
    a = generate_primitive("unit_cube", 3).retag(0)
    mesh = _union(a, a.transformed(shift=(5.0, 0.0, 0.0)))
    assert validate(mesh) == [] and not mesh.has_gamma_t
    ops = hodge.edge_operators(mesh)
    G = ops.grad.toarray()
    K = G.T @ (ops.mass @ G)
    w = np.linalg.eigvalsh(K[1:, 1:])
    assert w[0] <= 1e-12 * w[-1]
    rhs = ops.mass @ np.random.default_rng(0).standard_normal(ops.edge_space.free_count)
    reference = G @ np.linalg.lstsq(K, G.T @ rhs, rcond=None)[0]
    grad = ops.pinned_grad @ ops.poisson(ops.grad_t @ rhs)
    assert np.linalg.norm(grad - reference) <= 1e-12 * np.linalg.norm(reference)


def test_tensor_split_orthogonality_and_curl():
    mesh = generate_primitive("slab_mixed", 2)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    rng = np.random.default_rng(1)
    T = TensorField(ops.edge_space, rng.standard_normal((3, ops.edge_space.free_count)))
    split = hodge.helmholtz_split_tensor(T, harmonics=basis)
    G, H, S = split.parts()
    assert all(isinstance(p, TensorField) for p in split.parts())
    M = ops.mass
    nT = sum(float(r @ (M @ r)) for r in T.rows)
    nR = sum(float(r @ (M @ r)) for r in G.rows + H.rows)
    nS = sum(float(r @ (M @ r)) for r in S.rows)
    assert nT == pytest.approx(nR + nS, rel=1e-12)
    assert max(split.residuals.values()) <= 1e-12
    f0 = build_space(mesh, "Face0")
    C = assemble("curl_map", ops.edge_space, f0)
    for m in range(3):
        assert np.allclose(C @ S.rows[m], C @ T.rows[m], atol=1e-11)


def test_tensor_split_gradient_rows():
    mesh = generate_primitive("unit_cube", 2)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    rng = np.random.default_rng(2)
    rows = np.stack([ops.grad @ rng.standard_normal(ops.p1_space.free_count)
                     for _ in range(3)])
    T = TensorField(ops.edge_space, rows)
    split = hodge.helmholtz_split_tensor(T, harmonics=basis)
    _, _, S = split.parts()
    assert np.abs(S.rows).max() <= 1e-10 * np.abs(rows).max()


@pytest.mark.parametrize("kind", ["cube_with_tunnel", "slab_mixed"])
def test_tensor_split_is_the_split_of_each_row(kind):
    # one split for both kinds: a tensor's parts, mass images and
    # coordinates are those of its rows split as Edge0 fields, and the
    # curl-free part is W y, W the basis's curl_free_basis
    basis = hodge.harmonic_basis(generate_primitive(kind, 2))
    space = basis.space
    T = TensorField(space, np.random.default_rng(4).standard_normal((3, space.free_count)))
    split = hodge.helmholtz_split(T, harmonics=basis)
    rows = [hodge.helmholtz_split(Field(space, r), harmonics=basis) for r in T.rows]
    scale = np.abs(T.rows).max()
    for part, row_parts in zip(split.parts(), zip(*(r.parts() for r in rows))):
        assert np.abs(part.rows - [p.coeffs for p in row_parts]).max() <= 1e-13 * scale
    assert np.array_equal(split.mass_images, np.concatenate([r.mass_images for r in rows]))
    npot = basis.ops.pinned_grad.shape[1]
    coords = [np.concatenate([r.coords[:npot] for r in rows]),
              np.concatenate([r.coords[npot:] for r in rows])]
    assert np.abs(split.coords - np.concatenate(coords)).max() <= 1e-12 * scale
    curl_free = split.grad_part.stacked() + split.harmonic_part.stacked()
    assert np.abs(basis.curl_free_basis @ split.coords - curl_free).max() <= 1e-13 * scale
    assert basis.curl_free_basis is basis.curl_free_basis  # built once


def test_split_refuses_other_fields():
    with pytest.raises(TypeError, match="a Field or a TensorField"):
        hodge.helmholtz_split(np.zeros(3))


def test_project_so3_cases():
    mesh = generate_primitive("unit_cube", 2)
    e0 = build_space(mesh, "Edge0")
    J = SO3_BASIS[0]
    T = TensorField(e0, constant_tensor_coeffs(e0, J))
    assert np.abs(hodge.project_so3(T) - J).max() <= 1e-13
    sym = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, -1.0]])
    Ts = TensorField(e0, constant_tensor_coeffs(e0, sym))
    assert np.abs(hodge.project_so3(Ts)).max() <= 1e-13


def _linear_rows(space, B):
    """TensorField with row m the Edge0 field x -> B[m] x x, whose average
    over a region with centroid c is B[m] x c."""
    return TensorField(space, np.stack([interpolate(lambda x, b=b: np.cross(b, x), space).coeffs
                                        for b in B]))


def _centroid(mesh, cells):
    vols = mesh.tet_volumes()[cells]
    return vols @ mesh.vertices[mesh.tets[cells]].mean(axis=1) / vols.sum()


def test_project_so3_linear_analytic():
    # rows b_m x x: the volume average over the unit cube is b_m x (1/2, 1/2, 1/2)
    mesh = generate_primitive("unit_cube", 2)
    B = np.random.default_rng(5).standard_normal((3, 3))
    mean = np.cross(B, np.full(3, 0.5))
    S = hodge.project_so3(_linear_rows(build_space(mesh, "Edge0"), B))
    assert np.abs(S - 0.5 * (mean - mean.T)).max() <= 1e-13


def test_averages_take_fields_only():
    mesh = generate_primitive("unit_cube", 2)

    def field(pts):
        return np.broadcast_to(SO3_BASIS[0], (len(pts), 3, 3))

    for average in (hodge.project_so3, hodge.slice_means, hodge.piecewise_skew,
                    hodge.project_rigid):
        with pytest.raises(TypeError):
            average(field)
    e0 = build_space(mesh, "Edge0")
    with pytest.raises(TypeError):
        hodge.project_rigid(TensorField(e0, constant_tensor_coeffs(e0, SO3_BASIS[0])))


def test_project_rigid_reproduces_rigid_motion():
    mesh = generate_primitive("unit_cube", 2)
    pv = build_space(mesh, "P1_vector")
    J = 0.3 * SO3_BASIS[0] + 0.7 * SO3_BASIS[2]
    b = np.array([0.1, -0.2, 0.4])
    v = interpolate(lambda x: x @ J.T + b, pv)
    proj = hodge.project_rigid(v)
    assert np.abs(proj.spin - J).max() <= 1e-13
    assert np.abs(proj.offset - b).max() <= 1e-13
    # v - r_v vanishes identically
    vals = proj.rigid(mesh.vertices)
    assert np.abs(vals - (mesh.vertices @ J.T + b)).max() <= 1e-13


def test_project_rigid_symmetric_gradient():
    mesh = generate_primitive("unit_cube", 2)
    pv = build_space(mesh, "P1_vector")
    v = interpolate(lambda x: np.column_stack([x[:, 0], -x[:, 1], 0 * x[:, 0]]), pv)
    proj = hodge.project_rigid(v)
    assert np.abs(proj.spin).max() <= 1e-13
    assert np.allclose(proj.mean_value, [0.5, -0.5, 0.0], atol=1e-13)
    assert np.allclose(proj.offset, [0.5, -0.5, 0.0], atol=1e-13)


def _rigid_pairings(v, spin, offset):
    """Largest relative pairings of w = v - I(r), r(x) = spin x + offset:
    w with the interpolated translations in the P1_vector mass form, and
    grad w with the interpolated rotations in its grad form."""
    pv = v.space
    M, K = assemble("mass", pv), assemble("grad", pv)
    w = v.coeffs - interpolate(lambda x: x @ spin.T + offset, pv).coeffs
    trans = [interpolate(lambda x, e=e: np.tile(e, (len(x), 1)), pv).coeffs for e in np.eye(3)]
    rots = [interpolate(lambda x, S=S: x @ S.T, pv).coeffs for S in SO3_BASIS]
    return max([abs(t @ (M @ w)) / np.sqrt((t @ (M @ t)) * (v.coeffs @ (M @ v.coeffs)))
                for t in trans]
               + [abs(r @ (K @ w)) / np.sqrt((r @ (K @ r)) * (v.coeffs @ (K @ v.coeffs)))
                  for r in rots])


def test_project_rigid_orthogonality_residuals():
    # v - r _|_ R^3 and grad(v - r) _|_ so(3), read off the assembled forms
    mesh = generate_primitive("unit_cube", 2)
    v = interpolate(lambda x: np.column_stack(
        [x[:, 0] ** 2 + x[:, 1], x[:, 2] * x[:, 0], x[:, 1] ** 2]), build_space(mesh, "P1_vector"))
    proj = hodge.project_rigid(v)
    assert _rigid_pairings(v, proj.spin, proj.offset) <= 1e-13
    assert _rigid_pairings(v, proj.spin, proj.offset + 1e-3) > 1e-4
    assert _rigid_pairings(v, proj.spin + 1e-3 * SO3_BASIS[0], proj.offset) > 1e-4
    assert np.abs(proj.centroid - 0.5).max() <= 1e-15


def test_piecewise_skew():
    mesh = generate_primitive("cube_with_tunnel", 1)
    e0 = build_space(mesh, "Edge0")
    J = SO3_BASIS[1]
    # constant skew: every slice average is J
    T = TensorField(e0, constant_tensor_coeffs(e0, J))
    labels, skews = hodge.piecewise_skew(T)
    assert len(labels) == 2
    for s in skews:
        assert np.abs(s - J).max() <= 1e-12
    # single-slice equality with project_so3
    single = generate_primitive("unit_cube", 2)
    e1 = build_space(single, "Edge0")
    T2 = TensorField(e1, constant_tensor_coeffs(e1, J))
    labels2, skews2 = hodge.piecewise_skew(T2)
    assert len(labels2) == 1
    assert np.abs(skews2[0] - hodge.project_so3(T2)).max() <= 1e-13


def test_piecewise_skew_per_slice_values():
    # rows b_m x x have the slice average b_m x c_j on slice j (centroid c_j),
    # a different skew on each slice of the tunnel
    mesh = generate_primitive("cube_with_tunnel", 1)
    B = np.random.default_rng(6).standard_normal((3, 3))
    T = _linear_rows(build_space(mesh, "Edge0"), B)
    labels, skews = hodge.piecewise_skew(T)
    assert len(labels) == 2
    for lab, skew in zip(labels, skews):
        mean = np.cross(B, _centroid(mesh, mesh.slice_ids == lab))
        assert np.abs(skew - 0.5 * (mean - mean.T)).max() <= 1e-12
    # project_so3 is the volume average of the slice skews
    _, _, vols = hodge.slice_means(T)
    assert np.abs(hodge.project_so3(T) - np.tensordot(vols, skews, axes=1) / vols.sum()).max() \
        <= 1e-13


def test_harmonic_sparse_search_raises_at_cap(monkeypatch):
    # a kernel filling every requested eigenvalue must not come back truncated:
    # on the tunnel (dimension 1) a bound patched to 0 leaves no pair above it
    mesh = generate_primitive("cube_with_tunnel", 2)
    monkeypatch.setattr(meshes, "harmonic_bound", lambda mesh: (0, 0, 0, 0))
    requested = _spy_requests(monkeypatch)
    with pytest.raises(linalg.SolverError, match=r"all 1 computed eigenvalues lie below .* "
                       r"bound beta = 0 \(b1 = 0, 0 tag-1 components, 0 domain"):
        hodge.harmonic_basis(mesh)
    assert requested == [1]


@pytest.mark.parametrize("kind, n, dim", [("cube_with_tunnel", 2, 1), ("unit_cube", 4, 0)])
def test_harmonic_threshold_sits_in_the_spectral_gap(kind, n, dim):
    # the harmonic dimension is a Betti number: the fixed threshold must lie
    # at least four decades above the kernel and below the first nonzero value
    ops = hodge.edge_operators(generate_primitive(kind, n))
    A, M = ops.curlcurl, ops.mass
    threshold = hodge.HARMONIC_REL_TOL * A.diagonal().sum() / M.diagonal().sum()
    eig = linalg.eig_smallest(A, M, k=4, deflation=ops.pinned_grad)
    assert np.sum(eig.values <= threshold) == dim
    assert np.abs(eig.values[:dim]).max(initial=0.0) <= 1e-4 * threshold
    assert eig.values[dim] >= 1e4 * threshold


def _spy_requests(monkeypatch):
    requested = []
    real = linalg.eig_smallest

    def spy(A, B, k=1, **kwargs):
        requested.append(k)
        return real(A, B, k=k, **kwargs)

    monkeypatch.setattr(linalg, "eig_smallest", spy)
    return requested


@pytest.mark.parametrize("kind, n, dim", [("cube_with_tunnel", 2, 1), ("cube_with_tunnel", 4, 1),
                                          ("slab_mixed", 6, 0), ("unit_cube", 6, 0)])
def test_harmonic_search_asks_for_two_pairs(kind, n, dim, monkeypatch):
    # one solve for beta + 1 pairs, and beta = dim on the benchmark meshes
    requested = _spy_requests(monkeypatch)
    basis = hodge.harmonic_basis(generate_primitive(kind, n))
    assert requested == [dim + 1]
    assert basis.dim == dim
    assert basis.coexact.values[0] > 0


def test_harmonic_dimension_two_takes_one_more_solve(monkeypatch):
    # three disjoint tag-1 patches: H^1(Omega, Gamma_t) has dimension 3 - 1
    mesh = three_patches(4)
    requested = _spy_requests(monkeypatch)
    assert hodge.harmonic_basis(mesh).dim == 2
    assert requested == [3]


def _union(a, b):
    """Two meshes side by side as one, the cells of b as slice 1."""
    nv = a.num_vertices
    return Mesh(np.vstack([a.vertices, b.vertices]), np.vstack([a.tets, b.tets + nv]),
                np.r_[a.slice_ids, b.slice_ids + 1], np.vstack([a.btris, b.btris + nv]),
                np.r_[a.btri_tags, b.btri_tags])


def _checkerboard(n):
    """unit_cube n with tag 1 on the squares (i + j even) of the face z = 0
    only: their triangles touch across vertices, one component of Gamma_t."""
    m = generate_primitive("unit_cube", n)
    c = m.vertices[m.btris].mean(axis=1)
    black = (np.floor(n * c[:, 0]) + np.floor(n * c[:, 1])) % 2 == 0
    return m.retag((np.isclose(c[:, 2], 0) & black).astype(np.int64))


def _harmonic_pivots(mesh):
    """dim H^1(Omega, Gamma_t) by Sylvester's law of inertia: the negative
    pivots of the LDL^T factor of CC - sigma M at the harmonic threshold,
    less the rank of the gradients (the tag-1 potentials, less one constant
    per cell component that holds no tag-1 vertex)."""
    ops = hodge.edge_operators(mesh)
    A, M = ops.curlcurl, ops.mass
    sigma = hodge.HARMONIC_REL_TOL * A.diagonal().sum() / M.diagonal().sum()
    lu = linalg._factor((A - sigma * M).tocsc(), "harmonic pencil")
    free = meshes.row_components(mesh.tets)[0] - meshes.harmonic_bound(mesh)[3]
    return int(np.sum(lu.U.diagonal() < 0)) - (ops.p1_space.free_count - free)


@pytest.mark.parametrize(
    "make, beta, dim",
    [(lambda: generate_primitive("unit_cube", 4), 0, 0),
     (lambda: generate_primitive("unit_cube", 6), 0, 0),
     (lambda: generate_primitive("unit_cube", 4).retag(0), 0, 0),
     (lambda: generate_primitive("slab_mixed", 4), 0, 0),
     (lambda: generate_primitive("slab_mixed", 6), 0, 0),
     (lambda: generate_primitive("cube_with_tunnel", 2), 1, 1),
     (lambda: generate_primitive("cube_with_tunnel", 4), 1, 1),
     (lambda: generate_primitive("cube_with_tunnel", 2).retag(1), 1, 0),
     (lambda: three_patches(4), 2, 2),
     (lambda: _union(generate_primitive("slab_mixed", 2),
                     generate_primitive("cube_with_tunnel", 1).transformed(shift=(5, 0, 0))),
      1, 1),
     (lambda: _checkerboard(4), 0, 0)],
    ids=["unit_cube4", "unit_cube6", "unit_cube4_untagged", "slab_mixed4", "slab_mixed6",
         "tunnel2", "tunnel4", "tunnel2_tagged", "three_patches4", "slab_and_tunnel",
         "checkerboard4"],
)
def test_betti_bound_holds_the_harmonic_dimension(make, beta, dim):
    # beta = b1 + c_t - c_linked >= dim H^1(Omega, Gamma_t), equal on the
    # benchmark meshes; a solid torus clamped all round has no harmonic field.
    # The pivot count checks the dimension apart from the eigensolve
    mesh = make()
    validate(mesh)  # raises on what it refuses
    assert meshes.harmonic_bound(mesh)[0] == beta
    assert hodge.harmonic_basis(mesh).dim == dim == _harmonic_pivots(mesh)


@pytest.mark.parametrize("make", [lambda: generate_primitive("slab_mixed", 2),
                                  lambda: two_plates(2),
                                  lambda: generate_primitive("cube_with_tunnel", 2)],
                         ids=["slab_mixed2", "two_plates2", "tunnel2"])
def test_split_in_another_edge_space_runs_through_the_basis(make, monkeypatch):
    # a field of the unconstrained space (on the tunnel: the same edges in
    # another DofSpace): its gradient and harmonic parts are those of the
    # own-space split with the mass images restricted to the basis space's
    # free edges, zero-extended; no operators of its own, and one Poisson
    # factorization for it and an own-space split
    basis = hodge.harmonic_basis(make())
    ops, space = basis.ops, build_space(basis.space.mesh, "Edge0")
    monkeypatch.setattr(hodge, "edge_operators", None)  # a call would raise
    factors, real = [], linalg.spd_solver
    monkeypatch.setattr(linalg, "spd_solver", lambda A: factors.append(A) or real(A))
    v = Field(space, np.random.default_rng(5).standard_normal(space.free_count))
    split = hodge.helmholtz_split(v, harmonics=basis)
    own = space.dof_map[0][basis.space.dof_map[0] >= 0]
    mv = assemble("mass", space) @ v.coeffs
    u = np.linalg.solve((ops.pinned_grad.T @ ops.mass @ ops.pinned_grad).toarray(),
                        ops.pinned_grad.T @ mv[own])
    grad, harm = np.zeros(space.free_count), np.zeros(space.free_count)
    grad[own], harm[own] = ops.pinned_grad @ u, (basis.fields @ mv[own]) @ basis.fields
    scale = np.abs(v.coeffs).max()
    assert np.abs(split.grad_part.coeffs - grad).max() <= 1e-12 * scale
    assert np.abs(split.harmonic_part.coeffs - harm).max() <= 1e-12 * scale
    assert np.abs(split.grad_part.coeffs + split.harmonic_part.coeffs
                  + split.coexact_part.coeffs - v.coeffs).max() <= 1e-14 * scale
    assert max(split.residuals.values()) <= 1e-12
    hodge.helmholtz_split(Field(basis.space, v.coeffs[own]), harmonics=basis)
    assert len(factors) == 1
