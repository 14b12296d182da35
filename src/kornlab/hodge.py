"""Harmonic fields, Helmholtz decompositions and explicit projections.

The harmonic space is the kernel of the curl-curl form C^T M_f C inside the
mass-orthogonal complement of the discrete gradients (its exact kernel); its
dimension is a topological quantity (a Betti number in the pure-tag cases).
harmonic_basis counts it, the one kernel count of kornlab: one eigensolve,
the gradients deflated, for one pair more than the mesh's Betti bound on
the dimension.  It gives the basis and the coexact Maxwell pair, as the
eigensolver returns them (the pair's eigenvalue re-read as its vector's
quotient through the curl pair).  helmholtz_split is the one Helmholtz
split, row by row: a Field is one row, a TensorField three, of any Edge0
space of the mesh.  Every split runs through the basis's operators, whose
Poisson matrix G^T M G on the pinned potentials is factored once, at the
first split; every later split costs triangular solves.  The split also
hands back the coordinates y of its curl-free part (the pinned potentials
and the harmonic amplitudes of every row): for a tensor R = W y, W the
HarmonicBasis's curl_free_basis, so its norms read off reduced forms.

Averages have one path.  The slice averages of a tensor field over Edge0
(slice_means), their skews (piecewise_skew) and the projection onto the
constant skews (project_so3, the skew of the volume average) are dense
products with one matrix, the per-slice first moments of the edge space
(slice_moments), built once per mesh and constraint and read by
certification and by the skew-moment rows of c_direct too.  project_rigid
averages a P1 vector field cell by cell.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg, meshes
from .assemble import assemble, geometry
from .spaces import DofSpace, Field, TensorField, build_space

# kernel threshold of the harmonic search relative to tr(curlcurl) / tr(mass);
# on the built-in meshes the kernel lies below 1e-15 and the rest of the
# spectrum above 1e-2 of that ratio
HARMONIC_REL_TOL = 1e-8

SO3_BASIS = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)


@dataclass
class EdgeOperators:
    """Shared matrices for one Edge0 space with its scalar potential space.

    The harmonic basis holds those of the constrained edge space, and every
    split, of a field in any Edge0 space of the mesh, runs through them; the
    potentials always carry the tag-1 constraint.  pinned_grad is the one
    place where the constant potentials are removed: the Poisson factor,
    the harmonic search (which also yields the coexact Maxwell pair) and
    the curl-free tensor basis all read it.
    The curl has one mechanism, the curl pair: the integer incidence C onto
    the unconstrained Face0 space and its mass M_f.  C grad = 0, so the
    gradients are the exact kernel of curlcurl = C^T M_f C at every cell
    shape; every curl norm is |C t| in M_f (curl_sq).
    """

    edge_space: DofSpace
    p1_space: DofSpace
    mass: sp.csr_matrix
    grad: sp.csr_matrix  # P1 -> Edge0 incidence
    curl: sp.csr_matrix  # Edge0 -> Face0 incidence
    face_mass: sp.csr_matrix  # the Face0 mass M_f

    @cached_property
    def curlcurl(self):
        """C^T M_f C averaged with its transpose, so symmetric to the bit; only exact
        zeros are left out (dropping an entry by size would break the kernel)."""
        CC = self.curl.T @ (self.face_mass @ self.curl)
        return (0.5 * (CC + CC.T)).tocsr()

    def curl_sq(self, rows):
        """(C t_m, sum_m (C t_m)^T M_f (C t_m)) of Edge0 rows t_m, never below 0."""
        images = np.stack([self.curl @ r for r in rows])
        return images, max(float(np.vdot(images, [self.face_mass @ c for c in images])), 0.0)

    @cached_property
    def pinned_grad(self):
        """Gradient incidence on the potentials modulo constants.

        Without a tag-1 part the potentials are unconstrained and the
        constants lie in the kernel of grad; vertex 0 is pinned (its column
        dropped).  With one, this is grad itself.
        """
        return self.grad if self.p1_space.mesh.has_gamma_t else self.grad[:, 1:]

    @cached_property
    def poisson(self):
        """solve(rhs) for (Gp^T M Gp) u = rhs on the pinned potentials, factored once.

        Gp is pinned_grad; with rhs = grad_t @ (M v), Gp u is the gradient
        part of v.
        """
        Gp = self.pinned_grad
        return linalg.spd_solver((Gp.T @ (self.mass @ Gp)).tocsr())

    @cached_property
    def grad_t(self):
        """Gp^T as its own CSR matrix, built once for every Poisson right-hand side."""
        return self.pinned_grad.T.tocsr()


def edge_operators(mesh):
    edge_space = build_space(mesh, "Edge0", "gamma_t")
    p1 = build_space(mesh, "P1_scalar", "gamma_t")
    faces = build_space(mesh, "Face0")
    return EdgeOperators(
        edge_space,
        p1,
        assemble("mass", edge_space),
        assemble("mixed_grad", p1, edge_space),
        assemble("curl_map", edge_space, faces),
        assemble("mass", faces),
    )


@dataclass
class HarmonicBasis:
    """Harmonic fields, the operators of their search and the one curl-free basis W."""

    ops: EdgeOperators = field(repr=False)  # the search ran on these; users read them here
    fields: np.ndarray  # (L, free) mass-orthonormal rows
    # smallest pair of the same pencil above the kernel, from the same search:
    # the coexact Maxwell eigenpair, the only one maxwell_constant reads
    coexact: linalg.EigenResult = field(repr=False)

    @property
    def space(self):
        return self.ops.edge_space

    @property
    def dim(self):
        return len(self.fields)

    @cached_property
    def curl_free_basis(self):
        """W, the sparse map R = W y from a tensor split's coords y to Edge0^3.

        Columns: per tensor row the gradients of the pinned potentials
        (ops.pinned_grad), then the harmonic fields per row.  A constraint
        row c on Edge0^3 acts on y as c @ W.
        """
        blocks = (self.ops.pinned_grad, sp.csc_matrix(self.fields.T))
        return sp.hstack([sp.block_diag([B] * 3, format="csc") for B in blocks], format="csc")


def harmonic_basis(mesh, *, tol=linalg.DEFAULT_EIG_TOL):
    """Mass-orthonormal basis of the harmonic fields: one kernel count.

    The harmonic fields are the kernel of the curl-curl pencil in the
    mass-orthogonal complement of the pinned gradients.  Those span a
    kernel of curl-curl and are deflated: above the crossover the
    eigensolver factors curl-curl alone and projects them out after each
    solve (see linalg._eig_sparse).  The count is one linalg.eig_smallest
    call for k = beta + 1 pairs, beta the mesh's bound on the dimension
    (meshes.harmonic_bound): the pairs at or below HARMONIC_REL_TOL relative
    to tr(curlcurl) / tr(mass) are the kernel.  If all k are, which the
    bound rules out on a mesh that meshes.validate accepts,
    linalg.SolverError names beta and its terms instead of returning a
    count that may be short.  The vectors are mass-orthonormal and
    mass-orthogonal to the gradients: the first dim are the fields, and
    pair dim is the coexact Maxwell pair (.coexact).  The basis keeps the
    edge_operators of mesh as .ops; tol is the eigensolver tolerance.
    """
    ops = edge_operators(mesh)
    A, M = ops.curlcurl, ops.mass
    ratio = A.diagonal().sum() / max(M.diagonal().sum(), 1e-300)
    threshold = HARMONIC_REL_TOL * max(ratio, 1e-300)
    beta, b1, c_t, linked = meshes.harmonic_bound(mesh)
    eig = linalg.eig_smallest(A, M, k=beta + 1, deflation=ops.pinned_grad, tol=tol)
    dim = int(np.sum(eig.values <= threshold))
    if dim == len(eig.values):
        raise linalg.SolverError(
            f"all {dim} computed eigenvalues lie below the kernel threshold {threshold:.3e}: "
            f"the harmonic dimension exceeds its bound beta = {beta} (b1 = {b1}, {c_t} "
            f"tag-1 components, {linked} domain components touching them)")
    # coexact eigenvalue: |C x|^2_f / |x|^2_M, free of the formed CC's rounding
    x = eig.vectors[:, dim:dim + 1]
    lam = np.array([ops.curl_sq(x.T)[1] / float(x[:, 0] @ (M @ x[:, 0]))])
    return HarmonicBasis(ops, eig.vectors[:, :dim].T,
                         linalg.EigenResult(lam, x, linalg._residuals(A, M, lam, x)))


@dataclass
class HelmholtzSplit:
    grad_part: Field | TensorField  # every part of the input's kind
    harmonic_part: Field | TensorField
    coexact_part: Field | TensorField
    mass_images: np.ndarray = field(repr=False)  # M v_m of the rows v_m of the input
    # coordinates y of grad + harmonic: the pinned potentials of the rows,
    # then their harmonic amplitudes (HarmonicBasis.curl_free_basis)
    coords: np.ndarray = field(repr=False)
    source: Field | TensorField = field(repr=False)  # the field that was split
    mass: sp.csr_matrix = field(repr=False)

    def parts(self):
        return self.grad_part, self.harmonic_part, self.coexact_part

    @cached_property
    def residuals(self):
        """Relative mass-orthogonality defects of the three pairs of parts.

        Computed on first read: certification only uses the parts.
        """
        M = self.mass

        def mdot(a, b):
            return sum(float(x @ (M @ y)) for x, y in zip(a, b))

        grad, harm, coex = (_rows(p) for p in self.parts())
        nrm = {p: np.sqrt(max(mdot(x, x), 0.0)) for p, x in
               (("g", grad), ("h", harm), ("c", coex))}
        # pairs with a vanishing factor are orthogonal by convention; measure
        # against the input size so noise-level parts cannot inflate the ratio
        rows = _rows(self.source)
        floor = 1e-6 * max(np.sqrt(max(mdot(rows, rows), 0.0)), 1e-300)

        def rel(a, b, na, nb):
            return abs(mdot(a, b)) / max(max(na, floor) * max(nb, floor), 1e-300)

        return {
            "grad_harmonic": rel(grad, harm, nrm["g"], nrm["h"]),
            "grad_coexact": rel(grad, coex, nrm["g"], nrm["c"]),
            "harmonic_coexact": rel(harm, coex, nrm["h"], nrm["c"]),
        }


def _rows(v):
    """The rows of a Field (its coefficients) or of a TensorField."""
    return v.coeffs[None] if isinstance(v, Field) else v.rows


def helmholtz_split(v, *, harmonics=None):
    """Orthogonal split of each row of an Edge0 Field or TensorField into
    gradient + harmonic + coexact.

    The input may live in any Edge0 space of the mesh, constrained or not;
    the gradient and harmonic summands always carry the tag-1 condition,
    the coexact remainder absorbs everything else (Curl S = Curl T).
    harmonics is the harmonic_basis of the mesh, built here when not given.
    In another space than the basis's, the mass images are restricted to
    the basis space's free edges and the parts zero-extended back: the
    pinned gradients vanish on eliminated edges.  One Poisson solve takes
    every row; the sparse products take one row at a time, since scipy's
    products with several vectors are slower.
    """
    if not isinstance(v, (Field, TensorField)):
        raise TypeError("helmholtz_split expects a Field or a TensorField over Edge0")
    space, rows = v.space, _rows(v)
    harmonics = harmonics or harmonic_basis(space.mesh)
    ops, hf = harmonics.ops, harmonics.fields
    if space.mesh is not ops.edge_space.mesh or space.family != "Edge0":
        raise ValueError("a harmonic basis splits fields of an Edge0 space of its own mesh")
    mass, own = ops.mass, slice(None)
    if space is not ops.edge_space:  # where the basis space's free edges sit in space
        mass, own = assemble("mass", space), space.dof_map[0][ops.edge_space.dof_map[0] >= 0]
    MV = np.stack([mass @ r for r in rows])
    U = ops.poisson(np.column_stack([ops.grad_t @ mv[own] for mv in MV])).T
    amps = MV[:, own] @ hf.T
    grad, harm = np.zeros_like(rows), np.zeros_like(rows)
    grad[:, own], harm[:, own] = np.stack([ops.pinned_grad @ u for u in U]), amps @ hf
    parts = [Field(space, a[0]) if isinstance(v, Field) else TensorField(space, a)
             for a in (grad, harm, rows - grad - harm)]
    return HelmholtzSplit(*parts, MV, np.concatenate([*U, *amps]), v, mass)


def helmholtz_split_tensor(T, *, harmonics=None):
    """helmholtz_split of a TensorField, under the name certification calls."""
    return helmholtz_split(T, harmonics=harmonics)


# --------------------------------------------------------------------------
# averages and projections
# --------------------------------------------------------------------------


def _skew(A):
    return 0.5 * (A - np.swapaxes(A, -1, -2))


def slice_moments(space):
    """(labels, Q, volumes): the per-slice first moments of an Edge0 space.

    Q has three rows per slice of the mesh: Q[3 j + d] @ x is the integral
    over slice j of component d of the field with free coefficients x
    (exact: the basis is linear per cell, so the centroid value times the
    volume).  Built by _slice_moments and cached on the mesh per constraint
    of the space; every slice average and skew, and the skew-moment rows of
    c_direct, read it.
    """
    mesh = space.mesh
    key = f"_slice_moments_{space.constrain}"
    if key not in mesh.__dict__:
        mesh.__dict__[key] = _slice_moments(space)
    return mesh.__dict__[key]


def _slice_moments(space):
    mesh = space.mesh
    geom = geometry(mesh)
    labels, which = np.unique(mesh.slice_ids, return_inverse=True)
    nslices, nedges = len(labels), mesh.num_edges
    # edge basis at the cell centroids times the cell volume: (T,6,3)
    vals = geom.vols[:, None, None] * geom.edge_values(np.full((1, 4), 0.25))[:, 0]
    key = (which[:, None] * nedges + mesh.tet_edges).ravel()
    acc = np.stack([np.bincount(key, vals[..., d].ravel(), nslices * nedges)
                    for d in range(3)], axis=1).reshape(nslices, nedges, 3)
    free = space.dof_map[0]
    keep = free >= 0
    Q = np.zeros((nslices, 3, space.free_count))
    Q[:, :, free[keep]] = np.swapaxes(acc[:, keep], 1, 2)
    return labels, Q.reshape(3 * nslices, -1), np.bincount(which, geom.vols, nslices)


def _slice_sums(T):
    """(labels, sums, volumes): sums[j] (3,3) the integral of T over slice j."""
    if not isinstance(T, TensorField):
        raise TypeError("slice averages expect a TensorField over Edge0")
    labels, Q, volumes = slice_moments(T.space)
    sums = (Q @ T.rows.T).reshape(len(labels), 3, 3)  # [j, d, m]
    return labels, np.swapaxes(sums, 1, 2), volumes


def slice_means(T):
    """Per-slice volume averages of a TensorField: (labels, means, volumes),
    means[j] (3,3)."""
    labels, sums, volumes = _slice_sums(T)
    return labels, sums / volumes[:, None, None], volumes


def piecewise_skew(T):
    """Per-slice skew averages: (labels, skews) with skews[j] for slice j."""
    labels, means, _ = slice_means(T)
    return labels, _skew(means)


def project_so3(T):
    """Skew part of the volume average: the projection onto constant skews.

    The skew of the per-slice integrals summed over the slices and divided
    by the total volume: the global skew average K that certification
    subtracts, read off the cached slice moments.
    """
    _, sums, volumes = _slice_sums(T)
    return _skew(sums.sum(axis=0) / volumes.sum())


@dataclass
class RigidProjection:
    spin: np.ndarray  # constant skew 3x3
    mean_value: np.ndarray  # volume average of v
    offset: np.ndarray  # b = mean - spin @ centroid
    centroid: np.ndarray

    def rigid(self, pts):
        return pts @ self.spin.T + self.offset


def project_rigid(v):
    """Projection of a P1_vector Field onto infinitesimal rigid motions x -> S x + b.

    spin is the skew part of the mean gradient and offset matches the mean
    value, so grad(v - r) _|_ so(3) and (v - r) _|_ R^3 hold by construction.
    """
    if not (isinstance(v, Field) and v.space.family == "P1_vector"):
        raise TypeError("project_rigid expects a Field over P1_vector")
    mesh = v.space.mesh
    geom = geometry(mesh)
    vol = geom.vols.sum()
    u = v.space.full_from_free(v.coeffs)[:, mesh.tets]  # (3,T,4)
    mean_jac = np.tensordot(geom.vols, np.einsum("mti,tid->tmd", u, geom.grads),
                            axes=(0, 0)) / vol
    mean_val = geom.vols @ (np.einsum("mti->tm", u) / 4.0) / vol
    centroid = geom.vols @ mesh.vertices[mesh.tets].mean(axis=1) / vol
    spin = _skew(mean_jac)
    return RigidProjection(spin, mean_val, mean_val - spin @ centroid, centroid)
