"""Reference constants from eigensolvers that share no code with kornlab.linalg.

A reference is kornlab's own constant function run with
`linalg.eig_smallest` and `linalg.null_space_gen` swapped for the solvers
below: the pencils (the definition of each constant) come from kornlab's
assembly, every eigenvalue from here.

* `dense`: LAPACK `eigh` on the constrained pencil, with the admissible
  subspace spanned by a full QR of the constraint rows.  Used wherever the
  dense matrices fit in memory (dimension <= DENSE_MAX).
* `arpack`: ARPACK shift-invert (`eigsh`) through the saddle-point operator
  [[A - sigma B, C^T], [C, 0]]^-1, which is B-self-adjoint on the admissible
  subspace for any constraint rows C.  Used above DENSE_MAX and
  cross-checked against `dense` on smaller pencils of the same kind.

Regenerate `refs.json` (a few minutes, ~1.5 GB peak) with

    python3 perfbench/oracle.py
"""

import contextlib
import json
import os
import sys
import types

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_MAX = 5000
RANK_TOL = 1e-12
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def _result(values, vectors):
    """The fields of kornlab's EigenResult that its callers read."""
    return types.SimpleNamespace(values=values, vectors=vectors,
                                 residuals=np.zeros(len(values)))


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.atleast_2d(np.asarray(M, float))


def constraint_rows(B, deflation, constraints):
    """Rows whose kernel is the admissible subspace.

    A deflation vector d is removed B-orthogonally (row B d) unless it lies
    in ker B, where it is removed plainly (row d): the quotient that
    kornlab's eig_smallest documents.
    """
    rows = []
    if deflation is not None:
        D = _dense(deflation)
        if D.shape[0] != B.shape[0]:
            D = D.T
        for d in D.T:
            bd = B @ d
            in_ker = np.linalg.norm(bd) <= 1e-12 * max(np.linalg.norm(d), 1.0)
            rows.append(d if in_ker else bd)
    if constraints is not None:
        rows.extend(_dense(constraints))
    return np.vstack(rows) if rows else None


def _admissible_basis(C):
    if C is None:
        return None
    Q, R = sla.qr(C.T, mode="full")
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > RANK_TOL * max(diag.max(initial=0.0), 1e-300)))
    return Q[:, rank:]


def dense_pencil(A, B, deflation=None, constraints=None):
    """All eigenpairs of the constrained pencil (values ascending)."""
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    U = _admissible_basis(constraint_rows(B, deflation, constraints))
    Ad, Bd = A.toarray(), B.toarray()
    if U is not None:
        Ad, Bd = U.T @ (Ad @ U), U.T @ (Bd @ U)
    w, V = sla.eigh(0.5 * (Ad + Ad.T), 0.5 * (Bd + Bd.T))
    return w, (V if U is None else U @ V)


def arpack_pencil(A, B, k, deflation=None, constraints=None):
    """k smallest eigenpairs by shift-invert ARPACK on the saddle-point operator."""
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    n = A.shape[0]
    C = constraint_rows(B, deflation, constraints)
    scale = A.diagonal().sum() / B.diagonal().sum()
    sigma = -1e-3 * scale
    K = (A - sigma * B).tocsc()
    if C is not None:
        Cs = sp.csr_matrix(C)
        K = sp.bmat([[K, Cs.T], [Cs, None]], format="csc")
    lu = spla.splu(K)

    def solve(x):
        rhs = np.zeros(K.shape[0])
        rhs[:n] = np.ravel(x)
        return lu.solve(rhs)[:n]

    op = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(7).standard_normal(n)
    w, V = spla.eigsh(A, k=k, M=B, sigma=sigma, which="LM", OPinv=op, v0=v0,
                      ncv=min(n - 1, max(4 * k, 40)), tol=0.0, maxiter=100000)
    order = np.argsort(w)
    return w[order], V[:, order]


class Substitute:
    """Swaps kornlab.linalg's eigensolvers for the oracle while active."""

    def __init__(self, linalg):
        self.linalg = linalg
        self.methods = []

    def eig_smallest(self, A, B, k=1, deflation=None, constraints=None, tol=None):
        n = A.shape[0]
        if n <= DENSE_MAX:
            w, V = dense_pencil(A, B, deflation, constraints)
            self.methods.append("dense")
            return _result(w[:k], V[:, :k])
        w, V = arpack_pencil(A, B, k, deflation, constraints)
        self.methods.append("arpack")
        return _result(w, V)

    def null_space_gen(self, A, B, rel_tol=1e-8, constraints=None):
        w, V = dense_pencil(A, B, constraints=constraints)
        self.methods.append("dense")
        keep = w <= rel_tol * max(w.max(), 1e-300)
        return V[:, keep]

    @contextlib.contextmanager
    def active(self):
        saved = self.linalg.eig_smallest, self.linalg.null_space_gen
        self.linalg.eig_smallest = self.eig_smallest
        self.linalg.null_space_gen = self.null_space_gen
        try:
            yield self
        finally:
            self.linalg.eig_smallest, self.linalg.null_space_gen = saved


def reference_values(label, mesh, names, constants, linalg):
    """{constant: {value, method}} for one mesh, in compute_report's order."""
    sub = Substitute(linalg)
    out = {}
    with sub.active():
        ws = constants.Workspace(mesh)
        for name in names:
            start = len(sub.methods)
            ws.constant(name)
            group = ("c_m", "c_m_grad", "c_m_coexact") if name == "c_m" else (name,)
            used = sorted(set(sub.methods[start:])) or ["none"]
            for key in group:
                out[key] = {"value": float(ws.constant(key).value),
                            "method": "+".join(used)}
            print(f"  {label} {name}: {out[name]['value']!r} ({out[name]['method']})",
                  file=sys.stderr)
    return out


class _Captured(Exception):
    pass


def cross_check(mesh, constants, linalg):
    """c_direct eigenvalue on one pencil by both oracles: (dense, arpack, rel diff)."""
    captured = {}

    def capture(A, B, k=1, deflation=None, constraints=None, tol=None):
        captured.update(A=A, B=B, deflation=deflation, constraints=constraints)
        raise _Captured

    saved = linalg.eig_smallest
    linalg.eig_smallest = capture
    try:
        constants.direct_main_constant(mesh)
    except _Captured:
        pass
    finally:
        linalg.eig_smallest = saved
    d = dense_pencil(captured["A"], captured["B"], captured["deflation"],
                     captured["constraints"])[0][0]
    a = arpack_pencil(captured["A"], captured["B"], 2, captured["deflation"],
                      captured["constraints"])[0][0]
    return float(d), float(a), float(abs(d - a) / abs(d))


def main():
    import workloads

    kl = workloads.Kornlab()
    refs = {"tolerance": workloads.REL_TOL, "meshes": {}, "cross_checks": {}}
    for label in workloads.all_mesh_labels():
        mesh = workloads.make_mesh(kl, label)
        names = workloads.constants_for(kl, mesh)
        print(f"{label}: {names}", file=sys.stderr)
        refs["meshes"][label] = reference_values(
            label, mesh, names, kl.constants, kl.linalg)
    for label in ("cube_with_tunnel/n2", "unit_cube/n6"):
        d, a, rel = cross_check(workloads.make_mesh(kl, label), kl.constants, kl.linalg)
        refs["cross_checks"][label + "/c_direct"] = {
            "dense_lambda": d, "arpack_lambda": a, "rel_diff": rel}
        print(f"cross-check {label}: dense {d!r} arpack {a!r} rel {rel:.2e}",
              file=sys.stderr)
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
