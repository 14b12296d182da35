"""Command-line front end.

Subcommands: gen, validate, constants, harmonics, decompose, certify,
identities, study.  Exit codes: 0 success, 1 computational error,
2 validation failure, 64 usage error.  All computations are
deterministic, so repeated runs emit byte-identical reports; the
--deterministic flag is recorded in the report.
"""

import argparse
import math
import sys

import numpy as np

from . import constants as consts
from . import hodge, identities, meshes, reports
from .assemble import identity_coefficient
from .polynomials import PolyField
from .spaces import Field

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _count(minimum):
    """argparse type: an integer of at least minimum (a usage error otherwise)."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _tolerance(text):
    """argparse type: a finite eigensolver tolerance in [0, 1) (a usage error otherwise)."""
    value = float(text)
    if not (math.isfinite(value) and 0.0 <= value < 1.0):
        raise argparse.ArgumentTypeError(f"must be finite and in [0, 1), got {text}")
    return value


def _levels(text):
    """argparse type: at least two comma-separated subdivision counts."""
    levels = [_count(1)(x) for x in text.split(",") if x.strip()]
    if len(levels) < 2:
        raise argparse.ArgumentTypeError("a study needs at least two refinement levels")
    return levels


def _add_mesh_source(p):
    p.add_argument("--mesh", help="kornmesh file")
    p.add_argument("--primitive", choices=["unit_cube", "slab_mixed", "cube_with_tunnel"])
    p.add_argument("--n", type=_count(1), default=1, help="subdivision count")
    p.add_argument(
        "--gamma-t",
        default=None,
        help="tag selector: all | none | faces x=0,z=1 | file PATH",
    )


def _add_solver_opts(p):
    p.add_argument("--tol", type=_tolerance, default=consts.DEFAULT_EIG_TOL)
    p.add_argument("--deterministic", action="store_true")


def build_parser():
    parser = _Parser(prog="kornlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a primitive mesh")
    p.add_argument("--primitive", required=True,
                   choices=["unit_cube", "slab_mixed", "cube_with_tunnel"])
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--gamma-t", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="validate a mesh file")
    p.add_argument("--mesh", required=True)

    p = sub.add_parser("constants", help="compute the constants report")
    _add_mesh_source(p)
    _add_solver_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--certify-samples", type=_count(0), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-scale", type=float, default=None,
                   help="also compute the weighted constant with F = scale * Id")

    p = sub.add_parser("harmonics", help="harmonic field basis and dimension")
    _add_mesh_source(p)
    _add_solver_opts(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("decompose", help="split a random edge field")
    _add_mesh_source(p)
    _add_solver_opts(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("certify", help="certify the main estimate on random fields")
    _add_mesh_source(p)
    _add_solver_opts(p)
    p.add_argument("--samples", type=_count(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("identities", help="verify the integral identity suite")
    p.add_argument("--fields", type=int, default=20)
    p.add_argument("--alphas", type=int, default=7)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")

    p = sub.add_parser("study", help="refinement study table")
    p.add_argument("--primitive", required=True,
                   choices=["unit_cube", "slab_mixed", "cube_with_tunnel"])
    p.add_argument("--levels", type=_levels, default="1,2,4",
                   help="comma-separated subdivisions")
    p.add_argument("--gamma-t", default=None)
    _add_solver_opts(p)
    p.add_argument("--out", required=True)
    return parser


def _apply_selector(mesh, selector):
    if selector is None:
        return mesh
    head, _, rest = selector.partition(" ")
    if head == "all":
        return mesh.retag(1)
    if head == "none":
        return mesh.retag(0)
    if head == "faces":
        spec = rest or ""
        planes = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            axis, _, value = item.partition("=")
            idx = {"x": 0, "y": 1, "z": 2, "1": 0, "2": 1, "3": 2}.get(axis.strip())
            if idx is None or not value:
                raise ValueError(f"bad faces selector item {item!r}")
            planes.append((idx, float(value)))
        if not planes:
            raise ValueError("faces selector needs axis=value items")
        coords = mesh.vertices[mesh.btris]  # (K,3,3)
        tags = np.zeros(len(mesh.btris), dtype=np.int64)
        for idx, value in planes:
            on = np.all(np.abs(coords[:, :, idx] - value) < 1e-12, axis=1)
            tags[on] = 1
        return mesh.retag(tags)
    if head == "file":
        with open(rest) as fh:
            tags = np.array([int(ln) for ln in fh if ln.strip()], dtype=np.int64)
        if len(tags) != len(mesh.btris):
            raise ValueError(
                f"tag file has {len(tags)} rows, mesh has {len(mesh.btris)} boundary tris"
            )
        if np.any((tags != 0) & (tags != 1)):
            raise meshes.InvalidMesh("boundary tags must be 0 or 1")
        return mesh.retag(tags)
    raise ValueError(f"unknown tag selector {selector!r}")


def _load_mesh(args):
    if getattr(args, "mesh", None) and getattr(args, "primitive", None):
        raise ValueError("give either --mesh or --primitive, not both")
    if getattr(args, "mesh", None):
        mesh = meshes.read_mesh(args.mesh)
    elif getattr(args, "primitive", None):
        mesh = meshes.generate_primitive(args.primitive, args.n)
    else:
        raise ValueError("one mesh source required (--mesh or --primitive)")
    return _apply_selector(mesh, getattr(args, "gamma_t", None))


def _cmd_gen(args):
    mesh = meshes.generate_primitive(args.primitive, args.n)
    mesh = _apply_selector(mesh, args.gamma_t)
    meshes.write_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_vertices} vertices, {mesh.num_tets} tets")
    return EXIT_OK


def _cmd_validate(args):
    try:
        mesh = meshes.read_mesh(args.mesh)
        warnings = meshes.validate(mesh)
    except meshes.MeshError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    for w in warnings:
        print(f"warning: {w}")
    print(
        f"ok: {mesh.num_vertices} vertices, {mesh.num_tets} tets, "
        f"{len(mesh.btris)} boundary tris"
    )
    return EXIT_OK


def _cmd_constants(args):
    mesh = _load_mesh(args)
    weight = (
        identity_coefficient(args.weight_scale) if args.weight_scale is not None else None
    )
    report = consts.compute_report(
        mesh,
        tol=args.tol,
        weight=weight,
        certify_samples=args.certify_samples,
        seed=args.seed,
    )
    report["deterministic"] = bool(args.deterministic)
    reports.emit_report(report, args.out, args.format)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_harmonics(args):
    mesh = _load_mesh(args)
    ops = hodge.edge_operators(mesh)
    basis = hodge.harmonic_basis(mesh, ops, tol=args.tol)
    M = ops.mass
    gram = basis.fields @ (M @ basis.fields.T) if basis.dim else np.zeros((0, 0))
    ortho = float(np.abs(gram - np.eye(basis.dim)).max()) if basis.dim else 0.0
    print(f"harmonic dimension: {basis.dim} (mass-orthonormality residual {ortho:.2e})")
    if args.out:
        rows = [
            (ell, i, basis.fields[ell, i])
            for ell in range(basis.dim)
            for i in range(basis.fields.shape[1])
        ]
        reports.write_csv(args.out, ("field", "dof", "value"), rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_decompose(args):
    mesh = _load_mesh(args)
    ops = hodge.edge_operators(mesh)
    basis = hodge.harmonic_basis(mesh, ops, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    v = Field(ops.edge_space, rng.standard_normal(ops.edge_space.free_count))
    split = hodge.helmholtz_split(v, basis, ops)
    rows = [
        (i, v.coeffs[i], split.grad_part.coeffs[i], split.harmonic_part.coeffs[i],
         split.coexact_part.coeffs[i])
        for i in range(ops.edge_space.free_count)
    ]
    reports.write_csv(
        args.out, ("dof", "input", "gradient", "harmonic", "coexact"), rows
    )
    worst = max(split.residuals.values())
    print(f"wrote {args.out} (orthogonality residual {worst:.2e})")
    return EXIT_OK


def _cmd_certify(args):
    mesh = _load_mesh(args)
    report = consts.compute_report(
        mesh, tol=args.tol, certify_samples=args.samples, seed=args.seed
    )
    report["deterministic"] = bool(args.deterministic)
    verdicts = report["verdicts"]
    if args.out:
        reports.emit_report(report, args.out, "json")
    print(
        f"certified {verdicts['certified_samples']}/{verdicts['samples']} samples "
        f"({report['tags']['case']} case)"
    )
    return EXIT_OK if verdicts["all_true"] else EXIT_ERROR


def _cmd_identities(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True

    def add(check, value, threshold):
        nonlocal ok
        passed = value <= threshold
        ok = ok and passed
        rows.append((check, value, threshold, "pass" if passed else "FAIL"))

    for i in range(args.fields):
        v = PolyField.random(rng, args.degree, bubble_flag=True)
        r = identities.verify_symgrad_identity(v)
        add(f"symgrad_grad_div_{i}", r["residual_grad_div"], 1e-12)
        add(f"symgrad_curl_div_{i}", r["residual_curl_div"], 1e-12)
    alphas = np.linspace(-2.0, 2.0, args.alphas)
    w = PolyField.random(rng, args.degree)
    wb = PolyField.random(rng, args.degree, bubble_flag=True)
    for a in alphas:
        r = identities.verify_dev_identity(w, float(a))
        add(f"dev_identity_alpha_{a:+.3f}", r["residual"], 1e-12)
        for field, label in ((w, "h1"), (wb, "h10")):
            for est in identities.verify_estimate_suite(field, float(a)):
                if not est.applicable:
                    rows.append(
                        (f"estimate_{label}_{est.estimate_id}_a{a:+.3f}", "", "", "n/a")
                    )
                    continue
                scale = max(abs(est.rhs), 1e-300)
                add(
                    f"estimate_{label}_{est.estimate_id}_a{a:+.3f}",
                    (est.lhs - est.rhs) / scale,
                    1e-12,
                )
    u = PolyField.random(rng, args.degree, ncomp=1)
    es = identities.embed_skew_scalar(u[0])
    add("embed_scalar_norm", es["norm_residual"], 1e-13)
    add("embed_scalar_curl", es["curl_residual"], 1e-13)
    ev = identities.embed_skew_vector(PolyField.random(rng, args.degree))
    add("embed_vector_reconstruction", ev["reconstruction_residual"], 1e-12)
    pr = identities.verify_projection_orthogonality(PolyField.random(rng, 3))
    add("projection_r3", pr["pairing_residual_r3"], 1e-12)
    add("projection_so3", pr["pairing_residual_so3"], 1e-12)
    reports.write_csv(args.out, ("check", "value", "threshold", "status"), rows)
    print(f"wrote {args.out}: {len(rows)} checks, {'all pass' if ok else 'FAILURES'}")
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_study(args):
    header = (
        "level", "h", "c_p", "c_k_s", "c_m_grad", "c_m_coexact", "harmonic_dim"
    )
    rows = []
    for n in args.levels:
        mesh = meshes.generate_primitive(args.primitive, n)
        mesh = _apply_selector(mesh, args.gamma_t)
        ws = consts.Workspace(mesh, tol=args.tol)
        rows.append(
            (
                n,
                1.0 / n,
                ws.constant("c_p").value,
                ws.constant("c_k_s").value,
                ws.constant("c_m_grad").value,
                ws.constant("c_m_coexact").value,
                ws.harmonics.dim,
            )
        )
    summary = []
    for col, name in ((2, "c_p"), (3, "c_k_s"), (4, "c_m_grad"), (5, "c_m_coexact")):
        vals = [r[col] for r in rows]
        trend = (
            "increasing"
            if all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            else ("decreasing" if all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
                  else "mixed")
        )
        summary.append((f"summary_{name}", trend, "", "", "", "", ""))
    reports.write_csv(args.out, header, rows + summary)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "constants": _cmd_constants,
    "harmonics": _cmd_harmonics,
    "decompose": _cmd_decompose,
    "certify": _cmd_certify,
    "identities": _cmd_identities,
    "study": _cmd_study,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except meshes.MeshError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, consts.KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # computational failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
