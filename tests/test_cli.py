import csv
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kornlab import constants, hodge, meshes
from kornlab.cli import EXIT_ERROR, EXIT_INVALID, EXIT_OK, EXIT_USAGE, build_parser, run
from kornlab.meshes import generate_primitive, read_mesh, write_mesh
from kornlab.reports import dumps_json, emit_report, format_float

from helpers import sliver


def test_gen_writes_kornmesh(tmp_path):
    out = tmp_path / "cube2.msh"
    assert run(["gen", "--primitive", "unit_cube", "--n", "2", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith("kornmesh 1\n")
    mesh = read_mesh(out)
    assert mesh.num_tets == 48


def test_validate_ok_and_invalid(tmp_path):
    out = tmp_path / "m.msh"
    run(["gen", "--primitive", "slab_mixed", "--n", "1", "--out", str(out)])
    assert run(["validate", "--mesh", str(out)]) == EXIT_OK
    bad = tmp_path / "bad.msh"
    bad.write_text("not a mesh\n")
    assert run(["validate", "--mesh", str(bad)]) == EXIT_INVALID


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_vertex_is_invalid_input(tmp_path, capsys, value):
    path = tmp_path / "m.msh"
    run(["gen", "--primitive", "unit_cube", "--n", "1", "--out", str(path)])
    lines = path.read_text().splitlines()
    lines[3] = f"0 {value} 0"  # vertex 1
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["validate", "--mesh", str(path)]) == EXIT_INVALID
    assert run(["constants", "--mesh", str(path), "--out", str(tmp_path / "r.json")]) \
        == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("non-finite coordinates at vertices [1]") == 2


@pytest.mark.parametrize("vertices", ["vertices 0", "vertices 1\n0 0 0"],
                         ids=["no_vertex", "one_vertex"])
def test_mesh_without_cells_is_invalid(tmp_path, capsys, vertices):
    # the empty file once failed in numpy, the one-vertex file validated and
    # failed later in the constraint elimination
    path = tmp_path / "m.msh"
    path.write_text(f"kornmesh 1\n{vertices}\ntets 0\nbtris 0\n")
    assert run(["validate", "--mesh", str(path)]) == EXIT_INVALID
    assert run(["constants", "--mesh", str(path), "--out", str(tmp_path / "r.json")]) \
        == EXIT_INVALID
    assert capsys.readouterr().err.count("a mesh needs at least one tet") == 2


def test_mesh_file_advisories_reach_stderr(tmp_path, capsys):
    # a --mesh source prints validate's advisories; the report leaves them out
    path, out, ref = tmp_path / "sliver.msh", tmp_path / "r.json", tmp_path / "ref.json"
    write_mesh(sliver(1.7e-7), path)
    assert run(["constants", "--mesh", str(path), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}\n"
    (line,) = captured.err.splitlines()
    assert re.fullmatch(r"warning: cell \d+ has volume / \(longest edge\)\^3 = 3\.27e-08, "
                        r"below 1e-06: .*", line)
    report = constants.compute_report(read_mesh(path))
    report["deterministic"] = False
    emit_report(report, ref, "json")
    assert out.read_bytes() == ref.read_bytes()
    # the advisories are the ones of the tags in use, after --gamma-t
    tunnel = tmp_path / "tunnel.msh"
    write_mesh(generate_primitive("cube_with_tunnel", 1), tunnel)
    assert run(["harmonics", "--mesh", str(tunnel)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert run(["harmonics", "--mesh", str(tunnel), "--gamma-t", "faces y=0"]) == EXIT_OK
    assert capsys.readouterr().err == "warning: slice 1 does not touch the tag-1 boundary part\n"


def test_mesh_file_is_validated_once(tmp_path, monkeypatch):
    # the mesh keeps validate's advisories: one shape computation per mesh
    # source, and one more for the new mesh a --gamma-t selector builds
    path, out = tmp_path / "cube.msh", tmp_path / "r.json"
    write_mesh(generate_primitive("unit_cube", 2), path)
    shapes, real = [], meshes.shape_advisory
    monkeypatch.setattr(meshes, "shape_advisory", lambda mesh: shapes.append(mesh) or real(mesh))
    assert run(["constants", "--mesh", str(path), "--out", str(out)]) == EXIT_OK
    assert len(shapes) == 1
    assert run(["validate", "--mesh", str(path)]) == EXIT_OK
    assert len(shapes) == 2
    assert run(["constants", "--mesh", str(path), "--gamma-t", "none", "--out", str(out)]) \
        == EXIT_OK
    assert len(shapes) == 4 and shapes[3] is not shapes[2]

def test_constants_report_keys(tmp_path):
    out = tmp_path / "rep.json"
    code = run(
        ["constants", "--primitive", "unit_cube", "--n", "2", "--gamma-t", "all",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    for key in ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_m_grad",
                "c_m_coexact", "c_hat", "c_tilde", "c_direct", "harmonic_dim",
                "verdicts", "margins", "mesh", "tags"):
        assert key in rep


def _walk_floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _walk_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk_floats(v)


def test_constants_json_roundtrip_17_digits(tmp_path):
    out = tmp_path / "rep.json"
    run(["constants", "--primitive", "unit_cube", "--n", "2", "--gamma-t", "all",
         "--out", str(out)])
    rep = json.loads(out.read_text())
    # every float round-trips bit-exact through the 17-digit serializer
    floats = list(_walk_floats(rep))
    assert floats
    for v in floats:
        assert float(format_float(v)) == v
    rep2 = json.loads(dumps_json(rep))
    assert list(_walk_floats(rep2)) == floats


@pytest.mark.parametrize("mesh", [
    ["--primitive", "slab_mixed"],
    ["--primitive", "unit_cube", "--gamma-t", "none"],
    ["--primitive", "cube_with_tunnel"],
], ids=["tangential", "simply_connected", "sliced"])
def test_determinism_byte_identical(tmp_path, mesh):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["constants", *mesh, "--n", "2", "--deterministic", "--certify-samples", "3"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_certify_exit_zero(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certify", "--primitive", "slab_mixed", "--n", "2",
                "--samples", "5", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["verdicts"]["all_true"]


def test_certify_all_tagged_single_cell_cube(tmp_path):
    # every vertex carries tag 1, so the curl-free space is empty (c_k_irrot
    # is EmptySpace, 0) and the Korn link is vacuous: c_hat = c_m
    out = tmp_path / "cert.json"
    assert run(["certify", "--primitive", "unit_cube", "--n", "1",
                "--samples", "3", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["verdicts"]["all_true"]
    rep_path = tmp_path / "rep.json"
    assert run(["constants", "--primitive", "unit_cube", "--n", "1",
                "--out", str(rep_path)]) == EXIT_OK
    rep = json.loads(rep_path.read_text())
    assert rep["c_k_irrot"]["value"] == 0.0
    assert rep["c_hat"] == rep["c_m"]["value"]
    assert rep["c_direct"]["value"] <= rep["c_hat"]
    assert rep["orderings"]["direct_le_derived"]


def test_identities_csv(tmp_path):
    out = tmp_path / "idn.csv"
    code = run(["identities", "--fields", "2", "--alphas", "3", "--degree", "3",
                "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "check,value,threshold,status"
    assert all(ln.endswith(("pass", "n/a")) for ln in lines[1:])


def test_study_monotone_columns(tmp_path):
    out = tmp_path / "study.csv"
    code = run(["study", "--primitive", "unit_cube", "--gamma-t", "all",
                "--levels", "2,3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["level", "h", "c_p"]
    data = [ln.split(",") for ln in lines[1:] if not ln.startswith("summary")]
    cp = [float(r[2]) for r in data]
    cks = [float(r[3]) for r in data]
    hdim = [int(r[6]) for r in data]
    assert cp[0] < cp[1] < 1.0 / (np.pi * np.sqrt(3.0))
    assert all(v <= np.sqrt(2.0) + 1e-12 for v in cks)
    assert hdim == [0, 0]
    assert any(ln.startswith("summary_c_p,increasing") for ln in lines)


def test_study_on_nested_levels(tmp_path, capsys, monkeypatch):
    # each level a multiple of the one before: the Kuhn grids are nested and
    # c_p, c_k_s and c_m_grad can only grow; c_m_coexact keeps its label
    out = tmp_path / "study.csv"
    args = ["study", "--primitive", "slab_mixed", "--out", str(out)]
    assert run(args + ["--levels", "1,2,4"]) == EXIT_OK
    assert any(ln.startswith("summary_c_m_coexact,") for ln in out.read_text().splitlines())
    real = constants.Workspace.constant

    def falling(self, name):  # c_p, and c_m_grad with it, shrunk by the tet count
        rec = real(self, name)
        return replace(rec, value=rec.value / self.mesh.num_tets) if name == "c_p" else rec

    monkeypatch.setattr(constants.Workspace, "constant", falling)
    capsys.readouterr()
    assert run(args + ["--levels", "1,2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: GalerkinViolation: c_p fell from ") and "at n=2" in err
    # levels that are not nested keep the trend labels alone
    assert run(args + ["--levels", "2,3"]) == EXIT_OK
    assert "summary_c_p,decreasing" in out.read_text()


def test_gamma_t_faces_selector(tmp_path):
    out = tmp_path / "m.msh"
    run(["gen", "--primitive", "unit_cube", "--n", "2", "--gamma-t", "faces z=0",
         "--out", str(out)])
    mesh = read_mesh(out)
    slab = generate_primitive("slab_mixed", 2)
    assert np.array_equal(mesh.btri_tags, slab.btri_tags)


def test_gamma_t_file_selector(tmp_path):
    mesh = generate_primitive("unit_cube", 1)
    mpath = tmp_path / "m.msh"
    write_mesh(mesh, mpath)
    tfile = tmp_path / "tags.txt"
    tags = [1 if i % 2 == 0 else 0 for i in range(len(mesh.btris))]
    tfile.write_text("\n".join(map(str, tags)) + "\n")
    out = tmp_path / "rep.json"
    code = run(["constants", "--mesh", str(mpath), "--gamma-t", f"file {tfile}",
                "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["tags"]["gamma_t_tris"] == sum(tags)
    # a tag outside {0, 1} is invalid input, as in a mesh file
    tfile.write_text("2\n" * len(mesh.btris))
    code = run(["constants", "--mesh", str(mpath), "--gamma-t", f"file {tfile}",
                "--out", str(tmp_path / "bad.json")])
    assert code == EXIT_INVALID


def test_usage_errors(tmp_path, capsys):
    assert run(["bogus"]) == EXIT_USAGE
    assert run(["constants", "--unknown-flag"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    capsys.readouterr()
    # a level below 1, a non-integer level and a single level
    for levels in ("0,1", "a,1", "4"):
        assert run(["study", "--primitive", "unit_cube", "--levels", levels,
                    "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE
        assert "argument --levels:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sample_counts_out_of_range_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "r.json"
    for argv, flag in ((["certify", "--samples", "0"], "--samples"),
                       (["certify", "--samples", "-3"], "--samples"),
                       (["constants", "--certify-samples", "-2", "--out", str(out)],
                        "--certify-samples")):
        assert run(argv + ["--primitive", "unit_cube", "--n", "2"]) == EXIT_USAGE
        assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_subdivision_counts_below_one_are_usage_errors(tmp_path, capsys):
    for cmd in (["gen", "--out", str(tmp_path / "m.msh")],
                ["constants", "--out", str(tmp_path / "r.json")],
                ["harmonics"]):
        for n in ("0", "-2"):
            assert run(cmd + ["--primitive", "unit_cube", "--n", n]) == EXIT_USAGE
            assert "argument --n:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_nonpositive_weight_scale_is_rejected(tmp_path, capsys):
    # F = 0 * Id has determinant 0: rejected like a negative scale, not ignored
    out = tmp_path / "r.json"
    for scale in ("0", "-1"):
        assert run(["constants", "--primitive", "slab_mixed", "--n", "1",
                    "--weight-scale", scale, "--out", str(out)]) == EXIT_ERROR
        assert "coefficient determinant is" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_weight_scale_is_rejected(tmp_path, capsys):
    # rejected where the coefficient is evaluated, before any SVD
    out = tmp_path / "r.json"
    for scale in ("nan", "inf"):
        assert run(["constants", "--primitive", "slab_mixed", "--n", "1",
                    "--weight-scale", scale, "--out", str(out)]) == EXIT_ERROR
        assert f"coefficient has non-finite values ({scale})" in capsys.readouterr().err
    assert not out.exists()


_INTEGER_ARGS = {
    "--seed": {
        "constants": ["--primitive", "unit_cube", "--n", "1", "--out", "r.json"],
        "decompose": ["--primitive", "unit_cube", "--n", "1", "--out", "split.csv"],
        "certify": ["--primitive", "unit_cube", "--n", "1", "--out", "c.json"],
        "identities": ["--out", "ids.csv"],
    },
    "--fields": {"identities": ["--out", "ids.csv"]},
    "--alphas": {"identities": ["--out", "ids.csv"]},
    "--degree": {"identities": ["--out", "ids.csv"]},
}


@pytest.mark.parametrize("flag, command, value", [
    (flag, command, value)
    for flag, commands in _INTEGER_ARGS.items() for command in commands
    for value in (["-1", "x"] if flag == "--seed" else ["0", "-1", "x"])
])
def test_integer_arguments_out_of_range_are_usage_errors(flag, command, value, capsys,
                                                         monkeypatch, tmp_path):
    # a negative --degree or --fields would check nothing and pass
    monkeypatch.chdir(tmp_path)
    assert run([command, *_INTEGER_ARGS[flag][command], flag, value]) == EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_SOLVER_COMMANDS = {
    "constants": ["--primitive", "unit_cube", "--n", "1", "--out", "r.json"],
    "harmonics": ["--primitive", "unit_cube", "--n", "1"],
    "decompose": ["--primitive", "unit_cube", "--n", "1", "--out", "split.csv"],
    "certify": ["--primitive", "unit_cube", "--n", "1"],
    "study": ["--primitive", "unit_cube", "--levels", "1,2", "--out", "study.csv"],
}


@pytest.mark.parametrize("flag", ["--quad-order", "--deflation-tol"])
@pytest.mark.parametrize("command", sorted(_SOLVER_COMMANDS))
def test_removed_solver_flags_are_usage_errors(command, flag, capsys, monkeypatch,
                                               tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run([command, *_SOLVER_COMMANDS[command], flag, "4"]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1"])
@pytest.mark.parametrize("command", ["constants", "study"])
def test_tolerance_out_of_range_is_usage_error(command, tol, capsys, monkeypatch, tmp_path):
    # nan runs ARPACK to its iteration limit, inf switches the residual gate off
    monkeypatch.chdir(tmp_path)
    assert run([command, *_SOLVER_COMMANDS[command], "--tol", tol]) == EXIT_USAGE
    assert "argument --tol:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["constants", "study"])
def test_tolerance_zero_and_small_are_accepted(command, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for tol in ("0", "1e-10"):
        assert run([command, *_SOLVER_COMMANDS[command], "--tol", tol]) == EXIT_OK


def test_readme_cli_examples_parse():
    # the README names no command or flag the CLI does not accept
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("kornlab ")]
    assert len(examples) == 9
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: kornlab {shlex.join(argv)}")
    options = {flag for sub in parser._subparsers._group_actions[0].choices.values()
               for flag in sub._option_string_actions}
    named = set(re.findall(r"--[a-z][a-z-]*", section.replace(block, "")))
    assert named and named <= options, named - options


def test_missing_mesh_source_is_error(tmp_path):
    assert run(["constants", "--out", str(tmp_path / "r.json")]) == EXIT_ERROR


def test_decompose_csv(tmp_path):
    out = tmp_path / "split.csv"
    code = run(["decompose", "--primitive", "cube_with_tunnel", "--n", "1",
                "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "dof,input,gradient,harmonic,coexact"
    row = lines[1].split(",")
    total = float(row[2]) + float(row[3]) + float(row[4])
    assert total == pytest.approx(float(row[1]), rel=1e-10, abs=1e-12)


def test_solver_options_reach_the_solvers(tmp_path, monkeypatch):
    basis_calls, workspace_calls = [], []
    real_basis, real_workspace = hodge.harmonic_basis, constants.Workspace

    def basis_spy(*args, **kwargs):
        basis_calls.append(kwargs)
        return real_basis(*args, **kwargs)

    def workspace_spy(*args, **kwargs):
        workspace_calls.append(kwargs)
        return real_workspace(*args, **kwargs)

    monkeypatch.setattr(hodge, "harmonic_basis", basis_spy)
    monkeypatch.setattr(constants, "Workspace", workspace_spy)
    opts = ["--primitive", "unit_cube", "--tol", "1e-9"]
    for cmd in (["harmonics", "--n", "1"],
                ["decompose", "--n", "1", "--out", str(tmp_path / "split.csv")]):
        basis_calls.clear()
        assert run(cmd + opts) == EXIT_OK
        assert basis_calls == [dict(tol=1e-9)]
    basis_calls.clear()
    assert run(["study", "--levels", "1,2", "--out", str(tmp_path / "study.csv")]
               + opts) == EXIT_OK
    assert workspace_calls == [dict(tol=1e-9)] * 2
    assert basis_calls == [dict(tol=1e-9)] * 2


def test_harmonics_command(tmp_path, capsys):
    code = run(["harmonics", "--primitive", "cube_with_tunnel", "--n", "1"])
    assert code == EXIT_OK
    assert "harmonic dimension: 1" in capsys.readouterr().out


def test_emit_report_formats(tmp_path):
    rep = {"a": 1.5, "b": {"c": [1, 2.25]}, "d": None, "e": True, "f": "x"}
    jpath = tmp_path / "r.json"
    emit_report(rep, jpath, "json")
    assert json.loads(jpath.read_text()) == {
        "a": 1.5, "b": {"c": [1, 2.25]}, "d": None, "e": True, "f": "x"
    }
    cpath = tmp_path / "r.csv"
    emit_report(rep, cpath, "csv")
    lines = cpath.read_text().splitlines()
    assert lines[0] == "key,value"
    assert "b.c.1,2.25" in lines
    with pytest.raises(ValueError):
        emit_report(rep, tmp_path / "r.x", "xml")


def test_empty_report_valid_json(tmp_path):
    path = tmp_path / "empty.json"
    emit_report({}, path, "json")
    assert json.loads(path.read_text()) == {}


def test_csv_cells_with_commas_and_quotes_keep_their_column(tmp_path):
    note = 'equal to c_k_irrot, "carried"'
    path = tmp_path / "r.csv"
    emit_report({"c_k_s": {"value": 1.5, "note": note}, "nan": float("nan")}, path, "csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 2 for row in rows)
    assert rows == [["key", "value"], ["c_k_s.value", "1.5"], ["c_k_s.note", note],
                    ["nan", "nan"]]
    assert path.read_text().splitlines()[1] == "c_k_s.value,1.5"
