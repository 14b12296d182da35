"""Bit-identity of the mesh tables, boundary components and dof maps.

The digests in ``topology_digests.json`` pin every derived ``Mesh`` table,
``boundary_components`` for both tags and the ``dof_map`` of every space
family on a fixed set of meshes, so a rewrite of the topology code cannot
renumber an edge, a face, a component or a dof unnoticed.  Running this
file as a script prints the digests of the current code in the same
format::

    PYTHONPATH=src python tests/test_topology_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kornlab.meshes import boundary_components, generate_primitive, refine_uniform
from kornlab.spaces import build_space

DIGESTS = Path(__file__).with_name("topology_digests.json")

SPACES = [
    ("P1_scalar", None, False),
    ("P1_scalar", "gamma_t", False),
    ("P1_vector", None, False),
    ("P1_vector", "gamma_t", False),
    ("P1_vector", "gamma_t", True),
    ("Edge0", None, False),
    ("Edge0", "gamma_t", False),
    ("Face0", None, False),
]


def _meshes():
    out = {}
    for kind in ("unit_cube", "slab_mixed", "cube_with_tunnel"):
        for n in (1, 2, 3):
            m = generate_primitive(kind, n)
            out[f"{kind}-{n}"] = m
            out[f"{kind}-{n}-retag0"] = m.retag(0)
            out[f"{kind}-{n}-swap"] = m.swap_tags()
    for kind in ("unit_cube", "cube_with_tunnel"):
        out[f"{kind}-1-refined"] = refine_uniform(generate_primitive(kind, 1))
    # several tag-1 components, and two patches that touch at one vertex
    c = generate_primitive("cube_with_tunnel", 2)
    z = c.vertices[c.btris][:, :, 2]
    out["cube_with_tunnel-2-top-bottom"] = c.retag(np.all(z == 0, 1) | np.all(z == 1, 1))
    q = generate_primitive("unit_cube", 2)
    x, y, z = np.moveaxis(q.vertices[q.btris], 2, 0)
    low, high = np.all((y <= 0.5) & (z <= 0.5), 1), np.all((y >= 0.5) & (z >= 0.5), 1)
    out["unit_cube-2-quadrants"] = q.retag(np.all(x == 0, axis=1) & (low | high))
    return out


def _digest(arr):
    arr = np.ascontiguousarray(arr, dtype="<i8")
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def digests(mesh):
    out = {
        name: _digest(getattr(mesh, name))
        for name in ("edges", "faces", "tet_edges", "tet_faces", "btri_face")
    }
    for tag in (0, 1):
        comp, count = boundary_components(mesh, tag)
        out[f"components{tag}"] = _digest(np.append(comp, count))
    for family, constrain, folded in SPACES:
        if folded and not mesh.has_gamma_t:
            continue
        space = build_space(mesh, family, constrain, component_constant=folded)
        key = f"{family}/{constrain}" + ("/folded" if folded else "")
        out[key] = _digest(np.append(space.dof_map.ravel(), space.free_count))
    return out


_RECORDED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@pytest.fixture(scope="module")
def mesh_set():
    return _meshes()


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_topology_digests_unchanged(mesh_set, name):
    assert digests(mesh_set[name]) == _RECORDED[name]


def test_digest_set_covers_every_mesh(mesh_set):
    assert sorted(_RECORDED) == sorted(mesh_set)


if __name__ == "__main__":
    print(json.dumps({k: digests(m) for k, m in _meshes().items()}, indent=1,
                     sort_keys=True))
