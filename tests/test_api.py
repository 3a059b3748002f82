"""The shape of the public API.  Values that no caller varies are module
constants, not parameters (see test_newton_batch and test_batch for tests
that patch them): the public functions that read them take only these
parameters.  Objects with array fields, and the objects that hold them,
compare and hash by identity."""

import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

import rayspace as rs
from rayspace.scene import load_scene
from rayspace.surfaces import _ChartStack

PARAMETERS = {
    rs.reconstruct_wavefront: ["family", "k0", "c", "grid", "h", "path_tol"],
    rs.one_form_integral: ["family", "ka", "kb", "tol"],
    rs.characteristic_function: ["m1", "m2", "system", "initial"],
    rs.intersect: ["line", "surface", "t_min"],
    rs.stationarity_residual: ["pc"],
}


@pytest.mark.parametrize("function", list(PARAMETERS), ids=lambda f: f.__name__)
def test_parameters(function):
    assert list(inspect.signature(function).parameters) == PARAMETERS[function]


SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

# the classes with ndarray fields, and the classes that hold them: their
# objects compare and hash by identity
IDENTITY = [
    rs.Plane, rs.Sphere, rs.Quadric, rs.Sinusoid, rs.Intersection, rs.Interface, rs.OpticalSystem,
    rs.TraceResult, rs.Scene, rs.DefectGrid, rs.Wavefront, rs.PathConfiguration, rs.MirrorDesign,
    _ChartStack,
]


class TestIdentityEquality:
    @pytest.mark.parametrize("cls", IDENTITY, ids=lambda cls: cls.__name__)
    def test_eq_and_hash_are_object_identity(self, cls):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__

    def test_equal_spheres_are_two_objects(self):
        c = np.array([0.0, 0.0, 1.0])
        a, b = rs.Sphere(c, 1.0), rs.Sphere(c.copy(), 1.0)
        assert a == a and a != b
        assert hash(a) == hash(a) and {a, b, a} == {a, b} and len({a, b}) == 2

    def test_two_loads_of_one_file(self):
        a, b = (load_scene(SCENES / "mixed_device.scene") for _ in range(2))
        assert a != b and {a: 1, b: 2}[a] == 1
        assert a.system != b.system and a.system.interfaces[0] != b.system.interfaces[0]
        assert [x != y for x, y in zip(a.surfaces.values(), b.surfaces.values())] == [True] * 4
        # a scene is its own, and replace gives another scene
        assert a == a and dataclasses.replace(a, options={}) != a

    def test_equal_interfaces(self):
        plane = rs.Plane([0.0, 0.0, 1.0])
        a, b = rs.Interface(plane, rs.REFLECT, 1.0), rs.Interface(plane, rs.REFLECT, 1.0)
        assert a != b and len({a, b}) == 2

    def test_ray_families_compare_their_fields(self):
        family = rs.point_source([0, 0, 1], [0, 0, -1])
        assert family == dataclasses.replace(family) and hash(family) == hash(dataclasses.replace(family))
