"""Values that no caller varies are module constants, not parameters (see
test_newton_batch and test_batch for tests that patch them): the public
functions that read them take only these parameters."""

import inspect

import pytest

import rayspace as rs

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
