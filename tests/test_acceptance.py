"""Acceptance gate: one test per published claim, at the stated tolerances.

Each test prints a single `criterion N: PASS/FAIL (...)` line with the
measured numbers before asserting, so a failing run still reports every
criterion it reached.
"""

import time

import numpy as np
import pytest

import rayspace as rs
from rayspace.cli import main
from rayspace.errors import NoRootError, TotalInternalReflectionError

from helpers import (
    aimed_line,
    device_source,
    ellipsoid_oracle_point,
    make_device,
    nested_sphere_system,
    paraboloid_oracle_point,
    random_surface,
    unit,
)

KINDS = ("plane", "sphere", "quadric", "sinusoid")


def report(n, ok, details):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, details


def jacobian_residual(rng, kind, n1=None, n2=None):
    surface = random_surface(rng, kind)
    line, hit, t0 = aimed_line(rng, surface)
    if n1 is None:
        def xform(l):
            return rs.reflect_line(l, surface, t_min=t0)[0]
        scale = 1.0
    else:
        sin_in = float(np.sqrt(max(0.0, 1.0 - hit.cos_incidence**2)))
        if sin_in >= n2 / n1:
            with pytest.raises(TotalInternalReflectionError):
                rs.refract_line(line, surface, n1, n2, t_min=t0)
            return "tir"
        if sin_in > n2 / n1 - 0.02:
            return "skip"  # too close to critical for stable differencing

        def xform(l):
            return rs.refract_line(l, surface, n1, n2, t_min=t0)[0]
        scale = n1 / n2
    jac, _, _ = rs.chart_jacobian(xform, line)
    return rs.symplectic_residual(jac, scale=scale)


def test_criterion_1_reflection_symplecticity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for i in range(200):
        res = jacobian_residual(rng, KINDS[i % 4])
        worst = max(worst, res)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    report(1, ok, f"200 reflections, worst |J^T O J - O| = {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_refraction_scaled_symplecticity():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    pairs = ((1.0, 1.5), (1.5, 1.0), (1.0, 2.4))
    worst = 0.0
    checked = 0
    tir_rejections = 0
    for i in range(200):
        n1, n2 = pairs[i % 3]
        res = jacobian_residual(rng, KINDS[i % 4], n1, n2)
        if res == "tir":
            tir_rejections += 1
            continue
        if res == "skip":
            continue
        worst = max(worst, res)
        checked += 1
    # deterministic sweep across the critical angle for 1.5 -> 1.0
    for s in (0.66, 0.666):
        u = np.array([s, 0.0, -np.sqrt(1 - s * s)])
        rs.refract_direction(u, [0, 0, 1], 1.5, 1.0)
    for s in (0.667, 0.67):
        u = np.array([s, 0.0, -np.sqrt(1 - s * s)])
        with pytest.raises(TotalInternalReflectionError):
            rs.refract_direction(u, [0, 0, 1], 1.5, 1.0)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and checked >= 100 and tir_rejections > 0 and elapsed < 10.0
    report(
        2,
        ok,
        f"{checked} refractions, worst residual = {worst:.3e}, "
        f"{tir_rejections} TIR rejections, {elapsed:.2f} s",
    )


def test_criterion_3_rectangularity_through_device():
    started = time.perf_counter()
    device = make_device()
    worst = {}
    for name, family in (
        ("point_source", device_source()),
        (
            "normal_congruence",
            rs.normal_congruence(
                rs.Sphere([0, 0, 5], 0.5),
                ((-0.12, 0.12), (-0.12, 0.12)),
                axis=[0, 0, -1],
            ),
        ),
    ):
        out = rs.transform_family(family, device)
        grid = rs.defect_grid(out, grid=21)
        worst[name] = grid.max_abs
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) < 1e-5 and elapsed < 30.0
    report(
        3,
        ok,
        "21x21 max |defect|: "
        + ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
        + f", {elapsed:.2f} s",
    )


def test_criterion_4_two_skew_lines_negative_control():
    family = rs.two_skew_lines([1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 0])
    measured = rs.defect(family, (0.0, 0.0))
    # joining (s,0,0) to (0,t,1) gives defect s t / (s^2+t^2+1)^(3/2) by hand;
    # the domain center sits at s = t = 1
    oracle = 1.0 / (3.0 * np.sqrt(3.0))
    rel = abs(measured - oracle) / oracle
    ok = abs(measured) > 0.1 and rel < 5e-4
    report(4, ok, f"defect = {measured:.9f}, oracle {oracle:.9f}, rel err {rel:.2e}")


def test_criterion_5_wavefront_reconstruction():
    apex = np.array([0.0, 0.0, 5.0])
    fam = rs.point_source(apex, [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
    wf = rs.reconstruct_wavefront(fam, k0=(0, 0), c=2.0)
    sphere_err = float(np.max(np.abs(np.linalg.norm(wf.points - apex, axis=2) - 3.0)))
    sphere_orth = rs.orthogonality_residual(fam, wf)

    beam = rs.collimated([0, 0, 1])
    wfb = rs.reconstruct_wavefront(beam, k0=(0, 0), c=0.75)
    plane_err = float(np.max(np.abs(wfb.points[:, :, 2] + 0.75)))
    plane_orth = rs.orthogonality_residual(beam, wfb)

    mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
    reflected = rs.transform_family(fam, mirror)
    wfr = rs.reconstruct_wavefront(reflected, k0=(0, 0), c=2.0)
    image = np.array([0.0, 0.0, -5.0])
    refl_err = float(np.max(np.abs(np.linalg.norm(wfr.points - image, axis=2) - 3.0)))
    refl_orth = rs.orthogonality_residual(reflected, wfr)

    ok = (
        max(sphere_err, plane_err, refl_err) < 1e-7
        and max(sphere_orth, plane_orth, refl_orth) < 1e-6
    )
    report(
        5,
        ok,
        f"surface errors: sphere {sphere_err:.2e}, plane {plane_err:.2e}, "
        f"reflected sphere {refl_err:.2e}; orthogonality worst "
        f"{max(sphere_orth, plane_orth, refl_orth):.2e}",
    )


def test_criterion_6_focusing_mirror_designs():
    narrow = ((-0.002, 0.002), (-0.002, 0.002))
    wide = ((-0.2, 0.2), (-0.2, 0.2))

    src = rs.point_source([0, 0, 0], [0, 0, 1], domain=wide)
    focus_e = np.array([0.3, 0.2, 1.2])
    design_e = rs.design_focusing_mirror(
        src, k0=(0, 0), focus=focus_e, epsilon=1, level=3.2, grid=9, wavefront_c=-1.0
    )
    err_e = 0.0
    for i, k1 in enumerate(design_e.k1):
        for j, k2 in enumerate(design_e.k2):
            oracle = ellipsoid_oracle_point(src.eval(k1, k2), 4.2, focus_e)
            err_e = max(err_e, float(np.max(np.abs(design_e.points[i, j] - oracle))))
    src_n = rs.point_source([0, 0, 0], [0, 0, 1], domain=narrow)
    design_en = rs.design_focusing_mirror(
        src_n, k0=(0, 0), focus=focus_e, epsilon=1, level=3.2, grid=13, wavefront_c=-1.0
    )
    ok_e, miss_e = rs.verify_focus(design_en, src_n)

    beam = rs.collimated([0, 0, 1], domain=wide)
    focus_p = np.array([0.1, -0.2, 1.5])
    design_p = rs.design_focusing_mirror(
        beam, k0=(0, 0), focus=focus_p, epsilon=1, level=2.5, grid=9
    )
    err_p = 0.0
    for i, k1 in enumerate(design_p.k1):
        for j, k2 in enumerate(design_p.k2):
            oracle = paraboloid_oracle_point(beam.eval(k1, k2), 2.5, focus_p)
            err_p = max(err_p, float(np.max(np.abs(design_p.points[i, j] - oracle))))
    beam_n = rs.collimated([0, 0, 1], domain=narrow)
    design_pn = rs.design_focusing_mirror(
        beam_n, k0=(0, 0), focus=focus_p, epsilon=1, level=2.5, grid=13
    )
    ok_p, miss_p = rs.verify_focus(design_pn, beam_n)

    # focus downstream on a ray: the additive branch must fail, the
    # subtractive (virtual) branch must succeed
    virtual_ok = False
    try:
        rs.design_focusing_mirror(
            src_n, k0=(0, 0), focus=[0, 0, 2.0], epsilon=1, level=0.5, grid=5, wavefront_c=-1.0
        )
    except NoRootError:
        design_v = rs.design_focusing_mirror(
            src_n, k0=(0, 0), focus=[0, 0, 2.0], epsilon=-1, level=0.5, grid=13, wavefront_c=-1.0
        )
        virtual_ok, _ = rs.verify_focus(design_v, src_n)

    ok = (
        max(err_e, err_p) < 1e-7
        and ok_e
        and ok_p
        and max(miss_e, miss_p) < 1e-6
        and virtual_ok
    )
    report(
        6,
        ok,
        f"conic errors: ellipsoid {err_e:.2e}, paraboloid {err_p:.2e}; "
        f"focus misses {miss_e:.2e}/{miss_p:.2e}; virtual eps=-1 ok {virtual_ok}",
    )


def test_criterion_7_characteristic_function():
    started = time.perf_counter()
    mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
    v, _ = rs.characteristic_function([0, 0, 1], [1, 0, 1], mirror)
    v_err = abs(v - np.sqrt(5.0))

    rng = np.random.default_rng(707)
    worst_traced = 0.0  # laws hold -> stationary
    worst_solved = 0.0  # stationary -> laws hold
    for i in range(50):
        sys = nested_sphere_system(rng, 1 + i % 3)
        start = rng.uniform(-0.3, 0.3, 3)
        line = rs.line_through(start, rng.normal(size=3))
        trace = rs.propagate_system(line, sys, start=start)
        m2 = trace.hits[-1].point + trace.line_out.u
        pc = rs.path_through(start, m2, sys, [h.point for h in trace.hits])
        worst_traced = max(worst_traced, rs.stationarity_residual(pc))
        seed = pc.with_coords(pc.flat() + rng.uniform(-0.01, 0.01, pc.flat().size))
        _, pc_star = rs.characteristic_function(start, m2, sys, initial=seed)
        worst_solved = max(worst_solved, rs.law_residual(pc_star))
    elapsed = time.perf_counter() - started
    ok = v_err < 1e-9 and worst_traced < 1e-8 and worst_solved < 1e-8 and elapsed < 20.0
    report(
        7,
        ok,
        f"|V - sqrt(5)| = {v_err:.2e}; 50 systems: traced->stationary "
        f"{worst_traced:.2e}, solved->laws {worst_solved:.2e}, {elapsed:.2f} s",
    )


def perturbation_case(rng, kind, refract):
    surface = random_surface(rng, kind)
    line, _, t0 = aimed_line(rng, surface)
    start = line.point_at(t0)
    a_vec = rng.uniform(-0.3, 0.3, 3)
    b_vec = rng.uniform(-0.1, 0.1, 3)
    n1, n2 = (1.0, 1.5) if refract else (1.0, 1.0)

    def at(s):
        l0 = rs.line_through(start + s * a_vec, unit(line.u + s * b_vec))
        t0 = float((start + s * a_vec - l0.q) @ l0.u)
        if refract:
            out, hit = rs.refract_line(l0, surface, n1, n2, t_min=t0)
        else:
            out, hit = rs.reflect_line(l0, surface, t_min=t0)
        tau1 = 1.1 + 0.3 * s
        tau2 = 0.8 - 0.15 * s
        m1 = hit.point - tau1 * l0.u
        m2 = hit.point + tau2 * out.u
        length = n1 * np.linalg.norm(hit.point - m1) + n2 * np.linalg.norm(m2 - hit.point)
        return l0, out, hit, m1, m2, length

    h = 1e-5
    lp = at(h)
    lm = at(-h)
    l0, out0, _, _, _, _ = at(0.0)
    dP = (lp[2].point - lm[2].point) / (2 * h)
    star2 = abs((n1 * l0.u - n2 * out0.u) @ dP)
    d_len = (lp[5] - lm[5]) / (2 * h)
    dm1 = (lp[3] - lm[3]) / (2 * h)
    dm2 = (lp[4] - lm[4]) / (2 * h)
    star3 = abs(d_len - (n2 * float(out0.u @ dm2) - n1 * float(l0.u @ dm1)))
    return star2, star3


def test_criterion_8_differential_identities():
    rng = np.random.default_rng(808)
    worst2 = worst3 = 0.0
    for i in range(100):
        s2, s3 = perturbation_case(rng, KINDS[i % 4], refract=False)
        worst2, worst3 = max(worst2, s2), max(worst3, s3)
    for i in range(100):
        s2, s3 = perturbation_case(rng, KINDS[i % 4], refract=True)
        worst2, worst3 = max(worst2, s2), max(worst3, s3)
    ok = worst2 < 1e-7 and worst3 < 1e-6
    report(
        8,
        ok,
        f"200 perturbations: worst momentum-drift {worst2:.3e} (tol 1e-7), "
        f"worst length-differential {worst3:.3e} (tol 1e-6)",
    )


SCENE_COMMANDS = (
    ("point_plane.scene", "wavefront"),
    ("two_skew.scene", "defect"),
    ("sphere_refract.scene", "check-symplectic"),
    ("mixed_device.scene", "trace"),
    ("mixed_device.scene", "check-symplectic"),
    ("mirror_design.scene", "mirror"),
    ("characteristic.scene", "characteristic"),
)


def test_criterion_9_cli_determinism(tmp_path):
    import pathlib

    scene_dir = pathlib.Path(__file__).resolve().parent.parent / "scenes"
    mismatches = []
    for scene_name, command in SCENE_COMMANDS:
        blobs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{scene_name}-{attempt}"
            code = main(
                [
                    command,
                    "--scene",
                    str(scene_dir / scene_name),
                    "--out",
                    str(out_dir),
                ]
            )
            assert code == 0, f"{command} on {scene_name} exited {code}"
            blob = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
            }
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            mismatches.append(scene_name)
    ok = not mismatches
    report(9, ok, f"6 scenes, byte-identical reruns; mismatches: {mismatches or 'none'}")
