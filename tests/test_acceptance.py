"""Acceptance gates for the verification engine.

Ten end-to-end criteria, one test each.  Every test prints a single
PASS/FAIL line with the measured quantity (run with -s to see them all);
tolerances are fixed here and are not configurable.
"""

import json
import time

import numpy as np
import pytest

import finsq.cli as cli
import finsq.construct as con
import finsq.geometry as geo
import finsq.square as sq
from finsq.finsler import (
    curvature_data,
    douglas_tensor,
    flag_curvature,
    ricci,
    spray,
    spray_closed_form,
)
from finsq.registry import resolve_metric
from finsq.sampling import SampleTable, sample_inputs
from finsq.square import randers_phi, square_metric


def _verdict(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _berwald(n):
    al, be = geo.berwald_data(n)
    return square_metric(al, be, f"berwald-{n}")


@pytest.fixture(scope="module")
def warped3():
    spec = con.WarpedProductSpec(con.sphere_factor(2, 1.0), 1.0, 0.5)
    return con.construct_einstein_square(spec)


@pytest.fixture(scope="module")
def warped4():
    spec = con.WarpedProductSpec(con.sphere_factor(3, 1.0), 1.0, 0.5)
    return con.construct_einstein_square(spec)


def test_01_flag_flatness_of_square_example():
    # 200 random flags split over dimensions 3 and 4, |x| <= 0.8
    t0 = time.perf_counter()
    worst = 0.0
    for n, seed in ((3, 101), (4, 102)):
        M = _berwald(n)
        ss = sample_inputs(M.alpha, M.beta, 100, seed, max_x=0.8)
        for x, y, u in zip(ss.points, ss.directions, ss.edges):
            worst = max(worst, abs(flag_curvature(M, x, y, u)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict("flag-flatness", ok,
             f"max |K| = {worst:.3e} over 200 flags in {elapsed:.1f} s "
             "(tol 1e-6, budget 60 s)")


def test_02_einstein_construction_is_ricci_flat(warped4):
    cm = warped4
    ss = sample_inputs(cm.alpha, cm.beta, 100, seed=103)
    worst = max(curvature_data(cm.metric, x, y).einstein_residual(0.0)
                for x, y in zip(ss.points, ss.directions))
    cert = sq.check_einstein_square(SampleTable(cm.metric, ss.points, ss.directions))
    dev = abs(cert.constant - 1.0)
    ok = worst <= 1e-6 and cert.passed and dev <= 1e-4
    _verdict("einstein-construction", ok,
             f"max |Ric|/F^2 = {worst:.3e} at 100 samples (tol 1e-6); "
             f"certificate {'passed' if cert.passed else 'failed'} with "
             f"fitted c = {cert.constant:.10f} (|c-1| tol 1e-4)")


def test_03_deformation_identities():
    M = _berwald(4)
    ss = sample_inputs(M.alpha, M.beta, 100, seed=104)
    al, be = M.alpha, M.beta
    conf = sq.from_conformal_pair(*sq.to_conformal_pair(al, be))
    red = sq.from_reduced_pair(*sq.to_reduced_pair(al, be))
    worst_norm = worst_round = worst_expr = 0.0
    for x, y in zip(ss.points, ss.directions):
        X = [float(v) for v in x]
        worst_norm = max(worst_norm,
                         max(sq.norm_identity_residuals(al, be, x).values()))
        a0 = al.matrix(x)
        b0 = np.array([float(v) for v in be.components(X)])
        scale = 1.0 + np.max(np.abs(a0))
        for pair in (conf, red):
            da = np.max(np.abs(pair[0].matrix(x) - a0))
            db = np.max(np.abs(np.array([float(v) for v in pair[1].components(X)]) - b0))
            worst_round = max(worst_round, max(da, db) / scale)
        f1, f2, f3 = sq.f_square_three_ways(al, be, x, y)
        worst_expr = max(worst_expr,
                         max(abs(f2 - f1), abs(f3 - f1)) / (1.0 + abs(f1)))
    ok = worst_norm <= 1e-12 and worst_round <= 1e-10 and worst_expr <= 1e-9
    _verdict("deformation-identities", ok,
             f"norm identities {worst_norm:.3e} (tol 1e-12), "
             f"round trips {worst_round:.3e} (tol 1e-10), "
             f"three expressions {worst_expr:.3e} rel (tol 1e-9) at 100 points")


def test_04_spray_closed_form_oracle():
    randers = resolve_metric("randers-grad").metric
    worst = 0.0
    for M, seed in ((randers, 105), (_berwald(4), 106)):
        ss = sample_inputs(M.alpha, M.beta, 100, seed)
        for x, y in zip(ss.points, ss.directions):
            g_def = spray(M, x, y)
            g_closed = spray_closed_form(M, x, y)
            worst = max(worst, float(np.max(np.abs(g_closed - g_def)))
                        / (1.0 + float(np.max(np.abs(g_def)))))
    ok = worst <= 1e-8
    _verdict("spray-oracle", ok,
             f"closed-form vs definition spray: max rel diff {worst:.3e} "
             "over 100 Randers + 100 square samples (tol 1e-8)")


def test_05_riemannian_curvature_oracle():
    sph = resolve_metric({"name": "sphere", "dim": 3, "kappa": 1.3})
    ss = sample_inputs(sph.alpha, None, 25, seed=107)
    worst_sph = max(curvature_data(sph.metric, x, y).einstein_residual(1.3)
                    for x, y in zip(ss.points, ss.directions))
    euc = resolve_metric("euclidean")
    se = sample_inputs(euc.alpha, None, 25, seed=108)
    worst_euc = max(abs(ricci(euc.metric, x, y))
                    for x, y in zip(se.points, se.directions))
    rng = np.random.Generator(np.random.Philox(key=109))
    pts = np.column_stack([rng.uniform(-0.4, 0.4, 50),
                           rng.uniform(-0.5, 0.5, 50),
                           rng.uniform(-0.5, 0.5, 50)])
    worst_tr = con.warped_trace_residual(
        geo.sphere(2, 1.3), lambda t: 1.0 + 0.3 * t * t,
        lambda t: 0.6 * t, lambda t: 0.6, (-0.5, 0.5), pts)
    ok = worst_sph <= 1e-7 and worst_euc <= 1e-12 and worst_tr <= 1e-7
    _verdict("riemannian-oracle", ok,
             f"sphere Einstein residual {worst_sph:.3e} (tol 1e-7), "
             f"euclidean Ricci {worst_euc:.3e} (tol 1e-12), "
             f"warped trace {worst_tr:.3e} at 50 points (tol 1e-7)")


def test_06_profile_pde_on_grid():
    lib = sq.phi_library()
    worst = {}
    for key in ("square-conformal", "square-reduced", "randers-nav"):
        vals = []
        for b2 in np.linspace(0.0, 0.8, 20):
            bb = float(np.sqrt(b2))
            for s in np.linspace(-bb, bb, 20):
                vals.append(sq.phi_pde_residual(lib[key], float(b2), float(s)))
        worst[key] = max(vals)
    top = max(worst.values())
    ok = top <= 1e-10
    _verdict("profile-pde", ok,
             "max residual per profile "
             + ", ".join(f"{k} {v:.3e}" for k, v in sorted(worst.items()))
             + " on 20x20 grids (tol 1e-10)")


def test_07_spray_deformation_identities(warped4):
    cm = warped4
    ss = sample_inputs(cm.alpha, cm.beta, 50, seed=110)
    worst = {}
    for kind in ("conformal", "reduced"):
        cert = sq.deformed_spray_residual(SampleTable(cm.metric, ss.points, ss.directions),
                                          kind=kind)
        worst[kind] = cert.residuals["identity"].max
    top = max(worst.values())
    ok = top <= 1e-7
    _verdict("spray-deformation", ok,
             f"conformal {worst['conformal']:.3e}, reduced {worst['reduced']:.3e} "
             "identity residuals at 50 samples (tol 1e-7)")


def test_08_douglas_vanishing_with_control(warped3, warped4):
    worst = 0.0
    family = con.berwald_family(3, 0.7, np.array([0.1, 0.0, -0.05]))
    cases = [_berwald(4), warped3.metric, warped4.metric, family.metric]
    for k, M in enumerate(cases):
        ss = sample_inputs(M.alpha, M.beta, 6, seed=111 + k)
        for x, y in zip(ss.points, ss.directions):
            worst = max(worst, douglas_tensor(M, x, y).max_abs)
    drift = resolve_metric("randers-drift").metric
    sd = sample_inputs(drift.alpha, drift.beta, 5, seed=115)
    control = max(douglas_tensor(drift, x, y).max_abs
                  for x, y in zip(sd.points, sd.directions))
    ok = worst <= 1e-6 and control > 1e-3
    _verdict("douglas", ok,
             f"max |D| = {worst:.3e} over square example and 3 constructions "
             f"(tol 1e-6); non-closed Randers control {control:.3e} (> 1e-3)")


def test_09_low_dimension_constructions_are_flat(warped3, warped4):
    family3 = con.berwald_family(3, 0.7, np.array([0.1, 0.0, -0.05]))
    family4 = con.berwald_family(4, 1.0, None)
    worst = 0.0
    for k, cm in enumerate((warped3, warped4, family3, family4)):
        ss = sample_inputs(cm.alpha, cm.beta, 25, seed=120 + k)
        for x, y, u in zip(ss.points, ss.directions, ss.edges):
            worst = max(worst, abs(flag_curvature(cm.metric, x, y, u)))
    ok = worst <= 1e-6
    _verdict("construction-flatness", ok,
             f"max |K| = {worst:.3e} over 100 flags on four dimension-3/4 "
             "constructions (tol 1e-6)")


def test_10_determinism_and_exit_codes(tmp_path, capsys):
    args = ["check", "--metric", "berwald", "--suites", "closed,cfc",
            "--samples", "4", "--seed", "9"]
    blobs = []
    for fname in ("one.json", "two.json"):
        out = tmp_path / fname
        code = cli.main(args + ["--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]
    code_pass = cli.main(args + ["--out", str(tmp_path / "three.json")])
    code_fail = cli.main(["check", "--metric", "randers-drift",
                          "--suites", "closed", "--samples", "4",
                          "--out", str(tmp_path / "fail.json")])
    code_usage = cli.main(["check", "--metric", "no-such-metric"])
    capsys.readouterr()
    doc = json.loads(blobs[0])
    ok = (identical and doc["passed"] is True
          and (code_pass, code_fail, code_usage) == (0, 1, 2))
    _verdict("determinism", ok,
             f"reports byte-identical: {identical}; exit codes "
             f"(pass, fail, usage) = ({code_pass}, {code_fail}, {code_usage}) "
             "expecting (0, 1, 2)")
