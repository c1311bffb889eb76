"""Structural tests of the convergence-study machinery on tiny problems."""

import dataclasses

import numpy as np
import pytest

from escher import meshing, studies
from escher.config import sphere_eoc_initial
from escher.errors import LevelOutOfRange, ValidationError
from escher.potentials import quartic_potential
from escher.solver import SchemeConfig
from escher.studies import compute_reference, eoc_study, interpolation_eoc
from escher.surfaces import OscillatingSphere, StaticSphere


@pytest.fixture(scope="module")
def tiny_study():
    cfg = SchemeConfig(eps=0.5, tau=0.05, t_end=0.1, scheme="fully_implicit",
                       newton_max_iter=60)
    return cfg, OscillatingSphere(), quartic_potential()


def test_tau_ladder_quarters(tiny_study):
    cfg, surface, pot = tiny_study
    result = eoc_study(cfg, surface, pot, sphere_eoc_initial, 1, 2)
    assert result.taus == (0.05, 0.0125)
    assert result.reference.tau == pytest.approx(0.05 / 16)


def test_reference_reuse_reproduces_errors(tiny_study):
    cfg, surface, pot = tiny_study
    first = eoc_study(cfg, surface, pot, sphere_eoc_initial, 1, 2)
    again = eoc_study(cfg, surface, pot, sphere_eoc_initial, 1, 2,
                      reference=first.reference)
    assert again.table_u.errors == first.table_u.errors
    assert again.table_w.errors == first.table_w.errors


def test_imex_levels_against_shared_reference(tiny_study):
    cfg, surface, pot = tiny_study
    ref = eoc_study(cfg, surface, pot, sphere_eoc_initial, 1, 2).reference
    imex = eoc_study(dataclasses.replace(cfg, scheme="imex"), surface, pot,
                     sphere_eoc_initial, 1, 2, reference=ref)
    assert imex.table_u.variable == "u"
    assert all(e > 0 for e in imex.table_u.errors)


def test_shared_reference_with_too_few_levels(tiny_study):
    # a reference on level 1 cannot serve a study whose finest level is 1
    cfg, surface, pot = tiny_study
    ref = compute_reference(cfg, surface, pot, sphere_eoc_initial, 1, 1)
    with pytest.raises(LevelOutOfRange):
        eoc_study(cfg, surface, pot, sphere_eoc_initial, 1, 2, reference=ref)


@pytest.mark.parametrize("change, kind_surface, base", [
    ({}, StaticSphere(), 0),
    # radius 1 at t = 0 like the study's, so its base nodes are the same
    ({}, OscillatingSphere(omega=1.0), 0),
    ({}, None, 1),
    ({"tau": 0.025}, None, 0),
    # one step to T = 0.05 gives level 2 the study's tau, 0.05 / 16
    ({"tau": 0.05, "t_end": 0.05}, None, 0),
], ids=["surface-kind", "surface-parameters", "base-mesh", "tau", "T"])
def test_shared_reference_must_match_the_study(tiny_study, change,
                                               kind_surface, base):
    cfg, surface, pot = tiny_study
    ref = compute_reference(dataclasses.replace(cfg, **change),
                            kind_surface or surface, pot, sphere_eoc_initial,
                            base, 2)
    with pytest.raises(ValidationError, match="^reference: "):
        eoc_study(cfg, surface, pot, sphere_eoc_initial, 0, 2, reference=ref)


def test_deeper_shared_reference(tiny_study):
    cfg, surface, pot = tiny_study
    ref = compute_reference(cfg, surface, pot, sphere_eoc_initial, 0, 3)
    result = eoc_study(cfg, surface, pot, sphere_eoc_initial, 0, 2,
                       reference=ref)
    assert result.reference is ref
    assert all(e > 0 for e in result.table_u.errors + result.table_w.errors)


def test_needs_two_levels(tiny_study):
    cfg, surface, pot = tiny_study
    with pytest.raises(ValidationError):
        eoc_study(cfg, surface, pot, sphere_eoc_initial, 1, 1)


@pytest.fixture
def no_mesh_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a mesh was built")

    for owner in (meshing, studies):
        for name in ("build_icosphere", "refine"):
            if name in vars(owner):
                monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("levels, reference_extra, message", [
    (1, 1, "need at least 2"),
    (60, 1, "must be <= 8"),
    (4, 5, "must be <= 8"),  # 1 + 4 - 1 + 5 = 9 subdivisions
])
def test_interpolation_levels_rule(no_mesh_built, levels, reference_extra,
                                   message):
    # the rule eoc_study checks, before any mesh is built
    with pytest.raises(ValidationError, match=f"^levels: .*{message}"):
        interpolation_eoc(StaticSphere(), 1, levels, np.sin,
                          reference_extra=reference_extra)


@pytest.mark.parametrize("reference_extra", [0, -1, 1.5])
def test_interpolation_reference_extra_rule(no_mesh_built, reference_extra):
    # 0 would compare the top level with itself, an error of exactly zero
    with pytest.raises(ValidationError,
                       match="^reference_extra: must be an integer >= 1"):
        interpolation_eoc(StaticSphere(), 1, 2, np.sin,
                          reference_extra=reference_extra)


def test_interpolation_orders_smoke():
    def f(p):
        return np.sin(p[..., 0] + 2 * p[..., 1]) * np.exp(p[..., 2])

    t_l2, t_h1 = interpolation_eoc(StaticSphere(), 1, 3, f)
    assert t_l2.eocs[-1] == pytest.approx(2.0, abs=0.35)
    assert t_h1.eocs[-1] == pytest.approx(1.0, abs=0.25)
