"""Planted defects: each case plants one named defect by monkeypatch and
asserts that a named shipped gate fails on it, so no gate passes everything.

The gates here are ``check``'s verdict (``check_local_consistency`` and the
command's exit code) and acceptance criterion 2's bound of 1e-12 on the
worst residual of the kernels whose moments are enumerated exactly.
"""

from dataclasses import replace

import pytest

from pathfunc import schemes
from pathfunc.cli import main
from pathfunc.models import gbm, stoch_vol
from pathfunc.schemes import SchemeConfig, check_local_consistency

# criterion 2's model and probes
MODEL = gbm(0.1, 0.3, 0.8)
PROBES = [(y, t) for y in (0.5, 1.0, 2.0) for t in (0.0, 0.5)]


def plant_drift(monkeypatch, factor):
    """``_fixed_update`` steps on ``factor`` times the drift the model declares."""
    real = schemes._fixed_update

    def planted(model, y, t, dt, xi, out, mix):
        scaled = replace(model, drift=lambda y, t: factor * model.drift(y, t))
        return real(scaled, y, t, dt, xi, out, mix)
    monkeypatch.setattr(schemes, "_fixed_update", planted)


def check_exit(tmp_path, capsys, kind, h, probes_y="0.5, 1.0, 2.0"):
    """``check``'s exit code on criterion 2's model with a bounded payoff."""
    path = tmp_path / "c.cfg"
    path.write_text(
        f"model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
        f"scheme.kind = {kind}\nscheme.h = {h}\nfunctional.payoff = constant\n"
        f"check.kinds = config\ncheck.probes_y = {probes_y}\ncheck.probes_t = 0.0\n",
        encoding="utf-8")
    code = main(["check", str(path)])
    capsys.readouterr()
    return code


def test_drift_scaled_breaks_criterion_2_bound(monkeypatch):
    # 5% more drift moves the Euler mean by 0.05 r y: within h = 2^-6, so
    # only the exact bound sees it at criterion 2's step
    plant_drift(monkeypatch, 1.05)
    rep = check_local_consistency(MODEL, SchemeConfig("euler", h=2**-6), PROBES)
    assert max(max(r.r1, r.r2) for r in rep.rows) > 1e-12
    assert rep.rows[-1].r1 == pytest.approx(0.05 * 0.1 * 2.0, rel=1e-9)


def test_drift_scaled_fails_check(monkeypatch, tmp_path, capsys):
    # at h = 2^-10 and y = 2 the residual 0.01 exceeds the tolerance h
    plant_drift(monkeypatch, 1.05)
    (row,) = check_local_consistency(MODEL, SchemeConfig("euler", h=2**-10), [(2.0, 0.0)]).rows
    assert not row.passed
    assert row.r1 == pytest.approx(0.01, rel=1e-9) and row.tol1 == 2**-10
    assert check_exit(tmp_path, capsys, "euler", "2^-10", "2.0") == 2


def test_halved_tree_step_fails_check(monkeypatch, tmp_path, capsys):
    # the tree's state moves by half the dt it reports: every probe's mean
    # is off by b / 2, at least 0.025 here against the tolerance 2^-6
    real = schemes.binomial_variable_step

    def planted(model, y, t, h, sign):
        dt, y_next = real(model, y, t, h / 2, sign)
        return 2 * dt, y_next
    monkeypatch.setattr(schemes, "binomial_variable_step", planted)
    rep = check_local_consistency(MODEL, SchemeConfig("binomial_variable", h=2**-6), PROBES)
    assert not any(r.passed for r in rep.rows)
    assert [r.r1 for r in rep.rows] == pytest.approx([0.05 * y for y, _ in PROBES], rel=1e-9)
    assert check_exit(tmp_path, capsys, "binomial_variable", "2^-6") == 2


def test_dropped_correlation_fails_check(monkeypatch):
    # the Euler step ignores rho: only the off-diagonal covariance entry,
    # rho sigma x b y dt, is wrong, and it alone fails the probe
    m = stoch_vol(0.1, 0.3, 0.8, rho=-0.6, vol_of_vol=0.4)
    uncorrelated = stoch_vol(0.1, 0.3, 0.8, rho=0.0, vol_of_vol=0.4)
    real = schemes._fixed_update

    def planted(model, y, t, dt, xi, out, mix):
        return real(replace(model, diffusion=uncorrelated.diffusion), y, t, dt, xi, out, mix)
    monkeypatch.setattr(schemes, "_fixed_update", planted)
    rep = check_local_consistency(m, SchemeConfig("euler", h=2**-6), PROBES)
    assert not any(r.passed for r in rep.rows)
    assert [r.r1 for r in rep.rows] == pytest.approx([0.0] * len(PROBES), abs=1e-12)
    assert [r.r2 for r in rep.rows] == pytest.approx([0.6 * 0.3 * y * 0.4 for y, _ in PROBES],
                                                     rel=1e-9)
