"""Direction law, closed-form direction moments, and the diffusion mapping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lamopt.cli import K_GRID
from lamopt.config import default_mobility, mobility_from_config, parse_config, DEFAULTS
from lamopt.ctrw import sample_steps
from lamopt.errors import DomainError
from lamopt.mobility import (
    DiffusionParams,
    MobilityParams,
    compute_diffusion,
    direction_moments,
    global_drift,
    sample_direction,
)


def direction_pdf(k: float, theta: float | np.ndarray) -> float | np.ndarray:
    """Density of the turn angle about the preferred direction.

    ``f(k, theta) = k exp(-k|theta|) / (2 (1 - exp(-k pi)))`` on [-pi, pi];
    ``k = 0`` is the uniform limit 1/(2 pi).  The moment quadratures below
    integrate against it.
    """
    if k < 0.0 or not math.isfinite(k):
        raise DomainError(f"concentration factor must be finite and >= 0, got {k}")
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > math.pi + 1e-12):
        raise DomainError("angle outside [-pi, pi]")
    if k == 0.0:
        out = np.full_like(th, 1.0 / (2.0 * math.pi))
    else:
        norm = -2.0 * math.expm1(-k * math.pi)
        out = k * np.exp(-k * np.abs(th)) / norm
    return float(out) if np.isscalar(theta) else out


TABLE_MEAN_LEN = 0.02          # km
TABLE_MEAN_TIME = 8.0 / 3600.0  # hr
TABLE_VAR_TIME = 1.0 / 3600.0**2


class TestDirectionPdf:
    def test_uniform_limit(self):
        # k -> 0 collapses to the uniform density on the circle
        assert direction_pdf(0.0, 1.3) == pytest.approx(1.0 / (2 * math.pi))
        assert direction_pdf(1e-12, -2.0) == pytest.approx(1.0 / (2 * math.pi))

    def test_symmetry(self):
        assert direction_pdf(1.0, 0.7) == direction_pdf(1.0, -0.7)

    def test_peak_value(self):
        # direct evaluation: 1 / (2 (1 - e^-pi))
        assert direction_pdf(1.0, 0.0) == pytest.approx(0.5225828526818421, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            direction_pdf(-0.1, 0.0)
        with pytest.raises(DomainError):
            direction_pdf(1.0, 4.0)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_nonnegative(self, k, theta):
        assert direction_pdf(k, theta) >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=30.0))
    def test_normalized(self, k):
        total, _ = quad(lambda th: direction_pdf(k, th), -math.pi, math.pi,
                        points=[0.0], limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


def _quadrature_moments(k: float) -> dict[str, float]:
    """Direction moments by adaptive quadrature of the density.

    The breakpoints split the peak of a concentrated law at 1, 5, 20 and 40
    decay lengths; the odd moment E[theta] vanishes to round-off only, so
    quad cannot meet its relative target and warns.  The law is even, so
    ``DirectionMoments`` stores no odd moment; ``TestDirectionPdf`` and the
    Monte-Carlo tests cover that symmetry.
    """
    if k <= 1.0:
        pts = [0.0]
    else:
        pts = sorted({0.0} | {s * min(0.999 * math.pi, c / k)
                              for c in (1.0, 5.0, 20.0, 40.0) for s in (1.0, -1.0)})

    def moment(fn) -> float:
        return quad(lambda th: fn(th) * direction_pdf(k, th), -math.pi, math.pi,
                    points=pts, limit=400, epsabs=0.0, epsrel=1e-13)[0]

    e_theta = moment(lambda th: th)
    return {
        "e_cos": moment(math.cos),
        "e_cos2": moment(lambda th: math.cos(th) ** 2),
        "e_sin2": moment(lambda th: math.sin(th) ** 2),
        "var_theta": moment(lambda th: th * th) - e_theta**2,
    }


class TestDirectionMoments:
    def test_uniform(self):
        m = direction_moments(0.0)
        assert m.e_cos == 0.0
        assert m.var_theta == pytest.approx(math.pi**2 / 3.0)
        assert m.e_sin2 == 0.5 and 1.0 - m.e_sin2 == 0.5

    def test_point_mass_limit(self):
        m = direction_moments(1e6)
        assert m.e_cos == pytest.approx(1.0, abs=1e-6)
        assert m.var_theta == pytest.approx(0.0, abs=1e-6)

    def test_closed_forms(self):
        # E[cos] = k^2 (1 + e^-k pi) / ((1 + k^2)(1 - e^-k pi));
        # E[cos 2t] = k^2 / (k^2 + 4)
        for k in (0.1, 0.5, 2.0, 20.0):
            m = direction_moments(k)
            e_cos = k**2 * (1 + math.exp(-k * math.pi)) / (
                (1 + k**2) * (1 - math.exp(-k * math.pi)))
            assert m.e_cos == pytest.approx(e_cos, abs=1e-10)
            assert 1.0 - m.e_sin2 == pytest.approx((1 + k**2 / (k**2 + 4)) / 2, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_closed_forms_vs_quadrature_oracle(self):
        for k in K_GRID + np.logspace(-8, 6, 57).tolist():
            ref = _quadrature_moments(k)
            m = direction_moments(k)
            # E[cos^2] is not stored: compute_diffusion reads it as 1 - e_sin2
            got = {**vars(m), "e_cos2": 1.0 - m.e_sin2}
            for name, value in ref.items():
                assert got[name] == pytest.approx(value, abs=1e-12), (k, name)
            assert m.var_theta == pytest.approx(ref["var_theta"], rel=1e-14), k

    def test_small_k_series_matches_uniform_expansion(self):
        # Var[theta] = pi^2/3 - pi^3 k / 12 + pi^4 k^2 / 360 + O(k^3) about
        # the uniform law
        for k in (1e-7, 1e-6, 1e-5):
            expected = (math.pi**2 / 3 - math.pi**3 * k / 12
                        + math.pi**4 * k * k / 360)
            assert direction_moments(k).var_theta == pytest.approx(expected, rel=1e-14)

    def test_finite_at_extreme_concentrations(self):
        for k in (1e-300, 1e-200, 1e12, 1e200, 1e308):
            m = direction_moments(k)
            values = (m.e_cos, m.e_sin2, m.var_theta)
            assert all(math.isfinite(v) for v in values), k
        assert direction_moments(1e-300).var_theta == pytest.approx(math.pi**2 / 3)
        assert direction_moments(1e200).e_cos == 1.0

    @pytest.mark.parametrize("k", [-0.1, math.nan, math.inf])
    def test_rejects_bad_concentration(self, k):
        with pytest.raises(DomainError):
            direction_moments(k)

    def test_sampling_rejects_nan_concentration(self):
        with pytest.raises(DomainError):
            sample_direction(math.nan, np.random.default_rng(0), 4)

    def test_moments_match_sampling(self):
        # Monte-Carlo oracle for E[cos] at k = 2 (4 sigma band)
        rng = np.random.default_rng(123)
        theta = sample_direction(2.0, rng, 1_000_000)
        m = direction_moments(2.0)
        band = 4.0 * np.std(np.cos(theta)) / 1000.0
        assert abs(np.cos(theta).mean() - m.e_cos) < band


class TestMobilityParams:
    def test_second_moment_identity(self):
        # the sampled exponential lengths have E[L^2] = 2 mean_len^2, the
        # moment compute_diffusion uses (4 sigma band)
        p = default_mobility(0.5)
        dx, dy = sample_steps(p, np.random.default_rng(7), 1_000_000)
        l2 = dx * dx + dy * dy
        band = 4.0 * np.std(l2) / 1000.0
        assert abs(l2.mean() - 2 * p.mean_len**2) < band

    def test_validation(self):
        with pytest.raises(DomainError):
            MobilityParams(k=-1.0, mean_len=0.02, mean_time=1e-3, var_time=0.0)
        with pytest.raises(DomainError):
            MobilityParams(k=0.5, mean_len=0.0, mean_time=1e-3, var_time=0.0)
        with pytest.raises(DomainError):
            MobilityParams(k=0.5, mean_len=0.02, mean_time=0.0, var_time=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["k", "mean_len", "mean_time", "var_time"])
    def test_non_finite_field_rejected(self, field, bad):
        # NaN passes a bare ``x < 0`` check; a NaN mean_len would walk every
        # trial to its kill step and return a finite mean interval
        good = dict(k=0.5, mean_len=0.02, mean_time=1e-3, var_time=1e-7)
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            MobilityParams(**dict(good, **{field: bad}))


class TestComputeDiffusion:
    def test_uniform_direction_limits(self):
        # no preferred direction: zero drift, isotropic spreading of
        # E[len^2] / (2 E[dwell])
        d = compute_diffusion(default_mobility(0.0))
        expected = 2 * default_mobility(0.0).mean_len**2 / (2 * TABLE_MEAN_TIME)
        assert d.mu1 == 0.0
        assert d.sigma11 == pytest.approx(expected, rel=1e-12)
        assert d.sigma22 == pytest.approx(expected, rel=1e-12)

    def test_full_concentration_limits(self):
        # straight-line motion: drift = speed, spread from length and dwell
        # fluctuations only (the exponential length variance is mean_len^2)
        p = default_mobility(1e6)
        d = compute_diffusion(p)
        assert d.mu1 == pytest.approx(p.mean_len / p.mean_time, rel=1e-6)
        s11 = (p.mean_len**2 * p.mean_time**2 + p.var_time * p.mean_len**2) / p.mean_time**3
        assert d.sigma11 == pytest.approx(s11, rel=1e-6)
        assert d.sigma22 == pytest.approx(0.0, abs=1e-9)

    def test_limit_agreement_tight(self):
        # the general closed forms agree with the limiting laws to 1e-4
        # relative at the proxy concentrations
        p_lo = default_mobility(1e-4)
        d_lo = compute_diffusion(p_lo)
        iso = 2 * p_lo.mean_len**2 / (2 * p_lo.mean_time)
        assert d_lo.sigma11 == pytest.approx(iso, rel=1e-4)
        assert d_lo.sigma22 == pytest.approx(iso, rel=1e-4)
        p_hi = default_mobility(1e6)
        d_hi = compute_diffusion(p_hi)
        assert d_hi.mu1 == pytest.approx(p_hi.mean_len / p_hi.mean_time, rel=1e-4)

    def test_default_scenario_strong_drift(self):
        # 20 m sections at 8 s: full-concentration drift is 9 km/hr and the
        # along-axis diffusion about 0.1828 km^2/hr
        d = compute_diffusion(default_mobility(1e6))
        assert d.mu1 == pytest.approx(9.0, rel=1e-6)
        assert d.sigma11 == pytest.approx(0.1828125, rel=1e-6)
        assert global_drift(d, 1.0) == pytest.approx(98.46, rel=1e-3)

    @pytest.mark.parametrize("k", np.logspace(-3, 3, 9).tolist())
    def test_psd_and_axis_symmetry(self, k):
        d = compute_diffusion(default_mobility(k))
        # the type holds no transverse drift or cross-diffusion; the
        # diagonal diffusion matrix is PSD when both entries are
        assert min(d.sigma11, d.sigma22) >= -1e-12

    def test_drift_monotone_in_concentration(self):
        mus = [compute_diffusion(default_mobility(k)).mu1
               for k in np.logspace(-3, 3, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))


class TestDiffusionParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu1", "sigma11", "sigma22"])
    def test_non_finite_field_rejected(self, field, bad):
        # a NaN drift used to reach asymptotic_optimum's between-regimes
        # branch unset (UnboundLocalError), and a NaN field made the disc
        # solver's factor singular and the one-term forms return NaN
        good = dict(mu1=1.0, sigma11=1.0, sigma22=1.0)
        with pytest.raises(DomainError, match="must be finite"):
            DiffusionParams(**dict(good, **{field: bad}))

    def test_negative_fields_allowed(self):
        # validate's sigma-sign-bug injection builds a negative sigma22
        # through dataclasses.replace
        d = dataclasses.replace(compute_diffusion(default_mobility(0.5)), sigma22=-1.0)
        assert d.sigma22 == -1.0
        assert DiffusionParams(-1.0, -2.0, 0.0).mu1 == -1.0

    def test_overflow_reports_the_mobility(self):
        # the finiteness test runs on the three values before the object is
        # built, so the message still names the step law
        p = MobilityParams(k=0.5, mean_len=1e200, mean_time=1e-200, var_time=1e-300)
        with pytest.raises(DomainError, match="no finite diffusion limit for mean_len"):
            compute_diffusion(p)


class TestGlobalDrift:
    def test_zero_drift(self):
        assert global_drift(DiffusionParams(0.0, 1.0, 1.0), 2.0) == 0.0

    def test_limits_across_concentration(self):
        lo = global_drift(compute_diffusion(default_mobility(1e-4)), 1.0)
        hi = global_drift(compute_diffusion(default_mobility(1e6)), 1.0)
        assert lo < 0.01
        assert hi > 90.0

    def test_degenerate(self):
        with pytest.raises(DomainError, match="sigma11 must be > 0"):
            global_drift(DiffusionParams(1.0, 0.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            global_drift(DiffusionParams(1.0, 1.0, 1.0), 0.0)


class TestConfig:
    def test_defaults_roundtrip(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k = 2.5\nmean_len_m = 40  # comment\n\n# full line\n")
        cfg = parse_config(path)
        assert cfg["k"] == 2.5
        assert cfg["mean_len_m"] == 40.0
        assert cfg["U"] == DEFAULTS["U"]
        mob = mobility_from_config(cfg)
        assert mob.mean_len == pytest.approx(0.04)
        assert mob.mean_time == pytest.approx(TABLE_MEAN_TIME)
        assert mob.var_time == pytest.approx(TABLE_VAR_TIME)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(DomainError):
            parse_config(path)

    def test_line_without_assignment(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k = 2\nmean_len_m 40\n")
        with pytest.raises(DomainError, match="config line 2: expected 'key = value'"):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("k = sideways\n")
        with pytest.raises(DomainError):
            parse_config(path)

    def test_path_may_contain_equals_sign(self, tmp_path):
        # the argument is always a file path, never literal config text
        folder = tmp_path / "run=1"
        folder.mkdir()
        path = folder / "scen.cfg"
        path.write_text("k = 3\n")
        assert parse_config(path)["k"] == 3.0
        assert parse_config(str(path))["k"] == 3.0

    @pytest.mark.parametrize("value", ["3", "3.0"])
    def test_whole_number_keys_are_ints(self, tmp_path, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"m_paging = {value}\nseed = {value}\n")
        cfg = parse_config(path)
        assert cfg["m_paging"] == 3 and isinstance(cfg["m_paging"], int)
        assert cfg["seed"] == 3 and isinstance(cfg["seed"], int)
