import json
import math
import sys

import mpmath
import numpy as np
import pytest

from steerwork import bounds
from steerwork.bounds import _thermal_weights, evaluate_bounds, rastegin_bound
from steerwork.cli import main
from steerwork.game import run_exact_quantum, run_monte_carlo

# Frozen from a 50-digit mpmath evaluation of the closed forms (see
# tests/test_acceptance.py for the oracle used at acceptance time).
WQ_D2_B1 = 0.26894142136999512
WQ_D3_B1 = 0.42388311523417089
WC_D2N3_B1 = 0.05761655596480800
WC_D3N4_B1 = 0.09054978190083756
XI_D2N3_B1 = 4.66778023896922317
XI_D3N4_B1 = 4.68121630263418785
RASTEGIN_23 = 0.78867513459481288


class TestRasteginBound:
    def test_qubit_three_bases(self):
        assert abs(rastegin_bound(2, 3) - RASTEGIN_23) < 1e-12

    def test_single_basis_saturates(self):
        # one basis: a basis vector itself reaches overlap 1
        for d in (2, 3, 10):
            assert rastegin_bound(d, 1) == 1.0

    def test_large_dimension_scaling(self):
        assert abs(rastegin_bound(100, 101) - 0.10850868183078892) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 6), (13, 14), (64, 2)])
    def test_range(self, d, n):
        r = rastegin_bound(d, n)
        assert 1.0 / d < r <= 1.0


class TestWClassical:
    def test_qubit_value(self):
        assert abs(evaluate_bounds(2, 3, 1.0, 1.0).w_classical - WC_D2N3_B1) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 6), (7, 2)])
    def test_infinite_temperature(self, d, n):
        # beta = 0 collapses to omega*(d-1)/(d*sqrt(n))
        for omega in (1.0, 2.5):
            expect = omega * (d - 1) / (d * math.sqrt(n))
            assert abs(evaluate_bounds(d, n, omega, 0.0).w_classical - expect) < 1e-12

    def test_zero_temperature_negative(self):
        val = evaluate_bounds(2, 3, 1.0, math.inf).w_classical
        assert abs(val - (RASTEGIN_23 - 1.0)) < 1e-12
        assert val < 0


class TestWQuantum:
    def test_qubit_value(self):
        assert abs(evaluate_bounds(2, 2, 1.0, 1.0).w_quantum - WQ_D2_B1) < 1e-12

    def test_qutrit_value(self):
        assert abs(evaluate_bounds(3, 2, 1.0, 1.0).w_quantum - WQ_D3_B1) < 1e-12

    def test_zero_temperature(self):
        for d in (2, 3, 17):
            assert evaluate_bounds(d, 2, 1.0, math.inf).w_quantum == 0.0

    def test_infinite_temperature(self):
        for d in (2, 5, 64):
            assert abs(evaluate_bounds(d, 2, 3.0, 0.0).w_quantum - 3.0 * (1 - 1 / d)) < 1e-12

    def test_huge_beta_no_overflow(self):
        assert evaluate_bounds(2, 2, 1.0, 1e6).w_quantum == 0.0


class TestXi:
    def test_qubit_ratio(self):
        assert abs(evaluate_bounds(2, 3, 1.0, 1.0).xi - XI_D2N3_B1) < 1e-10

    def test_qutrit_ratio(self):
        assert abs(evaluate_bounds(3, 4, 1.0, 1.0).xi - XI_D3N4_B1) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 4), (5, 6), (7, 8), (11, 2)])
    def test_infinite_temperature_identity(self, d, n):
        # at beta = 0 the omega and d dependence cancels, leaving sqrt(n)
        for omega in (1.0, 0.3, 42.0):
            assert abs(evaluate_bounds(d, n, omega, 0.0).xi - math.sqrt(n)) < 1e-12

    @pytest.mark.parametrize("omega", [1e-300, 1e-310, 1e-320, 5e-324])
    def test_tiny_omega_limit(self, omega):
        # beta*omega -> 0 gives xi -> sqrt(n), even where omega * r - omega * P
        # underflows to a few subnormal units or to zero
        for d, n in [(2, 3), (3, 4), (5, 6), (7, 2)]:
            assert evaluate_bounds(d, n, omega, 1.0).xi == pytest.approx(math.sqrt(n), rel=1e-12)


class TestAdvantageCondition:
    def test_two_bases_any_dimension(self):
        assert all(evaluate_bounds(d, 2, 1.0, 1.0).advantage for d in range(2, 65))

    def test_single_basis_boundary(self):
        # d*sqrt(1)/(sqrt(1) + d - 1) = 1 exactly: no strict advantage
        assert not evaluate_bounds(2, 1, 1.0, 1.0).advantage

    def test_qubit_three_bases(self):
        assert evaluate_bounds(2, 3, 1.0, 1.0).advantage


class TestOrderingAndScaling:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 4), (5, 6), (13, 14), (23, 24), (10, 2)])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 5.0, math.inf])
    def test_quantum_beats_classical(self, d, n, beta):
        for omega in (1.0, 2.0):
            bs = evaluate_bounds(d, n, omega, beta)
            assert bs.w_quantum > bs.w_classical

    def test_xi_strictly_increasing_on_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        vals = [evaluate_bounds(d, d + 1, 1.0, 1.0).xi for d in primes]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_xi_scales_like_sqrt_d(self):
        # ratio stays O(1): bounded below by 1 everywhere, and within
        # [1.0, 2.2] from d = 5 on (at d = 2, 3 it is 3.30 and 2.70).
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        for d in primes:
            ratio = evaluate_bounds(d, d + 1, 1.0, 1.0).xi / math.sqrt(d)
            assert ratio >= 1.0
            if d >= 5:
                assert ratio <= 2.2


class TestGroundStatePopulation:
    def test_limits(self):
        assert abs(_thermal_weights(4, 1.0, 0.0)[0] - 0.25) < 1e-15
        assert _thermal_weights(4, 1.0, math.inf)[0] == 1.0

    def test_qubit_value(self):
        expect = math.e / (math.e + 1)
        assert abs(_thermal_weights(2, 1.0, 1.0)[0] - expect) < 1e-15


class TestBoundSet:
    def test_bundle_matches_parts(self):
        bs = evaluate_bounds(3, 4, 1.0, 1.0)
        assert bs.w_classical == bounds.work_above_reset(
            1.0, rastegin_bound(3, 4), _thermal_weights(3, 1.0, 1.0)[0])
        assert (bs.population, bs.excited) == bounds._thermal_weights(3, 1.0, 1.0)
        assert bs.w_quantum == 1.0 * bs.excited
        assert bs.xi == pytest.approx(XI_D3N4_B1, abs=1e-10)
        assert bs.rastegin == rastegin_bound(3, 4)
        assert bs.advantage

    def test_one_population_and_overlap_bound(self, monkeypatch):
        calls = []
        for name in ("_thermal_weights", "rastegin_bound"):
            genuine = getattr(bounds, name)
            monkeypatch.setattr(bounds, name, lambda *a, f=genuine, k=name: calls.append(k) or f(*a))
        evaluate_bounds(3, 4, 1.0, 1.0)
        assert sorted(calls) == ["_thermal_weights", "rastegin_bound"]

    @pytest.mark.parametrize("run", [
        lambda: run_exact_quantum(3, 4),
        lambda: run_monte_carlo(3, 4, shots=10),
        lambda: main(["lhs-opt", "--dim", "3", "--n-bases", "4", "--restarts", "2"]),
    ], ids=["exact", "monte_carlo", "lhs_opt"])
    def test_one_bound_set_per_run(self, monkeypatch, run):
        # a run validates its parameters and computes P and 1 - P in evaluate_bounds
        # alone, once, wherever it is called from (the CLI imports it by name)
        calls = []
        for name in ("evaluate_bounds", "_thermal_weights"):
            counted = lambda *a, f=getattr(bounds, name), k=name: calls.append(k) or f(*a)
            monkeypatch.setattr(bounds, name, counted)
            if name == "evaluate_bounds":
                monkeypatch.setattr("steerwork.cli.evaluate_bounds", counted)
        run()
        assert sorted(calls) == ["_thermal_weights", "evaluate_bounds"]

    def test_population_is_p_and_not_in_json(self):
        bs = evaluate_bounds(3, 4, 2.0, 0.5)
        assert bs.population == _thermal_weights(3, 2.0, 0.5)[0]
        assert list(bs.to_json_dict()) == ["d", "n", "omega", "beta", "w_classical",
                                           "w_quantum", "xi", "rastegin", "advantage"]

    def test_xi_none_off_domain(self):
        bs = evaluate_bounds(2, 3, 1.0, math.inf)
        assert bs.xi is None
        assert bs.w_classical < 0

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan, 0.0])
    def test_rejects_non_finite_or_nonpositive_omega(self, omega):
        with pytest.raises(ValueError, match="energy gap must be finite and positive"):
            evaluate_bounds(2, 3, omega, 1.0)

    def test_json_handles_infinity(self):
        js = evaluate_bounds(2, 3, 1.0, math.inf).to_json_dict()
        assert js["beta"] == "inf"
        assert js["xi"] is None

    def test_invariant_advantage_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(2, 30))
            n = int(rng.integers(1, 30))
            beta = float(rng.choice([0.0, 0.2, 1.0, 4.0]))
            bs = evaluate_bounds(d, n, 1.0, beta)
            if bs.advantage:
                assert bs.w_quantum >= bs.w_classical


def _grid(beta_kind, size=200, seed=11):
    """Log-uniform (d, n, omega, beta): d in [2, 64], n in [1, d + 1], omega in
    [1e-300, 1e300], and beta * omega log-uniform in [1e-8, 700] ("finite"),
    uniform in [708, 745], where e^{-beta*omega} is subnormal ("subnormal"),
    or beta 0 or inf."""
    rng = np.random.default_rng(seed)
    for _ in range(size):
        d = round(math.exp(rng.uniform(math.log(2), math.log(64))))
        n = round(math.exp(rng.uniform(0.0, math.log(d + 1))))
        omega = 10.0 ** rng.uniform(-300, 300)
        beta = {"zero": 0.0, "inf": math.inf}.get(beta_kind)
        if beta_kind == "finite":
            beta = 10.0 ** rng.uniform(-8, math.log10(700)) / omega
        elif beta_kind == "subnormal":
            beta = rng.uniform(708, 745) / omega
        yield d, n, omega, beta


@pytest.mark.parametrize("omega, beta, w_quantum", [
    # mpmath at 50 digits; beta*omega rounds to 708, 4.9e-14 below the
    # product, which e^{-beta*omega} would take as a 4.9e-14 relative error
    (1e300, 7.08e-298, 3.3075530036382463e-08),
    # e^{-beta*omega} subnormal, omega (1 - P) not
    (1e10, 7.3e-08, 9.2263135691216372e-308),
])
def test_w_quantum_to_an_ulp_where_beta_omega_rounds(capsys, omega, beta, w_quantum):
    assert abs(evaluate_bounds(2, 3, omega, beta).w_quantum - w_quantum) <= math.ulp(w_quantum)
    assert main(["bounds", "--dim", "2", "--n-bases", "3", "--omega", repr(omega),
                 "--beta", repr(beta), "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["w_quantum"] == w_quantum


@pytest.mark.parametrize("beta_kind", ["finite", "subnormal", "zero", "inf"])
def test_closed_forms_match_mpmath(beta_kind):
    # P, 1 - P and w_quantum hold to 4 ulps relative, however large beta*omega
    # is: the product is taken exactly, since exp would scale its rounding by
    # beta*omega. w_classical and xi may also lose eps*(r + P)/|r - P|, their
    # condition number near the advantage edge r ~ P. A work that underflows
    # may miss by the subnormal spacing ulp(0) besides. Where e^{-beta*omega}
    # is subnormal, exp rounds it to within ulp(0) and d - 1 scales that up,
    # so 1 - P may miss by d ulp(0) there; elsewhere its check is relative.
    eps = math.ulp(1.0)
    with mpmath.workdps(50):
        for d, n, omega, beta in _grid(beta_kind):
            bs = evaluate_bounds(d, n, omega, beta)
            w, b = mpmath.mpf(omega), mpmath.mpf(beta)
            t = (d - 1) * mpmath.exp(-b * w) if beta < math.inf else mpmath.mpf(0)
            pop, excited = 1 / (1 + t), t / (1 + t)
            r = (1 + (d - 1) / mpmath.sqrt(n)) / d
            gap = (r - 1 + r * t) / (1 + t)  # r - P, without 1 + t rounding t away
            tol = 4 * eps
            spacing = d * math.ulp(0.0) if 0 < t / (d - 1) < sys.float_info.min else 0.0
            case = (d, n, omega, beta)
            assert abs(bs.population - pop) <= tol * pop, case
            assert abs(bs.excited - excited) <= tol * excited + spacing, case
            assert abs(bs.w_quantum - w * excited) <= tol * w * excited + math.ulp(0.0), case
            if not gap:
                assert bs.w_classical == 0.0 and bs.xi is None, case
                continue
            edge = 4 * eps * (r + pop) / abs(gap)
            assert abs(bs.w_classical - w * gap) <= edge * w * abs(gap) + math.ulp(0.0), case
            if edge < 1:
                assert (bs.xi is None) == (gap < 0), case
            if bs.xi is not None and gap > 0:
                assert abs(bs.xi - excited / gap) <= edge * excited / gap, case
