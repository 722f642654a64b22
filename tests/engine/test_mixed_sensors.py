"""Cohorts that interleave several sensor designs.

Every built-in cohort wears copies of one sensor, so the engines'
per-design grouping (:func:`repro.engine.monitor.group_rows`) usually
sees a single group.  These plans interleave two designs whose chains
differ in gain and rail — one censors at its rail, the other never
does — plus an equal-but-distinct copy of the first, so the multi-group
path is exercised against the scalar references and per-row loops.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analytes.physiological import ConcentrationTrajectory
from repro.engine.core import assert_fields_match, execute, kernels_for
from repro.engine.estimation import EstimationPlan, run_estimation
from repro.engine.monitor import (
    MonitorPlan,
    digitize_rows,
    glucose_cohort,
    group_rows,
    run_monitor,
)
from repro.enzymes.immobilization import ImmobilizedLayer
from repro.inference.observation import rail_censored_mask


def second_design(sensor):
    """The same chemistry behind a half-gain TIA with a 2.0 V rail."""
    tia = replace(sensor.chain.tia,
                  gain_v_per_a=0.5 * sensor.chain.tia.gain_v_per_a,
                  rail_v=2.0)
    return replace(sensor, chain=replace(sensor.chain, tia=tia),
                   repeatability_std_a=2.0 * sensor.repeatability_std_a
                   + 1e-10)


def mixed_channels(n: int = 5, twin: bool = True):
    """Glucose wearers alternating designs A and B; with ``twin`` the
    last channel wears an equal-but-distinct copy of design A."""
    base = glucose_cohort(n)
    design_a = base[0].sensor
    design_b = second_design(design_a)
    sensors = [design_a if i % 2 == 0 else design_b for i in range(n)]
    if twin:
        sensors[-1] = replace(design_a)
    return tuple(replace(channel, sensor=sensor)
                 for channel, sensor in zip(base, sensors))


def monitor_plan(**overrides) -> MonitorPlan:
    settings = dict(channels=mixed_channels(), duration_h=36.0,
                    sample_period_s=900.0, chunk_samples=16, seed=7)
    settings.update(overrides)
    return MonitorPlan(**settings)


def estimation_plan(**overrides) -> EstimationPlan:
    settings = dict(channels=mixed_channels(), duration_h=12.0,
                    sample_period_s=600.0, chunk_samples=8, seed=3)
    settings.update(overrides)
    return EstimationPlan(monitor=MonitorPlan(**settings))


class TestGroupRows:
    def test_one_shared_object_is_one_slice(self):
        sensor = glucose_cohort(1)[0].sensor
        assert group_rows([sensor] * 4) == [(sensor, slice(None))]

    def test_groups_by_identity_in_first_appearance_order(self):
        channels = mixed_channels()
        sensors = [channel.sensor for channel in channels]
        assert sensors[4] == sensors[0] and sensors[4] is not sensors[0]
        groups = group_rows(sensors)
        assert [item for item, _ in groups] == [sensors[0], sensors[1],
                                                sensors[4]]
        assert groups[0][0] is sensors[0] and groups[2][0] is sensors[4]
        assert [rows.tolist() for _, rows in groups] == [[0, 2], [1, 3],
                                                         [4]]


@pytest.mark.parametrize("workload, plan", [
    ("monitor", monitor_plan()),
    ("estimation", estimation_plan()),
], ids=["monitor", "estimation"])
class TestMixedCohortContract:
    def test_batch_matches_scalar_reference(self, workload, plan):
        kernels = kernels_for(workload)
        assert_fields_match(
            workload, "mixed-sensor scalar reference",
            kernels.contract_fields(execute(kernels, plan)),
            kernels.contract_fields(kernels.run_scalar(plan)))

    @pytest.mark.parametrize("chunk", [1, 13, 10**6])
    def test_chunk_size_invariance(self, workload, plan, chunk):
        kernels = kernels_for(workload)
        assert_fields_match(
            workload, f"mixed-sensor chunk={chunk}",
            kernels.contract_fields(execute(kernels, plan)),
            kernels.contract_fields(execute(
                kernels, kernels.with_chunk_samples(plan, chunk))))


class TestPerRowEquivalence:
    @pytest.fixture(scope="class")
    def sensors(self):
        return [channel.sensor for channel in mixed_channels(6)]

    @pytest.fixture(scope="class")
    def currents(self, sensors):
        """Readings straddling both designs' rails, both signs."""
        rails = np.array([s.chain.tia.rail_v / s.chain.tia.gain_v_per_a
                          for s in sensors])
        rng = np.random.default_rng(12)
        return rails[:, None] * rng.uniform(-1.3, 1.3,
                                            (len(sensors), 200))

    def test_digitize_rows_equals_per_row_loop(self, sensors, currents):
        expected = np.empty_like(currents)
        for i, sensor in enumerate(sensors):
            tia = sensor.chain.tia
            volts = np.clip(currents[i] * tia.gain_v_per_a,
                            -tia.rail_v, tia.rail_v)
            expected[i] = (sensor.chain.adc.convert(volts)
                           / tia.gain_v_per_a)
        np.testing.assert_array_equal(digitize_rows(sensors, currents),
                                      expected)

    def test_rail_censored_mask_equals_per_row_loop(self, sensors,
                                                    currents):
        measured = digitize_rows(sensors, currents)
        expected = np.empty(measured.shape, dtype=bool)
        for i, sensor in enumerate(sensors):
            chain = sensor.chain
            rail = chain.tia.rail_v / chain.tia.gain_v_per_a
            guard = 1.5 * chain.adc.lsb_v / chain.tia.gain_v_per_a
            expected[i] = np.abs(measured[i]) >= rail - guard
        mask = rail_censored_mask(sensors, measured)
        np.testing.assert_array_equal(mask, expected)
        assert mask.any() and not mask.all()

    def test_designs_censor_differently_in_a_run(self):
        """Design A reaches its rail on this cohort; design B never."""
        plan = monitor_plan()
        result = run_monitor(plan)
        censored = rail_censored_mask(
            [channel.sensor for channel in plan.channels],
            result.measured_current_a)
        assert censored[0::2].any()
        assert not censored[1::2].any()


class TestCallCounts:
    """Per-design physics runs once per sensor design per chunk."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {"steady_state_current": 0, "mean_molar": 0}
        layer_current = ImmobilizedLayer.steady_state_current
        mean_molar = ConcentrationTrajectory.mean_molar

        def counted_current(self, *args, **kwargs):
            counts["steady_state_current"] += 1
            return layer_current(self, *args, **kwargs)

        def counted_mean(self, *args, **kwargs):
            counts["mean_molar"] += 1
            return mean_molar(self, *args, **kwargs)

        monkeypatch.setattr(ImmobilizedLayer, "steady_state_current",
                            counted_current)
        monkeypatch.setattr(ConcentrationTrajectory, "mean_molar",
                            counted_mean)
        return counts

    def test_monitor_calls_once_per_design_per_chunk(self, calls):
        plan = monitor_plan(channels=mixed_channels(8, twin=False))
        calls.update(steady_state_current=0)  # building sensors counts
        run_monitor(plan)
        n_chunks = -(-plan.n_samples // plan.chunk_samples)
        assert n_chunks > 1
        assert calls == {"steady_state_current": 2 * n_chunks,
                         "mean_molar": 0}

    def test_estimation_calls_once_per_design_per_chunk(self, calls):
        plan = estimation_plan(channels=mixed_channels(8, twin=False))
        calls.update(steady_state_current=0)  # building sensors counts
        run_estimation(plan)
        n_chunks = -(-plan.n_samples // plan.monitor.chunk_samples)
        assert n_chunks > 1
        # Plus the observation model's linearization: response and
        # bumped response, once per design over the whole horizon.
        assert calls == {"steady_state_current": 2 * n_chunks + 2 * 2,
                         "mean_molar": 0}
