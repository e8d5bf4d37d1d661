"""ANGEL on links that do not support all three native gates.

Real Aspen chips have such links (paper Section III-A: a few links lack
XY or CPHASE); the probe budget and the search must adapt.
"""

import pytest

from repro.compiler import transpile
from repro.core import Angel, AngelConfig, noise_adaptive_sequence
from repro.device import (
    CalibrationService,
    RigettiAspenDevice,
    small_test_device,
)
from repro.programs import ghz_n4


@pytest.fixture()
def env():
    full = small_test_device(5, seed=61)
    # Remove gates: link (0,1) loses cphase, link (1,2) keeps only cz.
    # Device parameter maps are read-only, so build the chip without them.
    removed = {((0, 1), "cphase"), ((1, 2), "xy"), ((1, 2), "cphase")}
    device = RigettiAspenDevice(
        full.topology,
        full.qubit_params,
        {
            key: params
            for key, params in full.gate_params.items()
            if key not in removed
        },
        seed=62,  # small_test_device(seed=61) seeds its device with 62
    )
    service = CalibrationService(device, seed=0)
    service.full_calibration()
    return device, service.data


class TestPartialSupport:
    def test_supported_gates_reflect_removal(self, env):
        device, _ = env
        assert device.supported_gates(0, 1) == ("xy", "cz")
        assert device.supported_gates(1, 2) == ("cz",)

    def test_noise_adaptive_respects_availability(self, env):
        device, calibration = env
        compiled = transpile(ghz_n4(), device, calibration)
        sequence = noise_adaptive_sequence(
            compiled.sites, calibration, compiled.gate_options()
        )
        for site, gate in zip(sequence.sites, sequence.gates):
            assert gate in device.supported_gates(*site.link)

    def test_probe_budget_shrinks(self, env):
        device, calibration = env
        compiled = transpile(ghz_n4(), device, calibration)
        angel = Angel(device, calibration, AngelConfig(probe_shots=128, seed=0))
        expected = angel.expected_probe_count(compiled)
        # 1 + sum(|options|-1) over used links; with restricted links the
        # budget is below the full-support 1+2L.
        full_budget = 1 + 2 * len(compiled.links_used())
        assert expected < full_budget

    def test_search_stays_within_available_gates(self, env):
        device, calibration = env
        compiled = transpile(ghz_n4(), device, calibration)
        angel = Angel(device, calibration, AngelConfig(probe_shots=128, seed=1))
        result = angel.select(compiled)
        assert result.copycats_executed == angel.expected_probe_count(compiled)
        for site, gate in zip(result.sequence.sites, result.sequence.gates):
            assert gate in device.supported_gates(*site.link)

    def test_single_option_link_never_probed_alternatives(self, env):
        device, calibration = env
        compiled = transpile(ghz_n4(), device, calibration)
        angel = Angel(device, calibration, AngelConfig(probe_shots=128, seed=2))
        result = angel.select(compiled)
        cz_only_links = [
            link
            for link in compiled.links_used()
            if device.supported_gates(*link) == ("cz",)
        ]
        for probe in result.trace.probes:
            if probe.role == "candidate":
                assert probe.link not in cz_only_links
