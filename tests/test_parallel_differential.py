"""Differential tests: parallel campaigns == serial campaigns, bytewise.

The engine's contract is that ``jobs`` is purely an execution knob:
for any worker count the campaign result -- detected/escaped sets,
their injection order, and the rendered report -- is identical to the
serial sweep.  These tests pin that contract on the canonical seed
machines and on the DLX bug catalog.
"""

import pytest

from repro.core.requirements import RequirementResult
from repro.core.theorems import theorem1_certificate
from repro.dlx.programs import DIRECTED_PROGRAMS
from repro.faults import certified_tour_campaign, run_campaign
from repro.tour import transition_tour
from repro.validation import run_bug_campaign

JOB_COUNTS = (1, 2, 4)


def serial_reference(machine, inputs):
    """The legacy strictly-serial sweep, reconstructed fault by fault."""
    from repro.faults import all_single_faults, detect_fault

    detected, escaped = [], []
    for fault in all_single_faults(machine):
        (detected if detect_fault(machine, fault, inputs) else
         escaped).append(fault)
    return tuple(detected), tuple(escaped)


class TestFSMDifferential:
    def test_matches_handwritten_serial_loop(self, vending):
        tour = transition_tour(vending)
        result = run_campaign(vending, tour.inputs, jobs=4)
        detected, escaped = serial_reference(vending, tuple(tour.inputs))
        assert result.detected == detected
        assert result.escaped == escaped

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_all_models_identical_at_every_worker_count(
        self, any_model, jobs
    ):
        tour = transition_tour(any_model)
        serial = run_campaign(any_model, tour.inputs)
        parallel = run_campaign(any_model, tour.inputs, jobs=jobs)
        assert parallel == serial
        assert str(parallel) == str(serial)
        assert parallel.by_class() == serial.by_class()

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_certified_campaign_identical(self, shiftreg3, jobs):
        cert = theorem1_certificate(
            shiftreg3, RequirementResult("R1", True, (), "assumed")
        )
        tour = transition_tour(shiftreg3)
        serial = certified_tour_campaign(shiftreg3, tour.inputs, cert)
        parallel = certified_tour_campaign(
            shiftreg3, tour.inputs, cert, jobs=jobs
        )
        assert parallel == serial


class TestDLXDifferential:
    @pytest.fixture(scope="class")
    def battery(self):
        return [
            (list(DIRECTED_PROGRAMS["hazard_stress"]), None, None),
            (list(DIRECTED_PROGRAMS["branch_storm"]), None, None),
            (list(DIRECTED_PROGRAMS["psw_probe"]), None, None),
        ]

    @pytest.fixture(scope="class")
    def serial(self, battery):
        return run_bug_campaign(battery, test_name="directed")

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_bug_campaign_rows_identical(self, battery, serial, jobs):
        parallel = run_bug_campaign(
            battery, test_name="directed", jobs=jobs
        )
        assert parallel.rows == serial.rows
        assert str(parallel) == str(serial)
        assert parallel.by_mechanism() == serial.by_mechanism()
