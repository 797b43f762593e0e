"""Checkpointed co-simulation validation of the DLX implementation."""

from .checkpoints import compare_checkpoint, compare_streams
from .harness import (
    BugCampaignError,
    campaign_from_concrete_test,
    expected_stream,
    measure_latencies,
    run_bug_campaign,
    validate,
    validate_concrete_test,
)
from .report import (
    BugCampaignResult,
    BugCampaignRow,
    Mismatch,
    ValidationResult,
)
from .testgen import ConcreteTest, ConversionError, fill_inputs

__all__ = [
    "BugCampaignError",
    "BugCampaignResult",
    "BugCampaignRow",
    "expected_stream",
    "ConcreteTest",
    "ConversionError",
    "Mismatch",
    "ValidationResult",
    "campaign_from_concrete_test",
    "compare_checkpoint",
    "compare_streams",
    "fill_inputs",
    "measure_latencies",
    "run_bug_campaign",
    "validate",
    "validate_concrete_test",
]
