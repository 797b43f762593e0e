"""Recompute ``pins.json``: the reference values the workload checks
compare against, taken from the interpreter oracles (``kernel="interp"``)
rather than from the compiled kernels the timed flows use.

Run from the root of a checkout (the full scale takes a few minutes)::

    PYTHONPATH=src:perfbench python3 perfbench/pin.py full
    PYTHONPATH=src:perfbench python3 perfbench/pin.py smoke

Rerun only when a model or the bug catalog changes on purpose, and say
so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys

from repro.dlx.testmodel import tour_netlist
from repro.rtl.faults import run_stuck_at_campaign
from repro.validation import run_bug_campaign

from workloads import HERE, SCALES, _farm, _fig1_loop, fig1_opcodes


def _sizes(raw, model):
    return [
        len(raw.machine.states),
        len(model.machine.states),
        len(model.machine.transitions),
    ]


def main(scale: str) -> None:
    pins = {}
    raw, model, _tour, _vectors, _test, _result, _s = _fig1_loop(
        fig1_opcodes(scale, "fig1-model")
    )
    pins["fig1-model"] = {"model_sizes": _sizes(raw, model)}

    raw, model, _tour, vectors, test, _result, _s = _fig1_loop(
        fig1_opcodes(scale, "fig1-bugs")
    )
    bugs = run_bug_campaign(
        [(list(test.program), test.data, list(test.branch_oracle))],
        kernel="interp",
    )
    stuck = run_stuck_at_campaign(tour_netlist(2), vectors, kernel="interp")
    pins["fig1-bugs"] = {
        "model_sizes": _sizes(raw, model),
        "bug_vector": [row.detected for row in bugs.rows],
        "stuckat": [len(stuck.detected), stuck.total],
    }

    farm, farm_vectors = _farm(SCALES[scale]["farm_copies"])
    farm_stuck = run_stuck_at_campaign(farm, farm_vectors, kernel="interp")
    pins["corpus-wp"] = {
        "farm_stuckat": [len(farm_stuck.detected), farm_stuck.total],
    }
    path = os.path.join(HERE, "pins.json")
    doc = {}
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    doc[scale] = pins
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
