"""Seeded benchmark corpora for the corpus-* workloads.

A corpus directory holds three kinds of circuit:

* random KISS2 machines (minimal, complete, strongly connected), drawn
  from the workload seed until their single-fault population reaches a
  fixed **fault budget**;
* the four protocol models of :mod:`repro.corpus.protocols` as KISS2;
* the same four models synthesized to BLIF (corpus-wp only).

The budget, not a circuit count, fixes the size: a fixed count let the
total swing by ~3x between seeds (12 machines gave 118k faults, 16
larger ones 338k).  Machine *shapes* (states, inputs, outputs) are
drawn from a stream fixed by the budget and the state range, not by the
seed, and the last machine is shrunk to fit the remaining budget; the
seed draws each machine's transitions and outputs.  So every seed gives
the same machine sizes and the same number of faults, and the
simulation work differs between seeds only through the machines'
structure: with shapes drawn from the seed as well, the work (faults
times Wp suite steps, summed over machines) of seeds 1-10 spread 0.17
(6,000 faults, 6-12 states) and 0.26 (40,000 faults, 18-26 states) in
quartile distance over median; with fixed shapes 0.08 and 0.04.  The
protocol circuits are seed-independent and sit on top of the budget.

Same ``(seed, budget, size range)`` -> byte-identical files.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

from repro.core.generate import random_mealy
from repro.core.kiss import to_kiss
from repro.core.minimize import is_minimal
from repro.corpus.protocols import PROTOCOL_MODELS
from repro.corpus.synth import machine_to_netlist
from repro.faults import all_single_faults
from repro.rtl.blif import to_blif

#: Input-alphabet and output-alphabet ranges of the random machines.
INPUTS = (4, 6)
OUTPUTS = (3, 5)
#: Smallest random machine worth adding (states).
MIN_STATES = 4


def _single_faults(states: int, inputs: int, outputs: int) -> int:
    """Size of ``all_single_faults`` for a complete machine that uses
    its whole output alphabet: per transition, one output fault per
    wrong output and one transfer fault per wrong destination."""
    return states * inputs * ((outputs - 1) + (states - 1))


def protocol_files(blif: bool) -> Dict[str, str]:
    """File name -> text of the seed-independent protocol circuits: the
    four models as KISS2 tables and, with ``blif``, synthesized to BLIF
    netlists too."""
    files: Dict[str, str] = {}
    for name, build in sorted(PROTOCOL_MODELS.items()):
        stem = name.replace("-", "_")
        machine = build()
        files[f"proto_{stem}.kiss"] = to_kiss(machine).text
        if blif:
            synth = machine_to_netlist(machine, name=f"{stem}_net")
            files[f"synth_{stem}.blif"] = to_blif(synth.netlist)
    return files


def random_files(
    seed: int, budget: int, states: Tuple[int, int]
) -> Tuple[Dict[str, str], int]:
    """File name -> KISS2 text of random machines filling ``budget``
    single faults, plus the number of faults actually drawn."""
    shapes = random.Random(f"shapes:{budget}:{states[0]}-{states[1]}")
    rng = random.Random(seed)
    files: Dict[str, str] = {}
    total = 0
    while True:
        left = budget - total
        n = shapes.randint(*states)
        k = shapes.randint(*INPUTS)
        o = shapes.randint(*OUTPUTS)
        while n > MIN_STATES and _single_faults(n, k, o) > left:
            n -= 1
        if _single_faults(n, k, o) > left:
            break
        name = f"rand{len(files):03d}"
        while True:
            machine = random_mealy(rng, n, k, o, name=name)
            if is_minimal(machine) and len(machine.outputs) == o:
                break
        files[f"{name}.kiss"] = to_kiss(machine).text
        total += len(all_single_faults(machine))
    return files, total


def write_corpus(
    directory: str,
    seed: int,
    budget: int,
    states: Tuple[int, int],
    protocols: str = "kiss+blif",
) -> List[str]:
    """Generate the corpus into ``directory`` (created if missing);
    returns the written file names in sorted order.  ``protocols`` is
    ``"kiss+blif"``, ``"kiss"`` or ``"none"``."""
    if protocols not in ("kiss+blif", "kiss", "none"):
        raise ValueError(f"unknown protocols choice {protocols!r}")
    os.makedirs(directory, exist_ok=True)
    files, _drawn = random_files(seed, budget, states)
    if protocols != "none":
        files.update(protocol_files(blif=protocols == "kiss+blif"))
    for name in sorted(files):
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(files[name])
    return sorted(files)
