"""Campaign-service protocol: specs, resolution, shards, results.

The coordinator and its shard workers live in different processes on
(potentially) different machines, so nothing big ever crosses the
wire.  A campaign travels as a small JSON **spec** naming a canonical
target and its settings; both sides independently resolve the spec to
the identical machine / test set / fault population (every resolution
step -- model construction, tour generation, suite generation, fault
enumeration -- is deterministic), and the run's **identity** (the
PR-4 manifest identity: model/test fingerprints, fault digest,
kernel, timeout) doubles as the content address of its result.

Shards are index ranges ``[lo, hi)`` over the resolved fault
population.  A worker's shard result is a list of journal-shaped
records -- the same schema :mod:`repro.runtime.runner` journals, so
verdicts absorbed from workers, replayed from a crashed coordinator's
spool journal, and produced by a local ``--run-dir`` run are all the
same bytes.  Verdict records are **idempotent by fault index**: the
coordinator fills each slot at most once, which is what makes
at-least-once shard delivery (lease expiry + reassignment + zombie
late reports) safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from ..obs.events import muted
from ..parallel import KERNELS, check_kernel
from ..runtime.runner import BugPopulation, FaultPopulation, Population

#: The service's DLX battery name.  Fixed (unlike the CLI's
#: jobs-dependent label) so identical submissions hash identically.
DLX_TEST_NAME = "directed-programs"

_SUITES = ("tour", "w", "wp", "hsi")
_METHODS = ("cpp", "greedy")

_SPEC_KEYS = (
    "target", "method", "suite", "extra_states", "kernel", "lanes",
    "timeout",
)


class SpecError(ValueError):
    """A campaign spec the service cannot (or refuses to) resolve."""


def normalize_spec(spec: Any) -> Dict[str, Any]:
    """Validate a submitted spec and fill defaults; canonical form.

    Normalization is idempotent and total-ordering-free: the same
    logical submission always normalizes to the same dict, which is
    what makes submissions content-addressable.
    """
    if not isinstance(spec, dict):
        raise SpecError(
            f"campaign spec must be a JSON object, got "
            f"{type(spec).__name__}"
        )
    unknown = sorted(set(spec) - set(_SPEC_KEYS))
    if unknown:
        raise SpecError(
            f"unknown spec field(s) {unknown}; expected a subset of "
            f"{list(_SPEC_KEYS)}"
        )
    target = spec.get("target")
    if not isinstance(target, str) or not target:
        raise SpecError("spec needs a non-empty string 'target'")
    method = spec.get("method", "cpp")
    if method not in _METHODS:
        raise SpecError(f"method must be one of {_METHODS}: {method!r}")
    suite = spec.get("suite", "tour")
    if suite not in _SUITES:
        raise SpecError(f"suite must be one of {_SUITES}: {suite!r}")
    kernel = spec.get("kernel", "compiled")
    try:
        check_kernel(kernel)
    except ValueError:
        raise SpecError(
            f"kernel must be one of {KERNELS}: {kernel!r}"
        ) from None
    try:
        extra_states = int(spec.get("extra_states") or 0)
    except (TypeError, ValueError):
        raise SpecError(
            f"extra_states must be an integer: "
            f"{spec.get('extra_states')!r}"
        ) from None
    if extra_states < 0:
        raise SpecError(f"extra_states must be >= 0: {extra_states}")
    lanes = spec.get("lanes")
    if lanes is not None:
        try:
            lanes = int(lanes)
        except (TypeError, ValueError):
            raise SpecError(f"lanes must be an integer: {lanes!r}") from None
        if lanes < 2:
            raise SpecError(f"lanes must be >= 2: {lanes}")
    timeout = spec.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise SpecError(
                f"timeout must be a number: {timeout!r}"
            ) from None
        if timeout <= 0:
            raise SpecError(f"timeout must be > 0: {timeout}")
    if target == "dlx" and suite != "tour":
        raise SpecError(
            "the dlx target replays directed programs; only "
            "suite='tour' applies"
        )
    return {
        "target": target,
        "method": method,
        "suite": suite,
        "extra_states": extra_states,
        "kernel": kernel,
        "lanes": lanes,
        "timeout": timeout,
    }


@dataclass
class ResolvedCampaign:
    """A spec resolved to concrete work, identically on every host.

    ``population`` is the campaign's fault population (FSM faults over
    a machine and test, or DLX catalog entries over a battery whose
    spec streams are prepared lazily -- only workers need them);
    ``identity`` is the manifest identity whose digest is the
    campaign's content address.
    """

    spec: Dict[str, Any]
    population: Population
    identity: Dict[str, Any]

    @property
    def total(self) -> int:
        return self.population.total


def resolve_campaign(spec: Any) -> ResolvedCampaign:
    """Resolve a spec to its machine/tests/faults and identity.

    Deterministic by construction; raises :class:`SpecError` for
    anything that cannot be resolved (unknown target, ungenerable
    suite), never half-resolves.
    """
    spec = normalize_spec(spec)
    kernel, timeout = spec["kernel"], spec["timeout"]
    if spec["target"] == "dlx":
        from ..dlx.buggy import BUG_CATALOG
        from ..dlx.programs import DIRECTED_PROGRAMS

        population: Population = BugPopulation(
            tuple((list(p), None, None) for p in DIRECTED_PROGRAMS.values()),
            BUG_CATALOG,
            DLX_TEST_NAME,
        )
        return ResolvedCampaign(
            spec, population, population.identity(kernel, timeout)
        )
    from ..models import build_model
    from ..tour import SuiteError

    try:
        machine = build_model(spec["target"])
    except KeyError as exc:
        raise SpecError(str(exc.args[0])) from None
    try:
        population = FaultPopulation.for_suite(
            machine, spec["suite"], spec["method"], spec["extra_states"]
        )
    except SuiteError as exc:
        raise SpecError(
            f"cannot generate {spec['suite']} suite for "
            f"{spec['target']}: {exc}"
        ) from None
    return ResolvedCampaign(
        spec, population, population.identity(kernel, timeout)
    )


# --------------------------------------------------------------------
# Shard simulation (worker side)
# --------------------------------------------------------------------


def simulate_shard(
    resolved: ResolvedCampaign,
    lo: int,
    hi: int,
    *,
    kernel: Optional[str] = None,
    mark_degraded: bool = False,
) -> List[Dict[str, Any]]:
    """Simulate faults ``[lo, hi)`` and return their journal records.

    ``kernel`` overrides the spec's kernel (the coordinator forces
    ``"interp"`` for quarantined singleton shards); ``mark_degraded``
    stamps every record as degraded, propagating the exit-code-3
    "survived, not clean" semantics through the service.  Verdicts are
    byte-identical either way -- the oracle defines correctness.
    """
    spec = resolved.spec
    kernel = kernel or spec["kernel"]
    if not 0 <= lo <= hi <= resolved.total:
        raise ValueError(
            f"shard [{lo}, {hi}) outside population of {resolved.total}"
        )
    # The sweep emits per-verdict events; a shard's slice of that
    # stream is lease-scheduling-dependent, and the coordinator emits
    # the canonical full stream at finalize.  Mute the bus here so an
    # in-process worker never double-emits.
    population = resolved.population
    with muted():
        verdicts = population.sweep(
            population.items[lo:hi], jobs=1, timeout=spec["timeout"],
            kernel=kernel, lanes=spec["lanes"],
        )
    return [
        population.encode(
            lo + offset, replace(v, degraded=True) if mark_degraded else v
        )
        for offset, v in enumerate(verdicts)
    ]
