"""Workload configuration: tenants, arrival processes, program mixes.

A :class:`WorkloadSpec` is the load harness's single input: it names
the tenants, their arrival processes (:class:`~repro.loadgen.arrivals.
ArrivalSpec`), the program mix each draws from, the base
:class:`~repro.service.RequestSpec` every request derives from, the
service shape (workers, round budget, dedup), and the
:class:`~repro.loadgen.slo.SloPolicy` bounds the run is gated on.

Specs are plain dataclasses that round-trip losslessly through
``to_dict`` / ``from_dict`` and therefore through JSON — and through
YAML when PyYAML is importable (:func:`load_workload` dispatches on the
file suffix); an unknown key at the top level or in ``service`` or
``base`` is a :class:`~repro.exceptions.ReproError`, never silently
dropped. :meth:`WorkloadSpec.schedule` expands the spec into the
deterministic list of :class:`ScheduledRequest` submissions: same spec
+ same seed, same schedule, bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ReproError
from ..service import RequestSpec
from .arrivals import ArrivalSpec, arrival_offsets, closed_loop_think_times
from .slo import SloBound

__all__ = [
    "TenantLoad",
    "WorkloadSpec",
    "ScheduledRequest",
    "load_workload",
    "dump_workload",
]

_PROGRAM_MODES = ("cycle", "random")
_WORKLOAD_KEYS = ("name", "seed", "base", "service", "tenants", "slo")
_SERVICE_KEYS = ("workers", "round_budget_jobs", "dedup")
_REQUEST_FIELDS = tuple(f.name for f in dataclasses.fields(RequestSpec))


def _reject_unknown_keys(
    section: str, data: Dict[str, object], known: Sequence[str]
) -> None:
    for key in data:
        if key not in known:
            raise ReproError(
                f"workload {section} key {key!r} is not one of "
                f"{', '.join(known)}"
            )


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's traffic: arrival process, program mix, policy.

    ``overrides`` patch the workload's base :class:`RequestSpec` for
    this tenant (e.g. a heavier shot budget); ``programs`` are cycled
    (or drawn seeded-at-random with ``program_mode="random"``) across
    the tenant's requests.
    """

    name: str
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    programs: Tuple[str, ...] = ("GHZ_n4",)
    program_mode: str = "cycle"
    #: Admission / fair-scheduling knobs (see TenantConfig).
    rate: Optional[float] = None
    burst: int = 8
    quantum: int = 4
    #: RequestSpec field patches applied on top of the workload base.
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("tenant load name must be non-empty")
        if not self.programs:
            raise ReproError(
                f"tenant {self.name!r} needs at least one program"
            )
        if self.program_mode not in _PROGRAM_MODES:
            raise ReproError(
                f"program_mode must be one of {_PROGRAM_MODES}"
            )
        for key, _ in self.overrides:
            if key not in _REQUEST_FIELDS:
                raise ReproError(
                    f"tenant {self.name!r} override {key!r} is not a "
                    f"RequestSpec field"
                )

    def request_specs(self, base: RequestSpec, seed: int) -> List[RequestSpec]:
        """The tenant's request specs in submission order (seeded)."""
        patched = (
            dataclasses.replace(base, **dict(self.overrides))
            if self.overrides
            else base
        )
        total = self.arrival.total_requests
        if self.program_mode == "random":
            rng = np.random.default_rng([seed, _tenant_salt(self.name)])
            picks = rng.integers(0, len(self.programs), total)
            names = [self.programs[int(pick)] for pick in picks]
        else:
            names = [
                self.programs[index % len(self.programs)]
                for index in range(total)
            ]
        return [
            dataclasses.replace(patched, program=name) for name in names
        ]


def _tenant_salt(name: str) -> int:
    """A stable (non-PYTHONHASHSEED) integer salt for a tenant name."""
    salt = 0
    for char in name:
        salt = (salt * 131 + ord(char)) % (2**31)
    return salt


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned submission: who, when, and exactly what."""

    tenant: str
    index: int
    offset_s: float
    spec: RequestSpec
    #: Closed-loop client this request belongs to (``None`` open-loop).
    client: Optional[int] = None
    #: Closed-loop think time before this submission (0.0 open-loop).
    think_s: float = 0.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything one load run is a function of."""

    tenants: Tuple[TenantLoad, ...]
    name: str = "workload"
    seed: int = 0
    base: RequestSpec = field(
        default_factory=lambda: RequestSpec(program="GHZ_n4")
    )
    #: Service shape (mirrors AngelService's constructor).
    workers: int = 2
    round_budget_jobs: Optional[int] = None
    dedup: bool = True
    #: Declared SLO bounds this workload is gated on.
    slo: Tuple[SloBound, ...] = ()

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ReproError("a workload needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ReproError("tenant names must be unique")
        if self.workers < 1:
            raise ReproError("workload workers must be >= 1")

    @property
    def total_requests(self) -> int:
        return sum(
            tenant.arrival.total_requests for tenant in self.tenants
        )

    def schedule(self) -> List[ScheduledRequest]:
        """The full deterministic submission schedule, in offset order.

        Ties break on (tenant, index) so the order is total; for
        closed-loop tenants the offsets are the planned think-time
        schedule and ``think_s``/``client`` carry the live-drive data.
        """
        scheduled: List[ScheduledRequest] = []
        for tenant in self.tenants:
            specs = tenant.request_specs(self.base, self.seed)
            salt = _tenant_salt(tenant.name)
            if tenant.arrival.kind == "closed":
                thinks = closed_loop_think_times(
                    tenant.arrival, self.seed + salt
                )
                index = 0
                for client, client_thinks in enumerate(thinks):
                    offset = 0.0
                    for think in client_thinks:
                        offset += think
                        scheduled.append(
                            ScheduledRequest(
                                tenant=tenant.name,
                                index=index,
                                offset_s=offset,
                                spec=specs[index],
                                client=client,
                                think_s=think,
                            )
                        )
                        index += 1
            else:
                offsets = arrival_offsets(
                    tenant.arrival, self.seed + salt
                )
                for index, offset in enumerate(offsets):
                    scheduled.append(
                        ScheduledRequest(
                            tenant=tenant.name,
                            index=index,
                            offset_s=offset,
                            spec=specs[index],
                        )
                    )
        scheduled.sort(key=lambda s: (s.offset_s, s.tenant, s.index))
        return scheduled

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON/YAML-able dict that :meth:`from_dict` inverts."""
        return {
            "name": self.name,
            "seed": self.seed,
            "base": dataclasses.asdict(self.base),
            "service": {
                "workers": self.workers,
                "round_budget_jobs": self.round_budget_jobs,
                "dedup": self.dedup,
            },
            "tenants": [
                {
                    "name": tenant.name,
                    "arrival": dataclasses.asdict(tenant.arrival),
                    "programs": list(tenant.programs),
                    "program_mode": tenant.program_mode,
                    "rate": tenant.rate,
                    "burst": tenant.burst,
                    "quantum": tenant.quantum,
                    "overrides": {
                        key: value for key, value in tenant.overrides
                    },
                }
                for tenant in self.tenants
            ],
            "slo": [
                dataclasses.asdict(bound) for bound in self.slo
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        _reject_unknown_keys("top-level", data, _WORKLOAD_KEYS)
        service = dict(data.get("service", {}))
        _reject_unknown_keys("service", service, _SERVICE_KEYS)
        base = dict(data.get("base", {"program": "GHZ_n4"}))
        _reject_unknown_keys("base", base, _REQUEST_FIELDS)
        tenants = []
        for raw in data.get("tenants", []):
            raw = dict(raw)
            overrides = raw.get("overrides", {}) or {}
            tenants.append(
                TenantLoad(
                    name=raw["name"],
                    arrival=ArrivalSpec(**dict(raw.get("arrival", {}))),
                    programs=tuple(raw.get("programs", ("GHZ_n4",))),
                    program_mode=raw.get("program_mode", "cycle"),
                    rate=raw.get("rate"),
                    burst=raw.get("burst", 8),
                    quantum=raw.get("quantum", 4),
                    overrides=tuple(sorted(overrides.items())),
                )
            )
        return cls(
            tenants=tuple(tenants),
            name=data.get("name", "workload"),
            seed=data.get("seed", 0),
            base=RequestSpec(**base),
            workers=service.get("workers", 2),
            round_budget_jobs=service.get("round_budget_jobs"),
            dedup=service.get("dedup", True),
            slo=tuple(
                SloBound(**dict(raw)) for raw in data.get("slo", [])
            ),
        )


def _yaml_module():
    try:
        import yaml
    except ImportError:  # pragma: no cover - environment-dependent
        return None
    return yaml


def load_workload(path: Union[str, Path]) -> WorkloadSpec:
    """Read a workload from a ``.json`` / ``.yaml`` / ``.yml`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ReproError(f"cannot read workload {path}: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        yaml = _yaml_module()
        if yaml is None:
            raise ReproError(
                f"{path.name}: YAML workloads need PyYAML installed; "
                f"use a .json workload instead"
            )
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ReproError(f"{path.name}: workload must be a mapping")
    return WorkloadSpec.from_dict(data)


def dump_workload(
    workload: WorkloadSpec, path: Union[str, Path]
) -> None:
    """Write a workload to ``.json`` / ``.yaml`` (suffix dispatch)."""
    path = Path(path)
    data = workload.to_dict()
    if path.suffix in (".yaml", ".yml"):
        yaml = _yaml_module()
        if yaml is None:
            raise ReproError(
                f"{path.name}: YAML workloads need PyYAML installed; "
                f"use a .json workload instead"
            )
        path.write_text(yaml.safe_dump(data, sort_keys=False))
    else:
        path.write_text(json.dumps(data, indent=2) + "\n")
