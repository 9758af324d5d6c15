"""Dynamic reallocation: a fault-tolerant on-line REF service (§4.4)."""

from .controller import ControllerResult, DynamicAllocator, EpochEvent, EpochRecord, StageRecord
from .faults import FaultInjector, FaultSpec
from .phases import ChurnEvent, ChurnSchedule, Phase, PhasedWorkload

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "ControllerResult",
    "DynamicAllocator",
    "EpochEvent",
    "EpochRecord",
    "FaultInjector",
    "FaultSpec",
    "Phase",
    "PhasedWorkload",
    "StageRecord",
]
