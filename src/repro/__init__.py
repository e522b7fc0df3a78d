"""repro: Transparent Concurrent Execution of Mutually Exclusive Alternatives.

A reproduction of Smith & Maguire (ICDCS 1989).  The top level re-exports
the public API; see DESIGN.md for the system inventory and EXPERIMENTS.md
for the reproduced evaluation.

Quickstart::

    from repro import Alternative, ConcurrentExecutor

    alts = [
        Alternative("index-scan", body=lambda ctx: "via index", cost=2.0),
        Alternative("table-scan", body=lambda ctx: "via scan", cost=9.0),
    ]
    result = ConcurrentExecutor().run(alts)
    assert result.winner.name == "index-scan"
"""

from repro.core import (
    AltContext,
    AltOutcome,
    AltResult,
    Alternative,
    CancellationToken,
    ConcurrentExecutor,
    ExecutionBackend,
    GuardPlacement,
    OrderedPolicy,
    OverheadBreakdown,
    PriorityPolicy,
    ProcessBackend,
    RandomPolicy,
    SequentialExecutor,
    SerialBackend,
    ThreadBackend,
    default_parallel_backend,
    get_backend,
)
from repro.errors import (
    AltBlockFailure,
    AltTimeout,
    Eliminated,
    FaultInjected,
    GuardFailure,
    PageApplyError,
    ReproError,
    TooLate,
)
from repro.obs import (
    BlockTrace,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    tracing,
)
from repro.process.primitives import EliminationMode
from repro.resilience import (
    FaultInjector,
    FaultRule,
    RaceAutopsy,
    Supervisor,
    injected,
)
from repro.sim.costs import ATT_3B2_310, FREE, HP_9000_350, MODERN_COMMODITY, CostModel

__version__ = "1.0.0"

__all__ = [
    "ATT_3B2_310",
    "AltBlockFailure",
    "AltContext",
    "AltOutcome",
    "AltResult",
    "AltTimeout",
    "Alternative",
    "BlockTrace",
    "CancellationToken",
    "ConcurrentExecutor",
    "CostModel",
    "MetricsRegistry",
    "Eliminated",
    "EliminationMode",
    "ExecutionBackend",
    "FREE",
    "FaultInjected",
    "FaultInjector",
    "FaultRule",
    "GuardFailure",
    "GuardPlacement",
    "HP_9000_350",
    "MODERN_COMMODITY",
    "OrderedPolicy",
    "OverheadBreakdown",
    "PageApplyError",
    "PriorityPolicy",
    "ProcessBackend",
    "RaceAutopsy",
    "RandomPolicy",
    "ReproError",
    "SequentialExecutor",
    "SerialBackend",
    "Supervisor",
    "ThreadBackend",
    "TooLate",
    "TraceEvent",
    "Tracer",
    "__version__",
    "default_parallel_backend",
    "get_backend",
    "injected",
    "tracing",
]
