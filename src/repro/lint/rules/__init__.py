"""Built-in rule set.

Importing this package registers every rule with
:data:`repro.lint.registry.RULES`.  The rules encode the reproduction's
simulation-purity and protocol invariants:

=========  ==========================================================
SIM001     no wall-clock reads outside the thread runtime / CLI
SIM002     all randomness flows through simul/rng.py substreams
SIM003     no float equality on simulated timestamps
SIM004     no *call chain* to the wall clock off the allowlist
           (interprocedural SIM001 over the project call graph)
SIM005     no *call chain* to stdlib random / numpy.random module
           state outside simul/rng.py (interprocedural SIM002)
OBS001     trace-event construction guarded by the null-tracer check
PERF001    no blocking call (socket/select/sleep/file I/O) reachable
           from the master epoch loop, probe path, or window store
PROTO001   protocol message set == dispatched set (no dead surface)
CFG001     every SystemConfig/ObservabilityConfig field is read
=========  ==========================================================
"""

from repro.lint.rules.configuse import ConfigFieldsRead
from repro.lint.rules.protocol import ProtocolExhaustiveness
from repro.lint.rules.randomness import NoDirectRandom
from repro.lint.rules.simtime import NoFloatTimestampEquality, NoWallClock
from repro.lint.rules.taint import BlockingReachability, RngTaint, WallClockTaint
from repro.lint.rules.tracing import GuardedTraceEmit

__all__ = [
    "NoWallClock",
    "NoDirectRandom",
    "NoFloatTimestampEquality",
    "WallClockTaint",
    "RngTaint",
    "BlockingReachability",
    "GuardedTraceEmit",
    "ProtocolExhaustiveness",
    "ConfigFieldsRead",
]
