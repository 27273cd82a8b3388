"""Built-in rule set.

Importing this package registers every rule with
:data:`repro.lint.registry.RULES`.  The rules encode the reproduction's
simulation-purity and protocol invariants:

=========  ==========================================================
SIM001     no host-clock read or import outside the wall-clock
           runtimes/transports, the admin server and the CLI
SIM002     all randomness flows through simul/rng.py substreams
SIM003     no float equality on simulated timestamps
OBS001     trace-event construction guarded by the null-tracer check
PERF001    no blocking I/O (socket/select/sleep/file I/O) outside the
           runtime, transport, observability, analysis, lint and CLI
           layers
PROTO001   protocol message set == dispatched set (no dead surface)
CFG001     every SystemConfig/ObservabilityConfig field is read
=========  ==========================================================

SIM001, SIM002 and PERF001 are rows of one per-file banned-sink rule
(:mod:`repro.lint.rules.sinks`); ``swjoin lint --list-rules`` prints
each row's allowlist from the row itself.
"""

from repro.lint.rules.configuse import ConfigFieldsRead
from repro.lint.rules.protocol import ProtocolExhaustiveness
from repro.lint.rules.simtime import NoFloatTimestampEquality
from repro.lint.rules.sinks import BANNED_SINKS, BannedSink
from repro.lint.rules.tracing import GuardedTraceEmit

__all__ = [
    "BANNED_SINKS",
    "BannedSink",
    "NoFloatTimestampEquality",
    "GuardedTraceEmit",
    "ProtocolExhaustiveness",
    "ConfigFieldsRead",
]
