"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for illegal operations on the simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when the event queue empties while processes are blocked."""


class ConfigError(ReproError):
    """Raised for invalid or inconsistent configuration values."""


class ProtocolError(ReproError):
    """Raised when a node receives a message violating the fixed
    communication schedule (unexpected type, epoch, or sender).

    The message names the receiving node, the peer rank and the
    expected vs. actual message types, so a chaos-test failure can be
    triaged straight from the traceback."""


class WireError(ReproError):
    """Raised by the wire codec for malformed frames: bad magic, an
    unsupported version, an unknown message tag, truncation, or
    trailing bytes.  A decode failure never yields a partial message —
    the frame is rejected whole."""


class ConnectError(ReproError):
    """Raised when the TCP backend cannot establish a required
    connection: the bounded connect/accept retry schedule is exhausted,
    the handshake times out, or a peer answers the handshake with the
    wrong node identity.  The message names the peer node and its
    address so a mislaunched topology is triaged straight from the
    traceback.  (Version skew is a :class:`WireError` instead — it can
    never be resolved by retrying.)"""
