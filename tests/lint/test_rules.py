"""Fixture corpus for the built-in rules.

Each rule gets at least one known-bad snippet with asserted rule ids
*and line numbers*, plus a clean/allowlisted counterpart so we notice
both missed violations and false positives.
"""

import pytest

from repro.lint import RULES, lint_sources


def finding_keys(sources, only):
    """``["RULE path:line", ...]`` of the findings, sorted."""
    return sorted(f.key for f in lint_sources(sources, only=only).findings)


# ---------------------------------------------------------------------------
# Mutant corpus: a sink smuggled anywhere is flagged where it enters
# ---------------------------------------------------------------------------

_CLOCK_REEXPORT = {
    "src/repro/util/clock.py": "from time import monotonic\n",
    "src/repro/core/x.py": (
        "from repro.util.clock import monotonic\n"
        "\n"
        "def stamp():\n"
        "    return monotonic()\n"
    ),
}
_OPEN_HELPER = "def dump(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n"

#: (planted violation, sources, rule, file the finding must be anchored in)
MUTANTS = [
    (
        "clock-helper-called-from-master",
        {
            "src/repro/util/helper.py": (
                "import time\n\ndef now():\n    return time.time()\n"
            ),
            "src/repro/core/master.py": (
                "from repro.util.helper import now\n\n"
                "def epoch():\n    return now()\n"
            ),
        },
        "SIM001",
        "src/repro/util/helper.py",
    ),
    (
        "clock-reexport-called-from-master",
        {
            **_CLOCK_REEXPORT,
            "src/repro/core/master.py": (
                "from repro.core.x import stamp\n\n"
                "def epoch():\n    return stamp()\n"
            ),
        },
        "SIM001",
        "src/repro/util/clock.py",
    ),
    (
        "clock-reexport-without-caller",
        _CLOCK_REEXPORT,
        "SIM001",
        "src/repro/util/clock.py",
    ),
    (
        "rng-reexport-called-from-master",
        {
            "src/repro/util/r.py": "from numpy.random import default_rng\n",
            "src/repro/workload/w.py": (
                "from repro.util.r import default_rng\n\n"
                "def draw(seed):\n    return default_rng(seed).random()\n"
            ),
            "src/repro/core/master.py": (
                "from repro.workload.w import draw\n\n"
                "def epoch():\n    return draw(7)\n"
            ),
        },
        "SIM002",
        "src/repro/util/r.py",
    ),
    (
        "open-behind-self-attribute-call",
        {
            "src/repro/core/buffer.py": (
                "class MasterBuffer:\n"
                "    def dump(self, path):\n"
                "        with open(path, 'w') as fh:\n"
                "            fh.write('x')\n"
            ),
            "src/repro/core/master.py": (
                "from repro.core.buffer import MasterBuffer\n\n"
                "class MasterNode:\n"
                "    def __init__(self):\n"
                "        self.buffer = MasterBuffer()\n\n"
                "    def epoch(self, path):\n"
                "        self.buffer.dump(path)\n"
            ),
        },
        "PERF001",
        "src/repro/core/buffer.py",
    ),
    (
        "socket-in-slave",
        {
            "src/repro/core/slave.py": (
                "import socket\n\ndef dial():\n    return socket.socket()\n"
            ),
        },
        "PERF001",
        "src/repro/core/slave.py",
    ),
    (
        "open-helper-called-from-master",
        {
            "src/repro/core/buffer.py": _OPEN_HELPER,
            "src/repro/core/master.py": (
                "from repro.core.buffer import dump\n\n"
                "def epoch(path):\n    dump(path)\n"
            ),
        },
        "PERF001",
        "src/repro/core/buffer.py",
    ),
    (
        "aliased-clock-import",
        {
            "src/repro/core/master.py": (
                "from time import monotonic as mono\n\n"
                "def epoch():\n    return mono()\n"
            ),
        },
        "SIM001",
        "src/repro/core/master.py",
    ),
    (
        "clock-passed-as-callback",
        {
            "src/repro/core/master.py": (
                "import time\n\ndef setup(reg):\n    reg(time.perf_counter)\n"
            ),
        },
        "SIM001",
        "src/repro/core/master.py",
    ),
    (
        "direct-default-rng",
        {
            "src/repro/workload/w.py": (
                "import numpy as np\n\n"
                "def draw():\n    return np.random.default_rng(7).random()\n"
            ),
        },
        "SIM002",
        "src/repro/workload/w.py",
    ),
    (
        "open-in-partition-group",
        {"src/repro/core/partition_group.py": _OPEN_HELPER},
        "PERF001",
        "src/repro/core/partition_group.py",
    ),
    (
        "sleep-in-join-module",
        {
            "src/repro/core/join_module.py": (
                "import time\n\ndef pause():\n    time.sleep(1)\n"
            ),
        },
        "PERF001",
        "src/repro/core/join_module.py",
    ),
]


@pytest.mark.parametrize(
    "sources, rule, path",
    [row[1:] for row in MUTANTS],
    ids=[row[0] for row in MUTANTS],
)
def test_mutant_is_flagged_at_its_sink(sources, rule, path):
    found = [(f.rule, f.path) for f in lint_sources(sources).findings]
    assert (rule, path) in found, found


# ---------------------------------------------------------------------------
# SIM001 — no wall-clock reads
# ---------------------------------------------------------------------------

WALL_CLOCK_BAD = """\
import time
from time import perf_counter
import datetime

def tick():
    a = time.time()
    b = perf_counter()
    c = datetime.datetime.now()
    time.sleep(0.1)
    return a, b, c
"""


class TestSIM001:
    def test_flags_every_read_with_line_numbers(self):
        keys = finding_keys(
            {"src/repro/core/x.py": WALL_CLOCK_BAD}, only={"SIM001"}
        )
        assert keys == [
            "SIM001 src/repro/core/x.py:2",  # the import binds a sink
            "SIM001 src/repro/core/x.py:6",
            "SIM001 src/repro/core/x.py:7",
            "SIM001 src/repro/core/x.py:8",
            "SIM001 src/repro/core/x.py:9",
        ]

    def test_allowlisted_files_may_touch_the_clock(self):
        for entry in RULES["SIM001"].allowed:
            path = f"src/{entry}"
            assert finding_keys({path: WALL_CLOCK_BAD}, only={"SIM001"}) == []

    def test_callers_of_an_allowlisted_clock_are_clean(self):
        sources = {
            "src/repro/runtime/wall.py": (
                "import time\ndef now():\n    return time.time()\n"
            ),
            "src/repro/core/thing.py": (
                "from repro.runtime.wall import now\n"
                "def tick():\n    return now()\n"
            ),
        }
        assert finding_keys(sources, only={"SIM001"}) == []

    def test_star_import_of_the_clock_module(self):
        bad = "from time import *\n"
        assert finding_keys({"src/repro/core/x.py": bad}, only={"SIM001"}) == [
            "SIM001 src/repro/core/x.py:1"
        ]

    def test_faults_package_is_in_scope(self):
        """The fault plane runs on simulated time like everything else:
        no wall-clock exemption for repro.faults."""
        keys = finding_keys(
            {"src/repro/faults/x.py": WALL_CLOCK_BAD}, only={"SIM001"}
        )
        assert keys == [
            "SIM001 src/repro/faults/x.py:2",
            "SIM001 src/repro/faults/x.py:6",
            "SIM001 src/repro/faults/x.py:7",
            "SIM001 src/repro/faults/x.py:8",
            "SIM001 src/repro/faults/x.py:9",
        ]

    def test_simulated_now_is_fine(self):
        clean = "def step(rt):\n    return rt.now() + 1.0\n"
        assert finding_keys({"src/repro/core/x.py": clean}, only={"SIM001"}) == []

    def test_import_alias_is_resolved(self):
        bad = "import time as walltime\nt0 = walltime.monotonic()\n"
        assert finding_keys({"src/repro/core/x.py": bad}, only={"SIM001"}) == [
            "SIM001 src/repro/core/x.py:2"
        ]


# ---------------------------------------------------------------------------
# SIM002 — randomness through the registry only
# ---------------------------------------------------------------------------

RANDOM_BAD = """\
import random
import numpy as np

def jitter():
    rng = np.random.default_rng(7)
    return random.random() + rng.normal()
"""


class TestSIM002:
    def test_flags_stdlib_and_numpy_module_state(self):
        keys = finding_keys({"src/repro/core/x.py": RANDOM_BAD}, only={"SIM002"})
        assert keys == [
            "SIM002 src/repro/core/x.py:1",
            "SIM002 src/repro/core/x.py:5",
            "SIM002 src/repro/core/x.py:6",
        ]

    def test_rng_module_is_exempt(self):
        assert finding_keys({"src/repro/simul/rng.py": RANDOM_BAD}, only={"SIM002"}) == []

    def test_generator_annotations_are_fine(self):
        clean = (
            "import numpy as np\n"
            "from numpy.random import Generator\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    assert isinstance(rng, Generator)\n"
            "    return float(rng.normal())\n"
        )
        assert finding_keys({"src/repro/core/x.py": clean}, only={"SIM002"}) == []

    def test_callers_of_the_rng_registry_are_clean(self):
        sources = {
            "src/repro/simul/rng.py": (
                "import numpy as np\n"
                "def substream(seed):\n"
                "    return np.random.default_rng(seed)\n"
            ),
            "src/repro/core/alg.py": (
                "from repro.simul.rng import substream\n"
                "def run():\n    return substream(7)\n"
            ),
        }
        assert finding_keys(sources, only={"SIM002"}) == []

    def test_from_random_import(self):
        bad = "from random import gauss\nx = gauss(0, 1)\n"
        assert finding_keys({"src/repro/core/x.py": bad}, only={"SIM002"}) == [
            "SIM002 src/repro/core/x.py:1",
            "SIM002 src/repro/core/x.py:2",
        ]


# ---------------------------------------------------------------------------
# PERF001 — no blocking I/O outside the layers that exist to block
# ---------------------------------------------------------------------------


class TestPERF001:
    def test_imports_and_builtins_are_flagged(self):
        bad = (
            "import subprocess\n"
            "from socket import *\n"
            "import os\n"
            "def f(fd):\n"
            "    os.read(fd, 1)\n"
            "    return input()\n"
        )
        assert finding_keys({"src/repro/core/x.py": bad}, only={"PERF001"}) == [
            "PERF001 src/repro/core/x.py:1",
            "PERF001 src/repro/core/x.py:2",
            "PERF001 src/repro/core/x.py:5",
            "PERF001 src/repro/core/x.py:6",
        ]

    def test_transport_layers_may_block(self):
        sources = {
            "src/repro/net/sockets.py": (
                "import socket\n"
                "def dial(host):\n"
                "    return socket.create_connection((host, 1))\n"
            ),
            "src/repro/core/master.py": (
                "from repro.net.sockets import dial\n"
                "def epoch(host):\n    return dial(host)\n"
            ),
        }
        assert finding_keys(sources, only={"PERF001"}) == []

    def test_attribute_calls_and_a_rebound_open_are_clean(self):
        sources = {
            # Defining and calling a method named `open` is not the
            # builtin.
            "src/repro/simul/resources.py": (
                "class Gate:\n"
                "    def open(self):\n"
                "        return 0\n"
            ),
            "src/repro/core/x.py": (
                "def release(gate):\n    return gate.open()\n"
            ),
            "src/repro/core/y.py": (
                "def open(door):\n    return door\n"
                "def f():\n    return open(1)\n"
            ),
        }
        assert finding_keys(sources, only={"PERF001"}) == []


# ---------------------------------------------------------------------------
# SIM003 — no float equality on simulated timestamps
# ---------------------------------------------------------------------------

TS_EQ_BAD = """\
def check(ts, epoch_end, rt):
    if ts == epoch_end:
        return True
    if rt.now() != epoch_end:
        return False
    return ts <= epoch_end
"""


class TestSIM003:
    def test_flags_eq_and_ne(self):
        keys = finding_keys({"src/repro/core/x.py": TS_EQ_BAD}, only={"SIM003"})
        assert keys == [
            "SIM003 src/repro/core/x.py:2",
            "SIM003 src/repro/core/x.py:4",
        ]

    def test_ordering_and_none_checks_are_fine(self):
        clean = (
            "def check(ts, cutoff_ts):\n"
            "    if ts is None or cutoff_ts == None:\n"
            "        return False\n"
            "    return ts < cutoff_ts\n"
        )
        assert finding_keys({"src/repro/core/x.py": clean}, only={"SIM003"}) == []

    def test_non_timestamp_equality_is_fine(self):
        clean = "def pick(kind):\n    return kind == 'hash'\n"
        assert finding_keys({"src/repro/core/x.py": clean}, only={"SIM003"}) == []


# ---------------------------------------------------------------------------
# OBS001 — guarded trace-event construction
# ---------------------------------------------------------------------------

TRACER_MIXED = """\
class Node:
    def __init__(self, tracer):
        self.tracer = tracer

    def guarded(self, ev):
        if self.tracer.enabled:
            self.tracer.emit(ev())

    def bailout(self, ev):
        if not self.tracer.enabled:
            return
        self.tracer.emit(ev())

    def conjunction(self, ev, verbose):
        if verbose and self.tracer.enabled:
            self.tracer.emit(ev())

    def bad(self, ev):
        self.tracer.emit(ev())
"""


class TestOBS001:
    def test_only_the_unguarded_emit_is_flagged(self):
        keys = finding_keys({"src/repro/core/x.py": TRACER_MIXED}, only={"OBS001"})
        assert keys == ["OBS001 src/repro/core/x.py:19"]

    def test_obs_package_is_exempt(self):
        assert (
            finding_keys({"src/repro/obs/tracer.py": TRACER_MIXED}, only={"OBS001"})
            == []
        )

    def test_else_branch_is_not_guarded(self):
        bad = (
            "def f(tracer, ev):\n"
            "    if tracer.enabled:\n"
            "        pass\n"
            "    else:\n"
            "        tracer.emit(ev())\n"
        )
        assert finding_keys({"src/repro/core/x.py": bad}, only={"OBS001"}) == [
            "OBS001 src/repro/core/x.py:5"
        ]


# ---------------------------------------------------------------------------
# PROTO001 — protocol exhaustiveness (a project rule: needs several files)
# ---------------------------------------------------------------------------

PROTO_SOURCES = {
    "src/repro/core/protocol.py": (
        "class Message:\n"
        "    pass\n"
        "\n"
        "class Ping(Message):\n"
        "    pass\n"
        "\n"
        "class Pong(Message):\n"
        "    pass\n"
        "\n"
        "class Orphan(Message):\n"
        "    pass\n"
    ),
    "src/repro/core/master.py": (
        "from repro.core.protocol import Ping, Pong, Gone\n"
        "\n"
        "def loop(comm, peer):\n"
        "    comm.send(peer, Ping(payload=1))\n"
        "    msg = comm.recv_expect(peer, Pong)\n"
        "    if isinstance(msg, Gone):\n"
        "        return None\n"
        "    return msg\n"
    ),
    "src/repro/core/slave.py": (
        "from repro.core.protocol import Ping, Pong\n"
        "\n"
        "def loop(comm, peer):\n"
        "    msg = comm.recv_expect(peer, Ping)\n"
        "    comm.send(peer, Pong(ack=msg))\n"
    ),
}


class TestPROTO001:
    def test_unknown_dispatch_and_dead_message(self):
        keys = finding_keys(PROTO_SOURCES, only={"PROTO001"})
        assert keys == [
            # `Gone` is dispatched but is not a protocol message.
            "PROTO001 src/repro/core/master.py:6",
            # `Orphan` (def line 10) is never constructed anywhere.
            "PROTO001 src/repro/core/protocol.py:10",
        ]

    def test_sent_but_undispatched(self):
        sources = dict(PROTO_SOURCES)
        # Drop the slave: Ping is still sent by the master but now nothing
        # dispatches it, and Pong is no longer constructed.
        del sources["src/repro/core/slave.py"]
        sources["src/repro/core/master.py"] = (
            "from repro.core.protocol import Ping, Orphan\n"
            "\n"
            "def loop(comm, peer):\n"
            "    comm.send(peer, Ping(payload=1))\n"
            "    comm.send(peer, Orphan())\n"
        )
        keys = finding_keys(sources, only={"PROTO001"})
        assert "PROTO001 src/repro/core/protocol.py:4" in keys  # Ping undispatched
        assert "PROTO001 src/repro/core/protocol.py:7" in keys  # Pong unconstructed

    def test_a_class_the_protocol_imports_is_flagged_from_any_module(self):
        # `TupleBatch` is protocol vocabulary (core/protocol.py imports
        # it) but no message, whichever module the handler takes it
        # from; `NodeDown`, which the protocol never binds, stays exempt.
        sources = {
            "src/repro/core/protocol.py": (
                "from repro.data.tuples import TupleBatch\n"
                "\n"
                "class Message:\n"
                "    pass\n"
                "\n"
                "class Ping(Message):\n"
                "    batch: TupleBatch\n"
            ),
            "src/repro/core/master.py": (
                "from repro.core.protocol import Ping\n"
                "from repro.data.tuples import TupleBatch\n"
                "from repro.faults.markers import NodeDown\n"
                "\n"
                "def loop(comm, peer):\n"
                "    comm.send(peer, Ping())\n"
                "    sync = comm.recv_expect(peer, Ping, NodeDown)\n"
                "    if isinstance(sync, TupleBatch):\n"
                "        return None\n"
                "    return sync\n"
            ),
        }
        assert finding_keys(sources, only={"PROTO001"}) == [
            "PROTO001 src/repro/core/master.py:8"
        ]

    def test_clean_protocol(self):
        sources = {
            path: text
            for path, text in PROTO_SOURCES.items()
        }
        sources["src/repro/core/protocol.py"] = (
            "class Message:\n"
            "    pass\n"
            "\n"
            "class Ping(Message):\n"
            "    pass\n"
            "\n"
            "class Pong(Message):\n"
            "    pass\n"
        )
        sources["src/repro/core/master.py"] = (
            "from repro.core.protocol import Ping, Pong\n"
            "\n"
            "def loop(comm, peer):\n"
            "    comm.send(peer, Ping(payload=1))\n"
            "    return comm.recv_expect(peer, Pong)\n"
        )
        assert finding_keys(sources, only={"PROTO001"}) == []


# ---------------------------------------------------------------------------
# CFG001 — every config field read somewhere (project rule)
# ---------------------------------------------------------------------------

CFG_SOURCES = {
    "src/repro/config.py": (
        "class SystemConfig:\n"
        "    n_slaves: int = 4\n"
        "    dead_knob: float = 0.5\n"
        "\n"
        "class ObservabilityConfig:\n"
        "    enabled: bool = False\n"
    ),
    "src/repro/core/system.py": (
        "def build(cfg, obs):\n"
        "    return cfg.n_slaves + int(obs.enabled)\n"
    ),
}


class TestCFG001:
    def test_unread_field_is_flagged_at_its_declaration(self):
        keys = finding_keys(CFG_SOURCES, only={"CFG001"})
        assert keys == ["CFG001 src/repro/config.py:3"]

    def test_getattr_with_literal_counts_as_a_read(self):
        sources = dict(CFG_SOURCES)
        sources["src/repro/core/system.py"] = (
            "def build(cfg, obs):\n"
            "    knob = getattr(cfg, 'dead_knob')\n"
            "    return cfg.n_slaves + knob + int(obs.enabled)\n"
        )
        assert finding_keys(sources, only={"CFG001"}) == []

    def test_plumbing_reads_do_not_count(self):
        sources = dict(CFG_SOURCES)
        sources["src/repro/config.py"] += (
            "\n"
            "def validated(cfg):\n"
            "    assert cfg.dead_knob >= 0\n"
            "    return cfg\n"
        )
        # dead_knob is only read inside the plumbing: still dead.
        assert finding_keys(sources, only={"CFG001"}) == [
            "CFG001 src/repro/config.py:3"
        ]
