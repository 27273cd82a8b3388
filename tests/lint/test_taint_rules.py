"""Fixture corpus for the interprocedural rules SIM004/SIM005/PERF001.

Each fixture asserts exact rule ids *and* line numbers plus the witness
call-chain text — the chain is the rule's product, so it is pinned as
precisely as the location.
"""

from repro.lint import lint_sources


def fresh(sources, only):
    return sorted(lint_sources(sources, only=only).fresh)


def fresh_keys(sources, only):
    return [f.key for f in fresh(sources, only)]


# ---------------------------------------------------------------------------
# SIM004 — wall-clock taint
# ---------------------------------------------------------------------------

SIM004_SOURCES = {
    "src/repro/util/helper.py": (
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()\n"
        "\n"
        "def wrap():\n"
        "    return now()\n"
    ),
    "src/repro/core/thing.py": (
        "from repro.util.helper import wrap\n"
        "\n"
        "def tick():\n"
        "    return wrap()\n"
    ),
}


class TestSIM004:
    def test_every_edge_into_the_tainted_closure_is_flagged(self):
        assert fresh_keys(SIM004_SOURCES, only={"SIM004"}) == [
            "SIM004 src/repro/core/thing.py:4",
            "SIM004 src/repro/util/helper.py:7",
        ]

    def test_message_carries_the_full_call_chain(self):
        finding = fresh(SIM004_SOURCES, only={"SIM004"})[0]
        assert (
            "call chain: repro.core.thing.tick -> repro.util.helper.wrap "
            "-> repro.util.helper.now -> time.time" in finding.message
        )

    def test_chain_field_has_one_location_per_hop(self):
        finding = fresh(SIM004_SOURCES, only={"SIM004"})[0]
        assert finding.chain == (
            "repro.core.thing.tick (src/repro/core/thing.py:4)",
            "repro.util.helper.wrap (src/repro/util/helper.py:7)",
            "repro.util.helper.now (src/repro/util/helper.py:4)",
            "time.time",
        )

    def test_allowlisted_runtime_may_call_tainted_helpers(self):
        sources = dict(SIM004_SOURCES)
        del sources["src/repro/core/thing.py"]
        sources["src/repro/runtime/thread.py"] = (
            "from repro.util.helper import wrap\n"
            "def drive():\n    return wrap()\n"
        )
        # The helper-internal edge is still flagged; the runtime's is not.
        assert fresh_keys(sources, only={"SIM004"}) == [
            "SIM004 src/repro/util/helper.py:7"
        ]

    def test_chains_through_the_runtime_are_absorbed(self):
        sources = {
            "src/repro/runtime/thread.py": (
                "import time\ndef now():\n    return time.time()\n"
            ),
            "src/repro/core/thing.py": (
                "from repro.runtime.thread import now\n"
                "def tick():\n    return now()\n"
            ),
        }
        assert fresh_keys(sources, only={"SIM004"}) == []

    def test_ref_edge_says_may_invoke(self):
        sources = {
            "src/repro/util/helper.py": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"
            ),
            "src/repro/core/thing.py": (
                "from repro.util.helper import now\n"
                "def register(cb):\n"
                "    return cb\n"
                "def setup():\n"
                "    register(now)\n"
            ),
        }
        findings = fresh(sources, only={"SIM004"})
        ref = [f for f in findings if "may invoke" in f.message]
        assert [f.key for f in ref] == ["SIM004 src/repro/core/thing.py:5"]


# ---------------------------------------------------------------------------
# SIM005 — RNG taint
# ---------------------------------------------------------------------------

SIM005_SOURCES = {
    "src/repro/util/pick.py": (
        "import random\n"
        "\n"
        "def choose(xs):\n"
        "    return random.choice(xs)\n"
    ),
    "src/repro/core/alg.py": (
        "from repro.util.pick import choose\n"
        "\n"
        "def run(xs):\n"
        "    return choose(xs)\n"
    ),
}


class TestSIM005:
    def test_caller_of_rng_tainted_helper_is_flagged(self):
        assert fresh_keys(SIM005_SOURCES, only={"SIM005"}) == [
            "SIM005 src/repro/core/alg.py:4"
        ]

    def test_chain_names_the_rng_sink(self):
        finding = fresh(SIM005_SOURCES, only={"SIM005"})[0]
        assert "random.choice" in finding.message
        assert finding.chain[-1] == "random.choice"

    def test_rng_registry_module_is_a_barrier(self):
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
        assert fresh_keys(sources, only={"SIM005"}) == []

    def test_numpy_generator_type_references_stay_exempt(self):
        sources = {
            "src/repro/core/alg.py": (
                "import numpy as np\n"
                "def run(rng):\n"
                "    assert isinstance(rng, np.random.Generator)\n"
                "    return rng\n"
            )
        }
        assert fresh_keys(sources, only={"SIM005"}) == []


# ---------------------------------------------------------------------------
# PERF001 — blocking reachability on the hot path
# ---------------------------------------------------------------------------

PERF_SOURCES = {
    "src/repro/util/helpers.py": (
        "import socket\n"
        "\n"
        "def poke(host):\n"
        "    s = socket.socket()\n"
        "    s.connect((host, 1))\n"
    ),
    "src/repro/core/join_module.py": (
        "import time\n"
        "from repro.util.helpers import poke\n"
        "\n"
        "def probe(host):\n"
        "    poke(host)\n"
        "\n"
        "def pause():\n"
        "    time.sleep(1)\n"
    ),
}


class TestPERF001:
    def test_transitive_and_direct_blocking_calls_are_flagged(self):
        assert fresh_keys(PERF_SOURCES, only={"PERF001"}) == [
            "PERF001 src/repro/core/join_module.py:5",
            "PERF001 src/repro/core/join_module.py:8",
        ]

    def test_direct_call_message_and_chain(self):
        findings = fresh(PERF_SOURCES, only={"PERF001"})
        direct = [f for f in findings if f.line == 8][0]
        assert "blocking call `time.sleep`" in direct.message
        assert direct.chain == (
            "repro.core.join_module.pause "
            "(src/repro/core/join_module.py:8)",
            "time.sleep",
        )

    def test_out_of_scope_modules_are_not_roots(self):
        sources = dict(PERF_SOURCES)
        sources["src/repro/core/slave.py"] = sources.pop(
            "src/repro/core/join_module.py"
        )
        # slave.py is not a modeled hot path: no PERF001 findings there.
        assert fresh_keys(sources, only={"PERF001"}) == []

    def test_transport_layers_are_barriers(self):
        sources = {
            "src/repro/net/sockets.py": (
                "import socket\n"
                "def dial(host):\n    return socket.create_connection((host, 1))\n"
            ),
            "src/repro/core/master.py": (
                "from repro.net.sockets import dial\n"
                "def epoch(host):\n    return dial(host)\n"
            ),
        }
        assert fresh_keys(sources, only={"PERF001"}) == []

    def test_open_on_the_hot_path_is_flagged(self):
        sources = {
            "src/repro/core/partition_group.py": (
                "def dump(path, rows):\n"
                "    with open(path, 'w') as fh:\n"
                "        fh.write(str(rows))\n"
            )
        }
        assert fresh_keys(sources, only={"PERF001"}) == [
            "PERF001 src/repro/core/partition_group.py:2"
        ]


# ---------------------------------------------------------------------------
# Project-rule findings honor line-scoped pragmas (regression)
# ---------------------------------------------------------------------------


class TestProjectRulePragmas:
    def test_sim004_finding_is_pragma_suppressible(self):
        sources = dict(SIM004_SOURCES)
        sources["src/repro/core/thing.py"] = (
            "from repro.util.helper import wrap\n"
            "\n"
            "def tick():\n"
            "    return wrap()  # lint: disable=SIM004\n"
        )
        result = lint_sources(sources, only={"SIM004"})
        assert [f.key for f in result.fresh] == [
            "SIM004 src/repro/util/helper.py:7"
        ]
        assert result.suppressed == 1

    def test_perf001_direct_finding_is_pragma_suppressible(self):
        sources = {
            "src/repro/core/partition_group.py": (
                "def dump(path, rows):\n"
                "    with open(path, 'w') as fh:  # lint: disable=PERF001\n"
                "        fh.write(str(rows))\n"
            )
        }
        result = lint_sources(sources, only={"PERF001"})
        assert result.fresh == []
        assert result.suppressed == 1

    def test_pragma_is_line_scoped_for_project_rules(self):
        sources = dict(SIM004_SOURCES)
        sources["src/repro/core/thing.py"] = (
            "from repro.util.helper import wrap\n"
            "\n"
            "def tick():\n"
            "    wrap()  # lint: disable=SIM004\n"
            "    return wrap()\n"
        )
        result = lint_sources(sources, only={"SIM004"})
        keys = [f.key for f in result.fresh]
        assert "SIM004 src/repro/core/thing.py:5" in keys
        assert "SIM004 src/repro/core/thing.py:4" not in keys
