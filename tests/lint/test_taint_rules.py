"""Multi-file fixtures for the sink rules.

The sink rules judge each file on its own, but a lint run always covers
a whole source tree. These fixtures lint several modules at once and
check that a pragma or an exemption in one place does not leak into,
or get lost in, the rest of the run.
"""

from repro.lint import lint_sources

CLOCK_SOURCES = {
    "src/repro/util/helper.py": (
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()\n"
    ),
    "src/repro/core/thing.py": (
        "import time\n"
        "\n"
        "def tick():\n"
        "    time.time()  # lint: disable=SIM001\n"
        "    return time.time()\n"
    ),
}


class TestSIM005:
    """Numpy's Generator type is not module-level random state."""

    def test_numpy_generator_type_references_stay_exempt(self):
        sources = {
            "src/repro/core/alg.py": (
                "import numpy as np\n"
                "def run(rng):\n"
                "    assert isinstance(rng, np.random.Generator)\n"
                "    return rng\n"
            )
        }
        assert lint_sources(sources, only={"SIM002"}).fresh == []


class TestProjectRulePragmas:
    def test_pragma_is_line_scoped_for_project_rules(self):
        result = lint_sources(CLOCK_SOURCES, only={"SIM001"})
        assert sorted(f.key for f in result.fresh) == [
            "SIM001 src/repro/core/thing.py:5",
            "SIM001 src/repro/util/helper.py:4",
        ]
        assert result.suppressed == 1
