"""Exemption fixtures for the sink rules.

SIM002 bans numpy's module-level random state, not its types: a
``Generator`` accepted as a parameter is how registry streams travel.
"""

from repro.lint import lint_sources


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
        assert lint_sources(sources, only={"SIM002"}).findings == []
