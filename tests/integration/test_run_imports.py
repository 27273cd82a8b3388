"""A run imports no numpy module lazily.

Some numpy functions import a subpackage on their first call (in numpy
2.x ``np.unique`` imports ``numpy.ma``).  On the run path that import
lands inside the first join step of every ``process`` node (forked
before any pass ran) and every ``tcp`` node (a fresh interpreter), so
each slave pays it again.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

# Compared before and after the runs, not as absolute membership:
# numpy 1.x imports ``numpy.ma`` with ``numpy`` itself.
SCRIPT = """
import sys
from repro import JoinSystem, SystemConfig

cfg = SystemConfig.paper_defaults().scaled(0.01).with_(
    npart=12, rate=1500.0, num_slaves=2, run_seconds=12.0,
    warmup_seconds=6.0, window_seconds=3.0, reorg_epoch=4.0,
)
configs = [cfg.with_(routing=routing) for routing in ("hash", "atr", "ctr")]
before = set(sys.modules)
results = [JoinSystem(c).run() for c in configs]
assert sum(s["splits"] for s in results[0].slaves)  # fine tuning ran
new = sorted(set(sys.modules) - before)
print(" ".join(m for m in new if m == "numpy" or m.startswith("numpy.")))
"""


def test_runs_import_no_numpy_module_lazily():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
