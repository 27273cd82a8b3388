"""Interprocedural purity rules: SIM004, SIM005, PERF001.

The per-file rules (SIM001/SIM002) police *direct* sink use with a
module allowlist; these project rules close the indirect hole: a helper
that calls ``time.time()`` is caught by SIM001 **at the helper**, but
every simulated component that *calls the helper* was previously
invisible.  Here the shared project call graph
(:meth:`~repro.lint.source.Project.callgraph`) is taint-analyzed
(:mod:`repro.lint.dataflow`) and each call edge into a tainted function
becomes a finding carrying the witness chain down to the sink.

**SIM004 — wall-clock taint.**  A function transitively reaching
``time.time``/``perf_counter``/``datetime.now`` (the SIM001 sink set)
is wall-clock-tainted.  Calling such a function from outside the
runtime/transport allowlist is a finding.  Allowlisted modules are
taint *barriers*: the thread runtime is entitled to the clock, so
chains that pass through it are absorbed, not reported.

**SIM005 — RNG-substream taint.**  Randomness must flow from
``simul/rng.py`` substreams; any function transitively touching stdlib
``random`` or ``numpy.random`` module state taints its callers the same
way (``numpy.random.Generator``/``BitGenerator`` *type* references stay
exempt, as in SIM002).

**PERF001 — blocking-call reachability.**  The master epoch loop
(``core/master.py``), the probe path (``core/join_module.py``) and the
window store (``core/partition_group.py``) are the modeled hot paths: one real
``socket``/``select``/``sleep``/file-I/O call inside them stalls the
epoch-synchronized schedule for every node.  Direct blocking calls in
those modules are flagged, and so is any call whose resolvable chain
reaches one; the runtime/transport/observability/CLI layers — which
exist to block — are barriers.
"""

from __future__ import annotations

import typing as t

from repro.lint.callgraph import CallGraph, CallSite
from repro.lint.dataflow import TaintResult, TaintSpec, propagate
from repro.lint.finding import Finding
from repro.lint.registry import ProjectRule, register
from repro.lint.rules.randomness import RNG_ALLOWED_SUFFIXES, _NUMPY_TYPE_NAMES
from repro.lint.rules.simtime import (
    WALL_CLOCK_ALLOWED_SUFFIXES,
    WALL_CLOCK_NAMES,
)
from repro.lint.source import Project

#: The modeled hot paths PERF001 protects (reachability roots).
BLOCKING_SCOPE_SUFFIXES: tuple[str, ...] = (
    "repro/core/master.py",
    "repro/core/join_module.py",
    "repro/core/probe.py",
    "repro/core/partition_group.py",
)

#: Layers that exist to block: wall-clock backends, real transports,
#: observability exporters/admin, the CLI, analysis plotting, and the
#: lint engine itself (it reads source trees from disk).
BLOCKING_ALLOWED_FRAGMENTS: tuple[str, ...] = (
    "repro/runtime/",
    "repro/net/",
    "repro/obs/",
    "repro/analysis/",
    "repro/lint/",
)
BLOCKING_ALLOWED_SUFFIXES: tuple[str, ...] = ("repro/cli.py",)

#: Blocking sink prefixes (module state) and exact names.
_BLOCKING_PREFIXES: tuple[str, ...] = (
    "socket.",
    "select.",
    "selectors.",
    "subprocess.",
    "http.",
    "urllib.",
)
_BLOCKING_NAMES = frozenset(
    {
        "open",
        "input",
        "time.sleep",
        "io.open",
        "os.open",
        "os.read",
        "os.write",
        "os.fsync",
        "os.fdopen",
        "os.popen",
        "os.system",
    }
)


def _is_wall_clock(name: str) -> bool:
    return name in WALL_CLOCK_NAMES


def _is_rng(name: str) -> bool:
    if name == "random" or name.startswith("random."):
        return True
    if name == "numpy.random" or name.startswith("numpy.random."):
        tail = name[len("numpy.random") :].lstrip(".")
        head = tail.split(".", 1)[0] if tail else ""
        return head not in _NUMPY_TYPE_NAMES
    return False


def _is_blocking(name: str) -> bool:
    return name in _BLOCKING_NAMES or name.startswith(_BLOCKING_PREFIXES)


def _chain_strings(
    caller: str, site: CallSite, taints: TaintResult
) -> tuple[str, ...]:
    """Rendered witness: flagged call site, then each hop, then the sink."""
    hops = [f"{caller} ({site.path}:{site.lineno})"]
    hops.extend(step.render() for step in taints.chain(site.callee))
    hops.append(taints.sink(site.callee))
    return tuple(hops)


def _chain_text(chain: tuple[str, ...]) -> str:
    """Compact qualname-only arrow chain for the finding message."""
    names = [hop.split(" (", 1)[0] for hop in chain]
    return " -> ".join(names)


class _TaintRule(ProjectRule):
    """Shared finding emission: every call edge into a tainted function."""

    spec_name: t.ClassVar[str] = ""
    remedy: t.ClassVar[str] = ""

    def _spec(self) -> TaintSpec:
        raise NotImplementedError  # pragma: no cover

    def _in_scope(self, path: str) -> bool:
        """May the flagged caller live in *path*?  (Rule-specific.)"""
        raise NotImplementedError  # pragma: no cover

    def check_project(self, project: Project) -> t.Iterator[Finding]:
        graph: CallGraph = project.callgraph()
        spec = self._spec()
        taints = propagate(graph, spec)
        seen: set[tuple[str, int, str]] = set()
        for caller in graph.all_callers():
            path = graph.path_of(caller)
            if spec.is_barrier(path) or not self._in_scope(path):
                continue
            for site in graph.calls.get(caller, []):
                if site.callee not in taints:
                    continue
                anchor = (site.path, site.lineno, site.callee)
                if anchor in seen:
                    continue
                seen.add(anchor)
                chain = _chain_strings(caller, site, taints)
                sink = taints.sink(site.callee)
                verb = (
                    "may invoke" if site.kind == "ref" else "transitively reaches"
                )
                yield Finding(
                    path=site.path,
                    line=site.lineno,
                    rule=self.id,
                    message=(
                        f"`{site.callee}` {verb} {self.spec_name} "
                        f"`{sink}` (call chain: {_chain_text(chain)}) — "
                        f"{self.remedy}"
                    ),
                    chain=chain,
                )
            yield from self._direct_findings(graph, caller, spec)

    def _direct_findings(
        self, graph: CallGraph, caller: str, spec: TaintSpec
    ) -> t.Iterator[Finding]:
        """Hook: rules that also flag direct sink calls override this."""
        return iter(())


@register
class WallClockTaint(_TaintRule):
    """SIM004: calling a wall-clock-tainted function off the allowlist."""

    id = "SIM004"
    summary = (
        "no call chain may reach the host clock from outside the "
        "runtime/transport allowlist (interprocedural SIM001)"
    )
    spec_name = "wall-clock"
    remedy = "simulated components must take time from the runtime (rt.now())"

    def _spec(self) -> TaintSpec:
        return TaintSpec(
            name="wall-clock",
            is_source=_is_wall_clock,
            is_barrier=lambda path: path.endswith(WALL_CLOCK_ALLOWED_SUFFIXES),
        )

    def _in_scope(self, path: str) -> bool:
        return True


@register
class RngTaint(_TaintRule):
    """SIM005: calling an RNG-tainted function outside simul/rng.py."""

    id = "SIM005"
    summary = (
        "no call chain may reach stdlib random / numpy.random module "
        "state except through simul/rng.py substreams (interprocedural "
        "SIM002)"
    )
    spec_name = "unseeded randomness"
    remedy = (
        "randomness must flow from a named RngRegistry substream "
        "(simul/rng.py)"
    )

    def _spec(self) -> TaintSpec:
        return TaintSpec(
            name="rng",
            is_source=_is_rng,
            is_barrier=lambda path: path.endswith(RNG_ALLOWED_SUFFIXES),
        )

    def _in_scope(self, path: str) -> bool:
        return True


def _blocking_barrier(path: str) -> bool:
    return path.endswith(BLOCKING_ALLOWED_SUFFIXES) or any(
        fragment in path for fragment in BLOCKING_ALLOWED_FRAGMENTS
    )


@register
class BlockingReachability(_TaintRule):
    """PERF001: blocking calls reachable from the modeled hot paths."""

    id = "PERF001"
    summary = (
        "no socket/select/sleep/file-I/O reachable from the master "
        "epoch loop, the join-module probe path, or the window store"
    )
    spec_name = "a blocking call"
    remedy = (
        "the epoch-synchronized hot path must never block on the host "
        "(move the I/O behind the runtime/transport layer)"
    )

    def _spec(self) -> TaintSpec:
        return TaintSpec(
            name="blocking",
            is_source=_is_blocking,
            is_barrier=_blocking_barrier,
        )

    def _in_scope(self, path: str) -> bool:
        return path.endswith(BLOCKING_SCOPE_SUFFIXES)

    def _direct_findings(
        self, graph: CallGraph, caller: str, spec: TaintSpec
    ) -> t.Iterator[Finding]:
        # Unlike SIM004/SIM005 (where SIM001/SIM002 already flag the
        # direct sink line), nothing else polices a literal `open()` or
        # `socket.socket()` on the hot path — flag it here.
        for ext in graph.externals.get(caller, []):
            if spec.is_source(ext.name):
                chain = (f"{caller} ({ext.path}:{ext.lineno})", ext.name)
                yield Finding(
                    path=ext.path,
                    line=ext.lineno,
                    rule=self.id,
                    message=(
                        f"blocking call `{ext.name}` on the modeled hot "
                        f"path (call chain: {_chain_text(chain)}) — "
                        f"{self.remedy}"
                    ),
                    chain=chain,
                )
