"""A node host builds the nodes it runs and nothing else: a process or
tcp node holds no other node's state."""

import pytest

from repro.config import SystemConfig
from repro.core.cluster import slave_node_id, standby_node_id
from repro.core.collector import CollectorNode
from repro.core.host import NodeHost
from repro.core.master import MasterNode
from repro.core.standby import StandbyNode
from repro.net.sim_transport import SimTransport
from repro.obs.tracer import NULL_TRACER
from repro.runtime.sim import SimRuntime
from repro.simul.kernel import Simulator
from repro.workload.generator import TwoStreamWorkload


@pytest.fixture
def built(monkeypatch):
    """The names of the node and workload classes constructed."""
    names = []
    for cls in (MasterNode, StandbyNode, CollectorNode, TwoStreamWorkload):
        init = cls.__init__

        def spy(self, *args, _cls=cls, _init=init, **kwargs):
            names.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return names


def host_of(cfg, node_ids):
    sim = Simulator()
    transport = SimTransport(sim, cfg.network, cfg.tuple_bytes)
    return NodeHost(cfg, SimRuntime(sim), transport, NULL_TRACER, node_ids=node_ids)


CFG = SystemConfig.paper_defaults().scaled(0.02).with_(
    num_slaves=3, npart=12, standby=True
)


def test_a_slave_host_builds_no_master_collector_or_workload(built):
    slave = slave_node_id(1)
    cluster = host_of(CFG, [slave]).cluster
    assert built == []
    assert [s.node_id for s in cluster.slaves] == [slave]
    assert cluster.master is cluster.standby is cluster.collector is None
    assert {owner for _, owner, _ in cluster.processes()} == {slave}
    # It starts with the partitions the master deals it.
    whole = host_of(CFG, None).cluster
    assert cluster.slaves[0].module.owned_pids() == (
        whole.master.state.pids_of(slave)
    )


def test_the_standby_host_builds_the_shadow_master_only(built):
    cluster = host_of(CFG, [standby_node_id(CFG)]).cluster
    assert built == ["TwoStreamWorkload", "MasterNode", "StandbyNode"]
    assert cluster.master is cluster.collector is None
    assert cluster.slaves == []


def test_without_node_ids_every_node_is_built(built):
    host = host_of(CFG, None)
    assert host.node_ids == [0, 1, 2, 3, 4, 5]
    assert built.count("MasterNode") == 2  # the master and the shadow
    assert len(host.cluster.slaves) == CFG.num_slaves
