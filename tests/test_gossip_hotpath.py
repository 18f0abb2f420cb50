"""The gossip plane's hot path does the same work as the code it replaced.

Four pins (docs/gossip.md, "Cost model"):

* the indexed :class:`~repro.gossip.PeerStore` against the scan-based store
  it replaced (``tests/oracles/peerstore_reference.py``), driven in lockstep
  by generated operation sequences;
* the push envelope size the agent assembles from memoized parts against
  ``measured_size`` of the envelope it describes, and against the reference
  walk ``_payload_size``;
* two golden swarm runs, a steady one, and one with a crashed Super-Peer so
  probes fail and hearsay goes stale (the store's scanning path) — recorded
  on the commit before the indexed store landed, and once more when the
  per-round draw moved from ``shuffled`` to ``RngTree.picks`` (which picks
  other targets, so every gossip timeline moved);
* the draw itself costs what it picks: a gossip run builds
  ``numpy.random.Generator`` objects per agent, never per round.
"""

import contextlib

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.des import Simulator
from repro.experiments.config import EXPERIMENT_CONFIG, EXPERIMENT_LINK_SCALE
from repro.faults import FaultInjector, FaultPlan, SuperPeerCrash
from repro.gossip import GossipAgent, PeerStore
from repro.gossip import agent as gossip_agent
from repro.net import Address, Network, UniformLinkModel
from repro.p2p import P2PConfig, build_cluster
from repro.rmi import RmiRuntime
from repro.rmi.invocation import OnewayMessage
from repro.util.rng import RngTree
from repro.util.serialization import ENVELOPE_BYTES, measured_size

from tests.oracles.payload_reference import _payload_size
from tests.oracles.peerstore_reference import PeerStore as ReferenceStore

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- differential oracle ---------------------------------------------------------

#: more addresses than the store holds, chosen so that ``"host:port"`` string
#: order and ``Address`` tuple order disagree ("h10:80" < "h1:4000",
#: "a:10" < "a:9")
ADDRESSES = [
    Address("h1", 4000), Address("h10", 80), Address("h1", 80),
    Address("a", 9), Address("a", 10), Address("sp-b", 4100),
    Address("sp-a", 4100), Address("h2", 4000), Address("h20", 4000),
]
ROLES = ("daemon", "superpeer", "spawner")
LIMIT = 4
STALE_AFTER = 1.0

addresses = st.sampled_from(ADDRESSES)


def _row(record):
    if record is None:
        return None
    return (record.peer_id, record.role, record.address, record.last_seen,
            record.fails)


class StoresInLockstep(RuleBasedStateMachine):
    """Every operation goes to both stores; every answer must agree."""

    def __init__(self):
        super().__init__()
        self.new = PeerStore(LIMIT, STALE_AFTER)
        self.ref = ReferenceStore(LIMIT, STALE_AFTER)
        self.now = 0.0

    # arbitrary floats, so staleness ties that exist only after rounding
    # ``now - last_seen`` are in reach; steps past ``stale_after`` included,
    # and backwards ones: the old store never needed a monotone clock
    @rule(dt=st.floats(min_value=-2.5 * STALE_AFTER,
                       max_value=2.5 * STALE_AFTER))
    def advance(self, dt):
        self.now += dt

    def _upsert(self, peer, role, address, heard):
        got = self.new.upsert(peer, role, address, self.now, heard=heard)
        want = self.ref.upsert(peer, role, address, self.now, heard=heard)
        assert _row(got) == _row(want)  # who was evicted, if anyone

    @rule(peer=st.sampled_from(["p", "q", "é"]), role=st.sampled_from(ROLES),
          address=addresses, heard=st.booleans())
    def upsert(self, peer, role, address, heard):
        self._upsert(peer, role, address, heard)

    @precondition(lambda self: len(self.new) == LIMIT)
    @rule(address=addresses)
    def full_store_learns_hearsay(self, address):
        """What a push mostly is: hearsay arriving at a full store."""
        self._upsert("n", "daemon", address, False)

    @rule(address=addresses)
    def mark_failed(self, address):
        self.new.mark_failed(address)
        self.ref.mark_failed(address)

    @rule(address=addresses)
    def mark_alive(self, address):
        self.new.mark_alive(address, self.now)
        self.ref.mark_alive(address, self.now)

    @rule(address=addresses)
    def drop(self, address):
        self.new.drop(address)
        self.ref.drop(address)

    @rule(seed=st.integers(0, 2**16), k=st.integers(0, LIMIT + 1),
          stream=st.integers(0, 2))
    def sample(self, seed, k, stream):
        got = self.new.sample(RngTree(seed), k, stream)
        want = self.ref.sample(RngTree(seed), k, None, stream)
        assert [_row(r) for r in got] == [_row(r) for r in want]
        # callers append to the sample: it must never be the store's own list
        assert got is not self.new.ordered()

    @rule(role=st.sampled_from(ROLES))
    def addresses_of_role(self, role):
        assert (self.new.addresses_of_role(role)
                == self.ref.addresses_of_role(role))

    @invariant()
    def same_view_and_counters(self):
        assert ([_row(r) for r in self.new.records()]
                == [_row(r) for r in self.ref.records()])
        assert self.new.evictions == self.ref.evictions
        assert self.new.rejections == self.ref.rejections
        assert len(self.new) == len(self.ref)

    @invariant()
    def indexes_describe_the_view(self):
        records = self.new.records()
        assert self.new._failing == sum(1 for r in records if r.fails)
        assert all(self.new._oldest_seen <= r.last_seen for r in records)
        assert self.new.ordered() == sorted(records,
                                            key=lambda r: str(r.address))
        for role in ROLES:
            assert self.new.of_role(role) == [r for r in self.new.ordered()
                                              if r.role == role]


StoresInLockstep.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoresInLockstep = StoresInLockstep.TestCase


def test_records_of_one_address_share_one_key_string():
    a, b = PeerStore(4, 1.0), PeerStore(4, 1.0)
    for store in (a, b):
        store.upsert("p", "daemon", Address("h1", 4000), 0.0, heard=True)
    assert a.records()[0].key is b.records()[0].key
    assert a.records()[0].key == "h1:4000"


# -- envelope-size drift ---------------------------------------------------------

HERE = Address("here", 5000)

texts = st.text(max_size=6)  # non-ASCII included: charged by UTF-8 length
peers = st.lists(
    st.tuples(texts, st.sampled_from(ROLES),
              st.text(alphabet="abcé", min_size=1, max_size=4),
              st.integers(1, 65535)),
    max_size=8, unique_by=lambda p: (p[2], p[3]),
)
rumor_keys = st.tuples(st.sampled_from(["stab", "spawner"]), texts,
                       st.integers(0, 99))
rumor_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
rumor_maps = st.dictionaries(
    rumor_keys,
    st.tuples(st.tuples(st.integers(0, 9), st.integers(0, 9)), rumor_values),
    max_size=4,
)


@contextlib.contextmanager
def _agent_with_recorded_oneways():
    sim = Simulator()
    net = Network(sim, link_model=UniformLinkModel(latency=1e-3))
    runtime = RmiRuntime(net, net.new_host(HERE.host), HERE.port)
    config = P2PConfig(gossip_enabled=True)
    with pytest.MonkeyPatch.context() as mp:
        # every record rides every push
        mp.setattr(gossip_agent, "GOSSIP_PEER_LIMIT", 8)
        mp.setattr(gossip_agent, "GOSSIP_EXCHANGE", 8)
        agent = GossipAgent(runtime, "moi-é", "daemon", config, RngTree(1))
        sent = []
        runtime.oneway = lambda stub, method, *args, size=None: sent.append(
            (stub.object_name, method, args, size))
        yield agent, sent


def _assert_sizes_match_the_envelopes(sent):
    for object_name, method, args, size in sent:
        envelope = OnewayMessage(object_name, method, args, {})
        assert size == measured_size(envelope)
        assert size == ENVELOPE_BYTES + _payload_size(envelope, depth=0)


@COMMON
@given(view=peers, rumors=rumor_maps, renamed=st.data())
def test_push_envelope_size_equals_the_measured_size(view, rumors, renamed):
    with _agent_with_recorded_oneways() as (agent, sent):
        for peer_id, role, host, port in view:
            agent._learn(peer_id, role, Address(host, port), heard=True)
        for key, (version, value) in rumors.items():
            agent.set_rumor(key, version, value)
        agent._push_round(agent.rng.child("round", 0))
        assert bool(sent) == bool(len(agent.store))

        # a known address comes back under another id or role: its memoized
        # entry size must not survive
        for peer_id, role, host, port in view:
            agent._learn(renamed.draw(texts), renamed.draw(st.sampled_from(ROLES)),
                         Address(host, port), heard=True)
        agent._push_round(agent.rng.child("round", 1))
        _assert_sizes_match_the_envelopes(sent)


def test_push_envelope_size_with_rumors_nested_past_the_pickle_depth():
    with _agent_with_recorded_oneways() as (agent, sent):
        agent._learn("p", "daemon", Address("h1", 4000), heard=True)
        agent.set_rumor(("deep", "k", 0), (0, 1), [[[[[["bottom", {"x": (1, 2)}]]]]]])
        agent._push_round(agent.rng.child("round", 0))
        assert sent
        _assert_sizes_match_the_envelopes(sent)


# -- golden swarm runs -----------------------------------------------------------

GOLDEN_CONFIG = EXPERIMENT_CONFIG.with_(gossip_enabled=True)


def _golden_run(until, crash_at=None):
    """A 40-Daemon / 4-Super-Peer gossip swarm at seed 7."""
    cluster = build_cluster(n_daemons=40, n_superpeers=4, seed=7,
                            config=GOLDEN_CONFIG,
                            link_scale=EXPERIMENT_LINK_SCALE)
    if crash_at is not None:
        FaultInjector(cluster.sim,
                      FaultPlan.of(SuperPeerCrash(time=crash_at, sp_id="SP1")),
                      rng=cluster.rng.child("faults"), cluster=cluster)
    cluster.sim.run(until=until)
    agents = [e.gossip for e in (*cluster.superpeers,
                                 *cluster.daemons.values())]
    return {
        "events": cluster.sim.event_count,
        "network": cluster.network.stats(),
        "pushes_sent": sum(a.pushes_sent for a in agents),
        "evictions": sum(a.store.evictions for a in agents),
        "rejections": sum(a.store.rejections for a in agents),
    }


def test_golden_steady_gossip_swarm():
    assert _golden_run(2.0) == {
        "events": 25064,
        "network": {
            "sent": 8051, "delivered": 7988,
            "bytes_sent": 4610671, "bytes_delivered": 4579775,
            "dropped_dead": 0, "dropped_loss": 0,
            "dropped_partition": 0,
        },
        "pushes_sent": 3486,
        "evictions": 3000,
        "rejections": 707,
    }


def test_golden_gossip_swarm_with_a_crashed_superpeer():
    assert _golden_run(4.0, crash_at=0.5) == {
        "events": 48497,
        "network": {
            "sent": 15600, "delivered": 15196,
            "bytes_sent": 8863436, "bytes_delivered": 8672020,
            "dropped_dead": 337, "dropped_loss": 0,
            "dropped_partition": 0,
        },
        "pushes_sent": 6866,
        "evictions": 6414,
        "rejections": 1214,
    }


# -- the draw builds no Generator --------------------------------------------------


def test_a_gossip_run_builds_generators_per_agent_not_per_round(monkeypatch):
    cluster = build_cluster(n_daemons=40, n_superpeers=4, seed=7,
                            config=GOLDEN_CONFIG,
                            link_scale=EXPERIMENT_LINK_SCALE)
    agents = [e.gossip for e in (*cluster.superpeers,
                                 *cluster.daemons.values())]
    built = []
    default_rng = numpy.random.default_rng

    def counting_default_rng(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(numpy.random, "default_rng", counting_default_rng)
    cluster.sim.run(until=1.0)
    assert sum(a._round_no for a in agents) >= len(agents)  # rounds did run
    # one phase-stagger draw per agent, one bootstrap shuffle per Daemon:
    # O(agents), where a Generator per draw would be three per agent per round
    assert 0 < len(built) <= 3 * len(agents)
