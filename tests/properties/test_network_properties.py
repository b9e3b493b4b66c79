"""Property-based differential: the production network against its oracle.

``Network`` asks the fault layer only about messages that can meet a
fault, and clamps a constant-latency link only once its messages can;
the ``ReferenceNetwork`` kept in ``tests/sim/test_network.py`` clamps
every link and asks the one hook about every message.  Random send
scripts, latency models and fault models must not be able to tell the
two apart — which holds because every fault model keeps the two scoping
contracts (``quiet_until()``, ``exposed_nodes()``), checked here as
well.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import BernoulliLoss, CompositeFaults, LinkPartition, NoFaults, NodeCrash
from repro.sim.latency import (
    ConstantLatencySpec,
    HierarchicalLatencySpec,
    UniformJitterLatencySpec,
)
from repro.sim.network import MessageStats, Network
from repro.workload.params import WorkloadParams
from tests.sim.test_network import (
    ClampedConstantLatency,
    CountingFaults,
    Ping,
    Pong,
    ReferenceNetwork,
    exposed_sends,
    play_script,
    stats_of,
)

NODES = 6
#: Registered ids plus one nobody registered: a crash model may name it
#: (the benchmark's send probe does), and a send to it raises.
UNREGISTERED = NODES + 3
#: What specs are bound against: every drawn node id, the unregistered one
#: included, is a process of it.
PARAMS = WorkloadParams(num_processes=UNREGISTERED + 1, num_resources=8, phi=2)

#: A coarse grid, so that scripts are full of same-instant bursts and of
#: messages in flight exactly across a window's edge.
instants = st.integers(min_value=0, max_value=32).map(lambda quarter: quarter / 4)
node_ids = st.integers(min_value=0, max_value=NODES - 1)
destinations = st.one_of(node_ids, node_ids, node_ids, st.just(UNREGISTERED))
messages = st.builds(
    lambda cls, payload: cls(payload), st.sampled_from([Ping, Pong]), st.integers(0, 99)
)
scripts = st.lists(st.tuples(instants, node_ids, destinations, messages), max_size=40)

#: Latency recipes: specs bound once per network so that the two sides
#: never share an RNG.
LATENCIES = {
    "constant": lambda seed: ConstantLatencySpec(gamma=1.0, local=0.25).bind(PARAMS),
    "clamped": lambda seed: ClampedConstantLatency(gamma=1.0, local=0.25).bind(PARAMS),
    "jitter": lambda seed: UniformJitterLatencySpec(gamma=1.0, jitter=0.9, seed=seed).bind(
        PARAMS
    ),
    "hierarchical": lambda seed: HierarchicalLatencySpec(
        gamma_local=0.5, gamma_remote=2.0, num_clusters=2
    ).bind(PARAMS),
}
latencies = st.tuples(st.sampled_from(sorted(LATENCIES)), st.integers(0, 5))

window_ends = st.one_of(st.just(math.inf), st.integers(1, 16).map(lambda quarter: quarter / 4))
crashes = st.tuples(
    st.just("crash"),
    st.one_of(node_ids, st.just(UNREGISTERED)),
    st.one_of(instants, st.just(1e9)),  # 1e9: armed, never fires
    window_ends,
)
partitions = st.tuples(
    st.just("partition"),
    st.lists(st.tuples(node_ids, node_ids), max_size=3),
    instants,
    window_ends,
)
losses = st.tuples(
    st.just("loss"),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 5),
    st.sampled_from([None, ("Ping",)]),
)
simple_faults = st.one_of(crashes, partitions, losses)
fault_recipes = st.one_of(
    st.none(),
    simple_faults,
    st.tuples(st.just("composite"), st.lists(simple_faults, max_size=3)),
)


def thaw(recipe):
    """Bind a fresh fault spec (own RNG) from a drawn recipe.

    A window ending at ``math.inf`` is the spec's ``None`` (never).  A spec
    that binds to nothing (zero loss, an empty composite) plays as itself,
    a layer that never drops.  Deliberate narrowing: ``LinkPartition``
    rejects a pair naming one node twice and an empty pair list, so such
    pairs are left out of a drawn partition, and one left with none is
    ``NoFaults()``.
    """
    if recipe is None:
        return None
    kind = recipe[0]
    if kind == "crash":
        _, node, at, length = recipe
        spec = NodeCrash(node=node, at=at, recover_at=None if math.isinf(length) else at + length)
    elif kind == "partition":
        _, pairs, start, length = recipe
        pairs = tuple((a, b) for a, b in pairs if a != b)
        end = None if math.isinf(length) else start + length
        spec = LinkPartition(pairs, start=start, end=end) if pairs else NoFaults()
    elif kind == "loss":
        _, p, seed, kinds = recipe
        spec = BernoulliLoss(p=p, seed=seed, kinds=kinds)
    else:
        spec = CompositeFaults(tuple(thaw(child) for child in recipe[1]))
    bound = spec.bind(PARAMS)
    return spec if bound is None else bound


def rng_states(latency, faults):
    """Final state of every RNG the bound latency and fault layer own."""
    models = [latency, faults]
    while models:
        model = models.pop()
        if model is None:
            continue
        models.extend(getattr(model, "specs", ()))
        if hasattr(model, "_rng"):
            yield model._rng.getstate()


def observe(network_cls, latency_recipe, fault_recipe, script):
    name, seed = latency_recipe
    latency, faults = LATENCIES[name](seed), thaw(fault_recipe)
    net, returned, log = play_script(network_cls, latency, faults, script, nodes=NODES)
    return returned, log, stats_of(net), list(rng_states(latency, faults))


@given(scripts, latencies, fault_recipes)
@settings(max_examples=300, deadline=None)
def test_network_is_indistinguishable_from_the_reference(script, latency_recipe, fault_recipe):
    production = observe(Network, latency_recipe, fault_recipe, script)
    reference = observe(ReferenceNetwork, latency_recipe, fault_recipe, script)
    assert production == reference
    returned, log, stats, _rngs = production
    refused = returned.count("KeyError")
    assert refused == sum(1 for _time, _src, dst, _message in script if dst == UNREGISTERED)
    # A refused send is not counted; every other one is delivered or lost
    # for good (a dropped try that was not re-sent).
    assert stats[0] == len(script) - refused == len(log) + stats[2] - stats[4]


@given(scripts, st.sampled_from(["constant", "clamped"]), simple_faults, st.booleans())
@settings(max_examples=200, deadline=None)
def test_hooks_are_asked_exactly_about_exposed_messages(script, latency, fault_recipe, scoped):
    """``scoped=False``: a model that declares nothing is asked about everything."""
    faults = CountingFaults(thaw(fault_recipe), scoped)
    latency_model = LATENCIES[latency](0)
    _net, returned, _log = play_script(Network, latency_model, faults, script, nodes=NODES)
    asked = exposed_sends(faults, script, returned, latency_model)
    if not scoped:
        assert asked == len(script) - returned.count("KeyError")
    assert faults.calls == asked


probes = st.lists(
    st.tuples(
        st.one_of(instants, st.floats(min_value=0.0, max_value=1e9, allow_nan=False)),
        st.integers(0, UNREGISTERED + 1),
        st.integers(0, UNREGISTERED + 1),
        messages,
    ),
    min_size=1,
    max_size=30,
)


@given(fault_recipes.filter(lambda recipe: recipe is not None), probes)
@settings(max_examples=300, deadline=None)
def test_hook_keeps_the_due_time_outside_the_declared_scope(fault_recipe, probed):
    """The contracts the network's exposure test and its clamp rely on.

    The hook never hands a message over before it is due.  Before
    ``quiet_until()``, or with neither endpoint in a non-``None``
    ``exposed_nodes()``, it hands it over when due and counts nothing —
    for every model and every composite, windows ending at ``math.inf``
    included.
    """
    model = thaw(fault_recipe)
    quiet, scope = model.quiet_until(), model.exposed_nodes()
    for time, src, dst, message in probed:
        stats = MessageStats()
        handed_over = model.handover(time, time, src, dst, message, stats)
        assert handed_over >= time
        if time < quiet or (scope is not None and src not in scope and dst not in scope):
            assert handed_over == time
            assert stats.dropped == 0


@given(st.lists(simple_faults, max_size=4))
def test_composite_scope_is_the_union_of_its_children(recipes):
    children = [thaw(recipe) for recipe in recipes]
    composite = CompositeFaults(tuple(children))
    scopes = [child.exposed_nodes() for child in children]
    if None in scopes:
        assert composite.exposed_nodes() is None
    else:
        assert composite.exposed_nodes() == frozenset().union(*scopes)
    assert composite.quiet_until() == min(
        (child.quiet_until() for child in children), default=math.inf
    )
