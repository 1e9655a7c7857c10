"""repro.service: the sharded, multi-tenant KV service over live shards.

This is the client-facing layer of the reproduction: the paper's cheap
optimistic recovery only matters if *client-visible* semantics --
exactly-once application, session monotonicity -- survive crash and
rollback, and this package is where those semantics are assembled and
measured over many independent recovery domains.

Public API tour
---------------

Booting a service (S shards, each a full damani-garg live cluster)::

    from repro.service import ServiceConfig, ShardManager

    config = ServiceConfig(shards=2, nodes_per_shard=4)
    manager = ShardManager(config, workdir="/tmp/svc")
    manager.start()
    manager.wait_ready()

Talking to it (asyncio; retried ops keep their ``(session, seq)`` id,
so the shard's per-session ledger dedupes them even across a crash)::

    from repro.service import KVClient

    client = KVClient(manager.routing, manager.endpoints())
    await client.start()
    session = client.session()
    ack = await session.put("user:42", 7)      # ratchets the version floor
    reply = await session.get("user:42")       # never below the floor

Routing (versioned key -> shard map, salted independently of the
in-shard key -> primary placement)::

    from repro.service import RoutingTable
    shard = manager.routing.shard_for("user:42")

Grading it: ``python -m repro serve`` checks each shard's trace with
:func:`repro.service.bench.check_shard_trace`; the open-loop load, the
replica SIGKILL and the exactly-once audit are the ``service_crash``
workload of ``benchmarks/perf``.

The served workload itself -- wire types, the session-deduping replica
state, and the shard application -- lives in
:mod:`repro.service.kv` and is engine-free: the same
:class:`KVServiceApp` runs under the deterministic simulator in tests
and under the live runtime in production shards.

Frozen surface
--------------

``repro.service.__all__`` is pinned by ``tests/test_public_api.py``
(``FROZEN_SERVICE``): removing or renaming an exported name is a
breaking change and must bump the major version.
"""

from repro import _lazy_exports
from repro.service.kv import (
    KVGet,
    KVPut,
    KVReplicate,
    KVReply,
    KVServiceApp,
    ServiceReplicaState,
)

__all__ = [
    "KVClient",
    "KVGet",
    "KVPut",
    "KVReplicate",
    "KVReply",
    "KVServiceApp",
    "KVSession",
    "RoutingTable",
    "ServiceConfig",
    "ServiceReplicaState",
    "ShardEndpoint",
    "ShardManager",
]

#: Names resolved lazily: the client and manager halves pull in the
#: live runtime (asyncio, subprocess supervision), which the engine-free
#: half of the package must not load eagerly, and a replica never routes.
__getattr__, __dir__ = _lazy_exports(globals(), {
    "RoutingTable": "repro.service.routing",
    "KVClient": "repro.service.client",
    "KVSession": "repro.service.client",
    "ShardEndpoint": "repro.service.client",
    "ServiceConfig": "repro.service.manager",
    "ShardManager": "repro.service.manager",
})
