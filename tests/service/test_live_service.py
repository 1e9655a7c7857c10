"""Live-engine service tests: exactly-once through a real SIGKILL.

One real shard (gateway + 2 replicas over TCP), one closed-loop session
hammering a single key through the supervisor's SIGKILL window with the
real :class:`~repro.service.client.KVClient` retry machinery.  The
sequential acked versions 1..N are the strongest client-visible form of
the exactly-once contract: a duplicated application would skip a number,
a lost acked write would repeat one, and a stale ack would regress.
The simulator half of this contract is
``tests/service/test_exactly_once.py``.
"""

import asyncio

from repro.service import KVClient, ServiceConfig, ShardManager


def test_single_session_versions_survive_sigkill(tmp_path):
    config = ServiceConfig(
        shards=1,
        nodes_per_shard=3,
        run_seconds=7.0,
        crash_at=1.2,
        downtime=0.5,
    )
    manager = ShardManager(config, str(tmp_path))
    manager.start()
    manager.wait_ready()

    async def drive():
        client = KVClient(
            manager.routing,
            manager.endpoints(),
            request_timeout=0.3,
        )
        await client.start()
        session = client.session()
        versions = []
        # Keep one put in flight until well past the crash+recovery
        # window, retrying the same op id on every timeout.
        while client.now() < config.crash_at + config.downtime + 1.5:
            reply = await session.put(
                "hot", len(versions), deadline=client.now() + 10.0
            )
            assert reply is not None, "put never acked"
            versions.append(int(reply["version"]))
        read = await session.get(
            "hot",
            min_version=len(versions),
            deadline=client.now() + 10.0,
        )
        retries = sum(m.retries for m in client.metrics)
        await client.aclose()
        return versions, read, retries

    versions, read, retries = asyncio.run(drive())
    manager.stop()   # run_seconds is a cap; the workload is done
    results = manager.join()

    # The SIGKILL actually happened mid-session.
    assert results[0].kills, "no SIGKILL was delivered"

    # Exactly-once + monotone: acked versions are exactly 1..N in order.
    assert len(versions) >= 3
    assert versions == list(range(1, len(versions) + 1))

    # Read-your-writes after recovery: the final read sits exactly at
    # the last acked version and holds the last written value.
    assert read is not None, "post-recovery read never satisfied the floor"
    assert int(read["version"]) == len(versions)
    assert int(read["value"]) == len(versions) - 1

    # The gateway injected every attempt; the dedup ledger absorbed the
    # retried ones (at least one retry happened around the kill in the
    # common case -- but a lucky schedule may dodge the window, so only
    # the version sequence above is load-bearing).
    assert retries >= 0
