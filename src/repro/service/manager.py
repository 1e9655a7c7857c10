"""Boot and supervise S independent shard clusters as one service.

Each shard is a complete damani-garg live cluster -- its own supervisor
thread, storage directory, epoch, SIGKILL schedule, and (optionally) a
seeded :class:`~repro.live.faults.LiveFaultPlan` -- so each shard is one
independent *recovery domain*: a crash in shard 2 rolls back nothing in
shard 0.  The :class:`ShardManager` allocates the client-facing ports up
front (so a respawned replica rebinds the same reply port), compiles one
:class:`~repro.live.supervisor.LiveClusterSpec` per shard with the
``kind="kv"`` application, runs every cluster in its own thread, and
publishes the :class:`~repro.service.routing.RoutingTable` plus the
endpoint list clients connect to.

Crashes always target replicas (pids >= 1); the gateway (pid 0) is the
shard's durable intake ledger and is deliberately outside the failure
plan -- see :mod:`repro.service.kv`.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.live.faults import LiveFaultPlan
from repro.live.supervisor import (
    LiveClusterSpec,
    LiveCrashPlan,
    LiveRunResult,
    _free_ports,
    run_cluster,
)
from repro.service.client import ShardEndpoint
from repro.service.routing import RoutingTable


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one service run needs: topology, pacing, failure plan."""

    shards: int = 2
    nodes_per_shard: int = 4            # 1 gateway + (nodes - 1) replicas
    #: env-time cap on the run; ShardManager.stop() may end it earlier
    run_seconds: float = 12.0
    linger: float = 1.5
    checkpoint_interval: float = 0.5
    flush_interval: float = 0.15
    #: one SIGKILL per shard, aimed at a replica, at this env-time
    crash_replicas: bool = True
    crash_at: float = 2.0
    downtime: float = 0.75
    #: draw a seeded LiveFaultPlan per shard (None: no network faults)
    fault_seed: int | None = None
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.nodes_per_shard < 2:
            raise ValueError("a shard needs a gateway plus >= 1 replica")

    @property
    def replicas(self) -> int:
        """Replica count per shard (everything but the gateway)."""
        return self.nodes_per_shard - 1


class ShardManager:
    """Owns the S shard clusters of one service run."""

    def __init__(self, config: ServiceConfig, workdir: str) -> None:
        self.config = config
        self.workdir = workdir
        self.routing = RoutingTable(shards=config.shards)
        self._threads: list[threading.Thread] = []
        self._results: dict[int, LiveRunResult] = {}
        self._errors: dict[int, BaseException] = {}
        self._endpoints: list[ShardEndpoint] = []
        self._specs: list[LiveClusterSpec] = []
        os.makedirs(workdir, exist_ok=True)
        # Shared early-stop signal: every node in every shard polls this
        # path, so run_seconds is a cap and stop() ends the run as soon
        # as the workload is done (see LiveClusterSpec.stop_path).
        self.stop_path = os.path.join(workdir, "stop.signal")
        if os.path.exists(self.stop_path):
            os.remove(self.stop_path)   # stale signal from a previous run
        for shard in range(config.shards):
            service_ports = _free_ports(config.nodes_per_shard, config.host)
            ingress_port, reply_ports = service_ports[0], service_ports[1:]
            self._endpoints.append(
                ShardEndpoint(
                    shard=shard,
                    host=config.host,
                    ingress_port=ingress_port,
                    reply_ports=tuple(reply_ports),
                )
            )
            self._specs.append(self._shard_spec(shard, ingress_port,
                                                reply_ports))

    def _shard_spec(
        self, shard: int, ingress_port: int, reply_ports: list[int]
    ) -> LiveClusterSpec:
        config = self.config
        crashes = []
        if config.crash_replicas:
            # Never pid 0: each shard loses one replica, round-robin so
            # different shards exercise different primaries.
            victim = 1 + shard % config.replicas
            crashes.append(
                LiveCrashPlan(
                    pid=victim, at=config.crash_at, downtime=config.downtime
                )
            )
        faults = LiveFaultPlan()
        if config.fault_seed is not None:
            from repro.stress import seeded_fault_plan

            faults = seeded_fault_plan(
                config.fault_seed + shard,
                n=config.nodes_per_shard,
                run_seconds=config.run_seconds,
            )
        return LiveClusterSpec(
            n=config.nodes_per_shard,
            protocol="damani-garg",
            run_seconds=config.run_seconds,
            linger=config.linger,
            checkpoint_interval=config.checkpoint_interval,
            flush_interval=config.flush_interval,
            crashes=crashes,
            faults=faults,
            host=config.host,
            app={
                "kind": "kv",
                "replicas": config.replicas,
                "shard": shard,
                "routing_version": self.routing.version,
                "service_host": config.host,
                "ingress_port": ingress_port,
                "reply_ports": list(reply_ports),
            },
            # Long-running service posture: decentralised stability so
            # GC keeps checkpoints and logs bounded while the shard
            # keeps serving.
            gossip_interval=0.5,
            enable_gc=True,
            stop_path=self.stop_path,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Write the routing/endpoints files and boot every shard."""
        with open(
            os.path.join(self.workdir, "routing.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(self.routing.to_dict(), fh, indent=2)
        with open(
            os.path.join(self.workdir, "endpoints.json"), "w",
            encoding="utf-8",
        ) as fh:
            json.dump(
                [
                    {
                        "shard": ep.shard,
                        "host": ep.host,
                        "ingress_port": ep.ingress_port,
                        "reply_ports": list(ep.reply_ports),
                    }
                    for ep in self._endpoints
                ],
                fh,
                indent=2,
            )
        for shard, spec in enumerate(self._specs):
            shard_dir = os.path.join(self.workdir, f"shard{shard}")

            def run(shard: int = shard, spec: LiveClusterSpec = spec,
                    shard_dir: str = shard_dir) -> None:
                try:
                    self._results[shard] = run_cluster(spec, shard_dir)
                except BaseException as exc:   # surfaced by join()
                    self._errors[shard] = exc

            thread = threading.Thread(
                target=run, name=f"shard-{shard}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def endpoints(self) -> list[ShardEndpoint]:
        """Where clients connect, one entry per shard."""
        return list(self._endpoints)

    def wait_ready(self, timeout: float = 45.0) -> None:
        """Block until every shard's service ports accept connections."""
        deadline = time.monotonic() + timeout
        for ep in self._endpoints:
            for port in (ep.ingress_port, *ep.reply_ports):
                while True:
                    if ep.shard in self._errors:
                        raise RuntimeError(
                            f"shard {ep.shard} failed during boot"
                        ) from self._errors[ep.shard]
                    try:
                        with socket.create_connection(
                            (ep.host, port), timeout=0.25
                        ):
                            break
                    except OSError:
                        if time.monotonic() > deadline:
                            raise RuntimeError(
                                f"shard {ep.shard} port {port} never "
                                "came up"
                            ) from None
                        time.sleep(0.05)

    def stop(self) -> None:
        """End the run early: publish the stop signal every node polls.

        ``run_seconds`` stays the hard cap; this just moves the end of
        the run phase forward to *now* (plus each node's linger drain).
        Idempotent; safe to call before :meth:`join`.
        """
        with open(self.stop_path, "w", encoding="utf-8"):
            pass

    def join(self, timeout: float | None = None) -> dict[int, LiveRunResult]:
        """Wait for every shard cluster to finish; return their results."""
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish in time")
        if self._errors:
            shard, exc = sorted(self._errors.items())[0]
            raise RuntimeError(f"shard {shard} failed") from exc
        return dict(self._results)
