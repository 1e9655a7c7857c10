"""White-box tests of DamaniGargProcess internals."""

import json
import pickle

import pytest

from repro.core.ftvc import ClockEntry
from repro.core.recovery import AppEnvelope, DamaniGargProcess
from repro.harness.scenarios import ScriptedApp
from repro.live import codec
from repro.live.wire import WireDecoder, WireEncoder
from repro.protocols.base import ProtocolConfig
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind
from repro.storage.checkpoint import SEND_LOG
from repro.testing import ScenarioBuilder


def simple_run(**builder_kwargs):
    return (
        ScenarioBuilder(n=3)
        .app(
            ScriptedApp(
                bootstrap_sends={0: [(1, "a"), (2, "b")]},
                rules={(1, "a"): [(2, "c")]},
            )
        )
        .run()
    )


class TestCheckpointExtras:
    def test_extras_hold_clock_history_and_seq(self):
        result = simple_run()
        protocol = result.protocols[1]
        protocol.take_checkpoint()
        extras = protocol.storage.checkpoints.latest().extras
        assert extras["clock"] == protocol.clock
        assert extras["send_seq"] == protocol._send_seq
        assert "history" in extras
        # No retransmission config: no send stream.
        assert SEND_LOG not in extras and not protocol.storage.sends

    def test_retransmit_config_adds_send_state(self):
        result = (
            ScenarioBuilder(n=2)
            .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
            .config(ProtocolConfig(checkpoint_interval=1e9,
                                   flush_interval=1e9,
                                   retransmit_on_token=True))
            .run()
        )
        protocol = result.protocols[0]
        storage = protocol.storage
        # Checkpoint 0 followed the bootstrap send onto the send stream.
        first = storage.checkpoints.latest().extras[SEND_LOG]
        assert first.end == 1
        protocol.inject_app_send(1, "n")
        protocol.take_checkpoint()
        extras = storage.checkpoints.latest().extras
        history = extras[SEND_LOG]
        assert "delivered_ids" in extras and history.end == 2
        # The history is the stream's prefix up to its offset ...
        assert [
            (sent.dst, sent.envelope.payload, sent.envelope.dedup_id)
            for sent in storage.sends[:history.end]
        ] == [(1, "m", (0, 0)), (1, "n", (0, 1))]
        assert list(history) == storage.sends[:2]
        assert list(first) == storage.sends[:1]
        # ... and pickles as that offset, not as a copy of the sends.
        blob = pickle.dumps(history, protocol=4)
        assert b"AppEnvelope" not in blob and len(blob) < 80
        assert pickle.loads(blob) == history
        with pytest.raises(RuntimeError, match="before a storage bound"):
            list(pickle.loads(blob))

    def test_history_in_extras_is_isolated(self):
        result = simple_run()
        protocol = result.protocols[2]
        protocol.take_checkpoint()
        snapshot = protocol.storage.checkpoints.latest().extras["history"]
        before = snapshot.size()
        from repro.core.tokens import RecoveryToken

        protocol.history.observe_token(RecoveryToken(0, 5, 1))
        assert snapshot.size() == before


class TestStableFrontier:
    def test_frontier_advances_on_flush(self):
        result = simple_run()
        protocol = result.protocols[1]
        # Deliveries since the initial checkpoint sit in the volatile log:
        # the stable frontier lags the live clock...
        assert protocol.stable_frontier() < protocol.clock[1]
        # ...and catches up exactly at a flush.
        protocol.flush_log()
        assert protocol.stable_frontier() == protocol.clock[1]

    def test_frontier_is_own_entry_type(self):
        result = simple_run()
        frontier = result.protocols[0].stable_frontier()
        assert isinstance(frontier, ClockEntry)


def _through_json(msg):
    return codec.decode(json.loads(json.dumps(codec.encode(msg))))


def _through_binary(msg):
    return WireDecoder().decode_data(WireEncoder().data_frame(0, msg))[1]


class TestGossipedFrontier:
    """A bare entry crosses the live codecs only as the gossip payload,
    and arrives as a plain pair: the receive boundary re-types it."""

    def _protocol(self):
        result = (
            ScenarioBuilder(n=3)
            .app(ScriptedApp(bootstrap_sends={0: [(1, "a")]}))
            .config(ProtocolConfig(enable_gc=True))
            .run()
        )
        return result.protocols[0]

    def _gossip(self, src, entry):
        return NetworkMessage(
            msg_id=100 + src, src=src, dst=0, kind="frontier",
            payload=(src, entry), send_time=0.0,
        )

    @pytest.mark.parametrize("through", [_through_json, _through_binary])
    def test_decoded_frontier_is_retyped_and_the_sweep_collects(self, through):
        protocol = self._protocol()
        assert len(protocol.storage.checkpoints) > 1
        newest = protocol.storage.checkpoints.latest()
        for src in range(3):
            protocol.on_network_message(
                through(self._gossip(src, ClockEntry(0, 7)))
            )
        # The third report completed the vector and ran apply_stability,
        # whose GC pass reads ``.version`` off every frontier entry.
        assert all(
            type(entry) is ClockEntry and entry == (0, 7)
            for entry in protocol._frontier_reports.values()
        )
        # Every checkpoint is within the reported frontier: GC keeps
        # only the newest.
        assert list(protocol.storage.checkpoints) == [newest]

    def test_decoded_frontier_is_validated(self):
        protocol = self._protocol()
        with pytest.raises(ValueError, match="negative clock entry"):
            protocol.on_network_message(
                _through_binary(self._gossip(1, (0, -1)))
            )


class TestClockByUid:
    def test_every_surviving_state_has_a_clock(self):
        from repro.analysis.causality import build_ground_truth

        result = (
            ScenarioBuilder(n=2)
            .app(ScriptedApp(bootstrap_sends={0: [(1, "a"), (1, "b")]}))
            .latency(0, 1, 1.0, 2.0)
            .flush(pid=1, at=1.5)
            .crash(at=5.0, pid=1, downtime=1.0)
            .run()
        )
        gt = build_ground_truth(result.trace, 2)
        for pid in range(2):
            clock_map = result.protocols[pid].clock_by_uid
            for uid in gt.surviving[pid]:
                assert uid in clock_map, uid

    def test_clocks_strictly_increase_along_a_chain(self):
        from repro.analysis.causality import build_ground_truth

        result = simple_run()
        gt = build_ground_truth(result.trace, 3)
        for pid in range(3):
            clocks = result.protocols[pid].clock_by_uid
            chain = [u for u in gt.surviving[pid] if u in clocks]
            for earlier, later in zip(chain, chain[1:]):
                assert clocks[earlier] < clocks[later]


class TestHeldMessages:
    def test_release_reexamines_all(self):
        """Held messages must be re-checked, not blindly delivered."""
        result = (
            ScenarioBuilder(n=3)
            .app(
                ScriptedApp(
                    bootstrap_sends={2: [(1, "x"), (1, "y")]},
                    rules={
                        (1, "x"): [(0, "from-lost")],
                        (1, "y"): [(0, "post-restart")],
                    },
                )
            )
            # x reaches P1 pre-crash (unflushed -> lost); its message to P0
            # is slow and arrives after P1's token: plain obsolete discard.
            # y reaches P1 post-restart; its message to P0 arrives BEFORE
            # the token (postponed), then delivers at token time.
            .latency(2, 1, 1.0, 10.0)            # x t=1; y t=10 (post-restart)
            .latency(1, 0, 30.0, 2.0)            # from-lost t=31; post t=12
            .latency(1, 0, 15.0, kind="token")   # token to P0 at t=~23
            .crash(at=4.0, pid=1, downtime=1.0)
            .run()
        )
        p0 = result.protocols[0]
        postpones = result.trace.events(EventKind.POSTPONE, pid=0)
        discards = result.trace.events(EventKind.DISCARD, pid=0)
        assert len(postpones) == 1               # "post-restart" held
        assert [e["reason"] for e in discards] == ["obsolete"]  # "from-lost"
        assert p0.executor.state == ("post-restart",)
        result.assert_recovered()
        assert p0._held == []


class TestPiggybackAccounting:
    def test_entry_count_matches_n(self):
        result = simple_run()
        for protocol in result.protocols:
            assert protocol.piggyback_entry_count() == 3

    def test_bits_counted_per_send(self):
        result = simple_run()
        total_sent = sum(p.stats.app_sent for p in result.protocols)
        total_bits = sum(p.stats.piggyback_bits for p in result.protocols)
        assert total_bits == total_sent * 3 * 33   # 3 entries x (32+1) bits


class TestEnvelope:
    def test_envelope_is_immutable_value(self):
        from repro.core.ftvc import FaultTolerantVectorClock as FTVC

        env = AppEnvelope(
            payload="p", clock=FTVC.initial(0, 2), dedup_id=(0, 1)
        )
        assert env == AppEnvelope(
            payload="p", clock=FTVC.initial(0, 2), dedup_id=(0, 1)
        )
