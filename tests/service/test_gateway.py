"""The reply forwarder of a replica's :class:`ServicePort`."""

from types import SimpleNamespace

from repro.live.framing import parse_frame
from repro.service.gateway import ServicePort
from repro.service.kv import KVReply, KVServiceApp


class _Writer:
    def __init__(self):
        self.frames = []

    def write(self, data):
        self.frames.append(parse_frame(data))


def test_reply_tail_is_held_until_a_reader_connects():
    """A restarted replica re-emits replies before any client has
    redialled its reply port.  Forwarding them to nobody dropped them:
    the forwarder must keep its place until somebody listens."""
    reply = KVReply(op_id=(7, 8), key="a", value=8, version=3)
    port = ServicePort(
        1,
        SimpleNamespace(outputs=[(0.0, reply)]),
        KVServiceApp(replicas=2),
        {"reply_ports": [0, 0]},
    )
    port._forward_replies()
    assert port.report()["replies_forwarded"] == 0

    reader = _Writer()
    port._writers.add(reader)
    port._forward_replies()
    assert port.report()["replies_forwarded"] == 1
    assert len(reader.frames) == 1 and b'"seq":8' in reader.frames[0]
