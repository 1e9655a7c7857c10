"""The pre-RuntimeEnv attribute paths were removed in 2.0.

``protocol.host`` / ``protocol.sim`` warned through the 1.x line; the
spellings are now gone outright.  Host-passing construction, which never
warned, still works: the host *is* the env.
"""

import warnings

import pytest

from repro.core.recovery import DamaniGargProcess
from repro.harness.scenarios import ScriptedApp
from repro.sim import ProcessHost
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RandomStreams


@pytest.fixture
def host():
    sim = Simulator()
    network = Network(sim, 1, streams=RandomStreams(0))
    return ProcessHost(0, sim, network)


@pytest.fixture
def protocol(host):
    return DamaniGargProcess(host, ScriptedApp())


def test_protocol_host_is_gone(protocol):
    with pytest.raises(AttributeError):
        protocol.host  # noqa: B018


def test_protocol_sim_is_gone(protocol):
    with pytest.raises(AttributeError):
        protocol.sim  # noqa: B018


@pytest.mark.parametrize("name", ["KVPut", "KVGet", "KVReplicate", "KVReply"])
def test_apps_kv_wire_type_reexports_are_gone(name):
    import repro.apps
    import repro.apps.kvstore
    import repro.service.kv

    assert hasattr(repro.service.kv, name)
    for module in (repro.apps, repro.apps.kvstore):
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_legacy_host_construction_still_works(host):
    # Passing the ProcessHost itself (the pre-env constructor signature)
    # must keep working -- the host is the env.
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # and without warning: supported
        protocol = DamaniGargProcess(host, ScriptedApp())
    assert protocol.env is host
    assert protocol.pid == 0


def test_env_path_does_not_warn(protocol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert protocol.env.alive
        assert protocol.env.now == 0.0
        protocol.env.schedule_after(1.0, lambda: None)
