"""Public-API surface tests: the names the README promises must exist,
be importable from their documented locations, and carry docstrings."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "2.0.0"


# The frozen top-level surface.  Removing or renaming any of these names
# is a breaking change and must bump the major version; additions belong
# here too so the freeze stays exact.
FROZEN_TOP_LEVEL = [
    "AppEnvelope",
    "Application",
    "BaseRecoveryProcess",
    "ClockEntry",
    "CrashPlan",
    "DamaniGargProcess",
    "DeliveryOrder",
    "EventKind",
    "ExperimentResult",
    "ExperimentSpec",
    "FailureInjector",
    "FaultTolerantVectorClock",
    "History",
    "HistoryRecord",
    "LiveEnv",
    "Network",
    "NetworkMessage",
    "NullTracer",
    "PartitionPlan",
    "ProcessContext",
    "ProcessHost",
    "ProtocolConfig",
    "ProtocolStats",
    "RecordKind",
    "RecoveryToken",
    "RuntimeEnv",
    "SimEnv",
    "SimTrace",
    "Simulator",
    "TimerHandle",
    "TraceEvent",
    "Tracer",
    "run_experiment",
    "__version__",
]


def test_top_level_all_is_frozen():
    assert sorted(repro.__all__) == sorted(FROZEN_TOP_LEVEL)


def test_top_level_all_resolves():
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        assert hasattr(repro, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.NoSuchName  # noqa: B018


def test_env_implementations_share_the_interface():
    from repro import LiveEnv, RuntimeEnv, SimEnv

    assert issubclass(SimEnv, RuntimeEnv)
    assert issubclass(LiveEnv, RuntimeEnv)
    # One class per simulated process: the host is the env.
    assert repro.ProcessHost is SimEnv


PUBLIC_MODULES = [
    "repro.core",
    "repro.core.ftvc",
    "repro.core.history",
    "repro.core.tokens",
    "repro.core.recovery",
    "repro.core.extensions",
    "repro.clocks",
    "repro.sim",
    "repro.storage",
    "repro.protocols",
    "repro.apps",
    "repro.dsm",
    "repro.analysis",
    "repro.harness",
    "repro.stress",
    "repro.exec",
    "repro.testing",
    "repro.runtime",
    "repro.runtime.env",
    "repro.live",
    "repro.service",
]


# The frozen client-facing service surface (see repro/service/__init__.py).
# Removing or renaming any of these is a breaking change and must bump
# the major version; additions belong here too so the freeze stays exact.
FROZEN_SERVICE = [
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


def test_service_all_is_frozen():
    import repro.service

    assert sorted(repro.service.__all__) == sorted(FROZEN_SERVICE)


def test_service_surface_resolves_and_documents_itself():
    import repro.service

    for name in FROZEN_SERVICE:
        obj = getattr(repro.service, name)
        assert obj.__doc__, f"repro.service.{name} lacks a docstring"


# The frozen RuntimeEnv protocol surface: everything an engine must
# provide and everything a protocol may call.
FROZEN_RUNTIME_ENV = [
    "alive",
    "attach",
    "broadcast",
    "crash_count",
    "n",
    "now",
    "pid",
    "resume_timer",
    "schedule_after",
    "schedule_at",
    "send",
    "storage",
    "suspend_timer",
    "tracer",
]


def test_runtime_env_surface_is_frozen():
    from repro.runtime import RuntimeEnv

    for name in FROZEN_RUNTIME_ENV:
        assert hasattr(RuntimeEnv, name) or name in getattr(
            RuntimeEnv, "__annotations__", {}
        ), f"RuntimeEnv.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_documents_itself(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 40, module_name


@pytest.mark.parametrize(
    "module_name",
    ["repro.analysis", "repro.apps", "repro.exec", "repro.harness",
     "repro.protocols", "repro.sim", "repro.storage", "repro.dsm",
     "repro.core", "repro.service"],
)
def test_package_all_is_accurate(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_readme_quickstart_names_exist():
    from repro import (                                    # noqa: F401
        CrashPlan,
        DamaniGargProcess,
        ExperimentSpec,
        ProtocolConfig,
        run_experiment,
    )
    from repro.analysis import check_recovery, check_theorem1  # noqa: F401
    from repro.apps import RandomRoutingApp                    # noqa: F401


def test_every_public_class_has_a_docstring():
    import inspect

    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
