"""Worker-importable task callables for the engine tests.

These live in a real module (not a test function) because the engine
resolves tasks by ``"module:callable"`` reference inside the worker
process.
"""

import os


def square(payload):
    return payload["x"] ** 2


def boom(payload):
    raise ValueError(f"boom {payload['x']}")


def die(payload):
    # Simulates a segfault/OOM-kill: the process vanishes without Python
    # cleanup, so no exception and no report ever reach the parent.
    os._exit(41)


def die_if_victim(payload):
    if payload["x"] == payload["victim"]:
        os._exit(43)
    return payload["x"] * 10


def nap_pid(payload):
    """Nap 20 ms and report which process ran the task; the victim dies
    like ``die_if_victim``'s."""
    import time

    if payload["x"] == payload["victim"]:
        os._exit(43)
    time.sleep(0.02)
    return os.getpid()


def exit_now(payload):
    raise SystemExit(f"exit {payload['x']}")


def unpicklable(payload):
    return lambda: payload
