"""Unit tests for per-process stable storage."""

from repro.storage.stable import StableStorage


def test_token_log_is_synchronous_and_ordered():
    storage = StableStorage(0)
    storage.log_token("t1")
    storage.log_token("t2")
    assert storage.tokens == ["t1", "t2"]
    assert storage.sync_writes == 2


def test_tokens_returns_copy():
    storage = StableStorage(0)
    storage.log_token("t1")
    listing = storage.tokens
    listing.append("bogus")
    assert storage.tokens == ["t1"]


def test_kv_put_get():
    storage = StableStorage(0)
    storage.put("version", 3)
    assert storage.get("version") == 3
    assert storage.get("missing", "default") == "default"


def test_crash_preserves_everything_except_volatile_log():
    storage = StableStorage(0)
    storage.log.append(1, 0, "stable")
    storage.log.flush()
    storage.log.append(2, 0, "volatile")
    storage.log_token("tok")
    storage.put("version", 1)
    storage.checkpoints.take(0.0, {"s": 1}, 0)

    lost = storage.on_crash()

    assert lost == 1
    assert storage.log.stable_length == 1
    assert storage.tokens == ["tok"]
    assert storage.get("version") == 1
    assert len(storage.checkpoints) == 1


def test_heal_is_a_no_op_on_clean_image():
    """Every transition is one record, so ``heal`` of a reopened image
    finds nothing to repair and writes nothing."""
    from repro.storage.intents import heal

    storage = StableStorage(0)
    storage.put("k", 1)
    writes_before = storage.sync_writes
    assert heal(storage) == []
    assert storage.sync_writes == writes_before
    assert storage.intents_begun == 0
