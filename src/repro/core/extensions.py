"""Section 6.5 extensions, made concrete in ``DamaniGargProcess``.

**Output commit** (``ProtocolConfig.commit_outputs``) -- "Before
committing an output to the environment, a process must make sure that
it will never rollback the current state or lose it in a failure."  A
state is *permanently safe* once its entire causal past is on stable
storage: for each clock entry ``(v, t)`` of process ``j`` either a token
for ``(j, v)`` is known and ``t`` is at or below its restoration point,
or ``v`` is ``j``'s current version and ``t`` is within ``j``'s flushed
frontier.  Outputs are held, with stable dedup keys so crashes cannot
double-commit, until the test passes.

**Garbage collection** (``enable_gc``; Remark 2, after Wang et al.
[28]) -- a checkpoint whose clock is permanently safe can never be the
target of a future rollback scan, so every older checkpoint and the log
prefix below it can be reclaimed.

Both run in ``apply_stability`` sweeps, driven on both engines by
stability gossip (``gossip_interval``): every interval each process
broadcasts its flushed frontier -- one clock entry -- and sweeps once it
holds a report from every peer.  A stale report is sound because, with
gossip on, a rollback never re-mints a ``(version, timestamp)`` pair.
"""
