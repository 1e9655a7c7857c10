"""Recovery protocols: the paper's protocol and the Table 1 baselines.

Every protocol implements :class:`repro.protocols.base.BaseRecoveryProcess`
and runs on the identical substrate (simulator, network, storage,
application model), so the comparison harness can measure Table 1's columns
empirically: message-ordering assumptions, asynchrony of recovery, rollbacks
per failure, piggybacked clock size, and tolerance of concurrent failures.

Rows of Table 1:

========================  ==============================================
Strom & Yemini [27]       :class:`~repro.protocols.strom_yemini.StromYeminiProcess`
Johnson & Zwaenepoel [11] :class:`~repro.protocols.sender_based.SenderBasedProcess`
Sistla & Welch [26]       :class:`~repro.protocols.sistla_welch.SistlaWelchProcess`
Peterson & Kearns [19]    :class:`~repro.protocols.peterson_kearns.PetersonKearnsProcess`
Smith/Johnson/Tygar [25]  :class:`~repro.protocols.smith_johnson_tygar.SmithJohnsonTygarProcess`
Damani & Garg (paper)     :class:`~repro.core.recovery.DamaniGargProcess`
========================  ==============================================

Extra context baselines: receiver-side pessimistic logging [3, 20]
(:class:`~repro.protocols.pessimistic_receiver.PessimisticReceiverProcess`)
and Koo-Toueg-style coordinated checkpointing [13]
(:class:`~repro.protocols.coordinated.CoordinatedProcess`).
"""

from repro import _lazy_exports

#: Each public name and the module that defines it.
_EXPORTS = {
    "BaseRecoveryProcess": "repro.protocols.base",
    "CausalLoggingProcess": "repro.protocols.causal_logging",
    "CoordinatedProcess": "repro.protocols.coordinated",
    "PessimisticReceiverProcess": "repro.protocols.pessimistic_receiver",
    "PetersonKearnsProcess": "repro.protocols.peterson_kearns",
    "ProtocolConfig": "repro.protocols.base",
    "ProtocolStats": "repro.protocols.base",
    "SenderBasedProcess": "repro.protocols.sender_based",
    "SistlaWelchProcess": "repro.protocols.sistla_welch",
    "SmithJohnsonTygarProcess": "repro.protocols.smith_johnson_tygar",
    "StromYeminiProcess": "repro.protocols.strom_yemini",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
