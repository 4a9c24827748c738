"""The deployable Zmail system (the paper's primary contribution).

Assembles compliant ISPs, non-compliant peers and the central bank into a
runnable deployment (:class:`ZmailNetwork`), with zero-sum e-penny
transfer (§4.1), user/ISP/bank exchange (§4.2–§4.3), bulk reconciliation
with misbehaviour detection (§4.4), mailing-list acknowledgments, zombie
containment and incremental-deployment modelling (§5).
"""

from .audit import EconomicAuditor, IspPosition, MintingAlert
from .bank import Bank, BuyResult
from .config import NonCompliantMailPolicy, ZmailConfig
from .deployment import AdoptionParams, AdoptionRound, AdoptionSimulation
from .epenny import (
    EMAIL_COST_EPENNIES,
    EPENNY_PRICE_DOLLARS,
    Money,
    dollars_to_epennies,
    epennies_to_dollars,
)
from .isp import CompliantISP, DeliveryStats, NonCompliantISP
from .ledger import Ledger, LedgerTotals
from .mailinglist import ListServer, PostOutcome, Subscriber
from .multibank import BankFederation, FederatedReport, RegionalReport
from .overload import (
    AdmissionController,
    CircuitBreaker,
    DeferredQueue,
    OverloadConfig,
    ShedAudit,
    ShedClass,
    TokenBucket,
    shed_class_for,
)
from .misbehavior import (
    InconsistentPair,
    ReconciliationReport,
    infer_suspects,
    verify_credit_matrix,
)
from .reconcile import (
    PairDeltaStream,
    ReconcileError,
    StaleWindowError,
    StreamingReconciler,
)
from .protocol import ZmailNetwork
from .scenario import Scenario, ScenarioResult, SpammerSpec, ZombieSpec
from .snapshot import (
    DirectSnapshotCoordinator,
    MarkerSnapshotCoordinator,
    SnapshotMarker,
    SnapshotReply,
    SnapshotRequest,
    TimeoutSnapshotCoordinator,
)
from .transfer import Letter, SendReceipt, SendStatus
from .user import UserAccount
from .zombie import ZombieDetection, ZombieMonitor, warning_message

__all__ = [
    "EconomicAuditor",
    "IspPosition",
    "MintingAlert",
    "Bank",
    "BuyResult",
    "ZmailConfig",
    "NonCompliantMailPolicy",
    "AdoptionParams",
    "AdoptionRound",
    "AdoptionSimulation",
    "EPENNY_PRICE_DOLLARS",
    "EMAIL_COST_EPENNIES",
    "Money",
    "epennies_to_dollars",
    "dollars_to_epennies",
    "CompliantISP",
    "NonCompliantISP",
    "DeliveryStats",
    "Ledger",
    "LedgerTotals",
    "ListServer",
    "PostOutcome",
    "Subscriber",
    "BankFederation",
    "FederatedReport",
    "RegionalReport",
    "AdmissionController",
    "CircuitBreaker",
    "DeferredQueue",
    "OverloadConfig",
    "ShedAudit",
    "ShedClass",
    "TokenBucket",
    "shed_class_for",
    "InconsistentPair",
    "ReconciliationReport",
    "verify_credit_matrix",
    "infer_suspects",
    "PairDeltaStream",
    "ReconcileError",
    "StaleWindowError",
    "StreamingReconciler",
    "ZmailNetwork",
    "Scenario",
    "ScenarioResult",
    "SpammerSpec",
    "ZombieSpec",
    "DirectSnapshotCoordinator",
    "TimeoutSnapshotCoordinator",
    "MarkerSnapshotCoordinator",
    "SnapshotRequest",
    "SnapshotMarker",
    "SnapshotReply",
    "Letter",
    "SendReceipt",
    "SendStatus",
    "UserAccount",
    "ZombieDetection",
    "ZombieMonitor",
    "warning_message",
]
