"""The section 8 ledger: virtual busy time split into the paper's four
overhead areas.

Every ``(resource kind, activity)`` pair that ``MetricSet.add_busy`` (or
a direct charge to the busy store) can produce is pinned here to one
area.  Work the machine does whether or not it is fault tolerant — user
compute, context switches, server disk I/O — goes to ``application``,
which is reported but is not one of the four overhead areas.

An activity missing from the map raises :class:`LedgerError`: a new
activity must be placed deliberately, never drop out of the ledger.

Note that ``CRASH_NOTICE`` messages also carry exit notices (a clean
exit tears down the backup), so a failure-free run shows a little
``recovery`` time on the bus and executive.
"""

from __future__ import annotations

from typing import Dict

MESSAGE_HANDLING = "message_handling"
BACKUP_CREATION = "backup_creation"
SYNC = "sync"
RECOVERY = "recovery"
APPLICATION = "application"

#: The four overhead areas of section 8, in report order.
AREAS = (MESSAGE_HANDLING, BACKUP_CREATION, SYNC, RECOVERY)

#: (resource kind, activity) -> area.  The resource kind is the busy
#: resource's name up to ``[`` (``executive[c0]`` -> ``executive``).
ACTIVITY_AREA: Dict[tuple, str] = {
    # Bus time per message kind (repro.messages.message.MessageKind).
    ("bus", "data"): MESSAGE_HANDLING,
    ("bus", "signal"): MESSAGE_HANDLING,
    ("bus", "sync"): SYNC,
    ("bus", "birth_notice"): BACKUP_CREATION,
    ("bus", "backup_ready"): BACKUP_CREATION,
    ("bus", "crash_notice"): RECOVERY,
    # Executive processor: outgoing dispatch, one delivery leg per role,
    # kernel-leg application per message kind, and the crash barrier.
    ("executive", "dispatch"): MESSAGE_HANDLING,
    ("executive", "deliver_primary_dest"): MESSAGE_HANDLING,
    ("executive", "deliver_dest_backup"): MESSAGE_HANDLING,
    ("executive", "deliver_sender_backup"): MESSAGE_HANDLING,
    ("executive", "deliver_kernel"): MESSAGE_HANDLING,
    ("executive", "apply_data"): MESSAGE_HANDLING,
    ("executive", "apply_signal"): MESSAGE_HANDLING,
    ("executive", "apply_sync"): SYNC,
    ("executive", "apply_birth_notice"): BACKUP_CREATION,
    ("executive", "apply_backup_ready"): BACKUP_CREATION,
    ("executive", "apply_crash_notice"): RECOVERY,
    ("executive", "crash_barrier"): RECOVERY,
    # Work processors.
    ("work", "user"): APPLICATION,
    ("work", "context_switch"): APPLICATION,
    ("work", "privileged"): APPLICATION,
    ("work", "syscall"): MESSAGE_HANDLING,
    ("work", "signal"): MESSAGE_HANDLING,
    ("work", "sync_stall"): SYNC,
    ("work", "checkpoint_stall"): SYNC,
    ("work", "crash_handling"): RECOVERY,
    # Peripheral disks driven by the page, file and raw servers.
    ("disk", "page_out"): SYNC,
    ("disk", "flush"): APPLICATION,
    ("disk", "write"): APPLICATION,
}


class LedgerError(Exception):
    """A busy activity has no pinned area."""


def resource_kind(resource: str) -> str:
    return resource.split("[", 1)[0]


def ledger(busy: Dict[str, int]) -> Dict[str, int]:
    """Sum ``{"<resource>:<activity>": ticks}`` into ticks per area
    (the four overhead areas plus ``application``)."""
    totals = {area: 0 for area in AREAS + (APPLICATION,)}
    missing = []
    for key, ticks in busy.items():
        resource, activity = key.rsplit(":", 1)
        area = ACTIVITY_AREA.get((resource_kind(resource), activity))
        if area is None:
            missing.append(key)
            continue
        totals[area] += ticks
    if missing:
        raise LedgerError("busy activities with no section 8 area: "
                          + ", ".join(sorted(missing)))
    return totals
