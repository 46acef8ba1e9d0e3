"""Run-time mode metadata for embedded-ENT objects (paper section 5).

The ENT compiler tracks two pieces of metadata per dynamic object — its
mode tag and whether it has been snapshotted (for the lazy-copy
strategy) — and a mode tag per post-snapshot copy.  The embedded Python
runtime stores the same metadata, plus the tagging site, in an
:class:`ObjectTag` attached to each managed instance, which the kernel's
:func:`repro.core.checks.snapshot` reads and marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.modes import Mode

TAG_ATTR = "_ent_tag"


@dataclass(slots=True)
class ObjectTag:
    """Per-object runtime metadata."""

    #: Concrete mode, or None for the dynamic mode ``?``.
    mode: Optional[Mode] = None
    #: True for instances of dynamic classes (pre- and post-snapshot).
    dynamic: bool = False
    #: True for objects produced by (or lazily claimed by) a snapshot.
    is_snapshot: bool = False
    #: ``(kind, site)`` of the snapshot that fixed the tag, or None;
    #: written by the kernel, named by transient blame.
    provenance: Optional[tuple] = None


def get_tag(obj: object) -> Optional[ObjectTag]:
    """The object's tag, or None for unmanaged objects."""
    return getattr(obj, TAG_ATTR, None)


def mode_of(obj: object) -> Optional[Mode]:
    """The object's concrete mode, or None (dynamic / unmanaged)."""
    tag = getattr(obj, TAG_ATTR, None)
    return tag.mode if tag is not None else None
