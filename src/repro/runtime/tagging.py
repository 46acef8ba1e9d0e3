"""Run-time mode metadata for embedded-ENT objects (paper section 5).

The ENT compiler tracks two pieces of metadata per dynamic object — its
mode tag and whether it has been snapshotted (for the lazy-copy
strategy) — and a mode tag per post-snapshot copy.  The embedded Python
runtime stores the same metadata in an :class:`ObjectTag` attached to
each managed instance.
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
    #: True once this storage has been claimed by an in-place lazy tag.
    snap_tagged: bool = False
    #: True for objects produced by (or lazily claimed by) a snapshot.
    is_snapshot: bool = False


def get_tag(obj: object) -> Optional[ObjectTag]:
    """The object's tag, or None for unmanaged objects."""
    return getattr(obj, TAG_ATTR, None)


def mode_of(obj: object) -> Optional[Mode]:
    """The object's concrete mode, or None (dynamic / unmanaged)."""
    tag = get_tag(obj)
    if tag is None:
        return None
    return tag.mode
