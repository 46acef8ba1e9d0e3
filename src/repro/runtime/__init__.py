"""Embedded ENT runtime for plain Python programs, plus the Ext utility."""

from repro.runtime.embedded import (STANDARD_MODES, THERMAL_MODES,
                                    EntRuntime, ModeCase, RuntimeStats)
from repro.runtime.ext import Ext
from repro.runtime.lint import LintFinding, lint_file, lint_source
from repro.runtime.tagging import ObjectTag, get_tag, mode_of

__all__ = [
    "EntRuntime",
    "Ext",
    "LintFinding",
    "ModeCase",
    "ObjectTag",
    "RuntimeStats",
    "STANDARD_MODES",
    "THERMAL_MODES",
    "get_tag",
    "lint_file",
    "lint_source",
    "mode_of",
]
