"""Shared exception types."""

from __future__ import annotations


class GeoplanError(Exception):
    """Base class for package errors."""


class InvalidSpecError(GeoplanError, ValueError):
    """A network description failed validation.

    Carries the offending `ValidationResult` when one is available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InvalidInputError(GeoplanError, ValueError):
    """A placement, code or report input is malformed or inconsistent."""


class BudgetExceededError(GeoplanError, RuntimeError):
    """An enumeration would exceed its configured budget."""


class AuditError(GeoplanError, RuntimeError):
    """An internal cross-check disagreed: a bug in geoplan, not bad input.

    Raised explicitly rather than by ``assert`` so audits also run
    under ``python -O``.
    """
