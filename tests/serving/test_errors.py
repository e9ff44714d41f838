"""The typed failure surface: one exception type per way a request fails."""

from __future__ import annotations

from repro.serving import api
from repro.serving.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    OverloadError,
    SchedulerClosedError,
    ServingError,
)


class TestHierarchy:
    def test_serving_errors_are_runtime_errors(self):
        """Callers that caught RuntimeError before the typed errors
        existed (e.g. closed-scheduler submits) keep working."""
        for cls in (
            ServingError,
            OverloadError,
            SchedulerClosedError,
            InvalidRequestError,
        ):
            assert issubclass(cls, RuntimeError)
        assert issubclass(SchedulerClosedError, ServingError)
        assert issubclass(InvalidRequestError, ServingError)
        # Callers that caught the untyped validation errors keep working.
        assert issubclass(InvalidRequestError, ValueError)

    def test_deadline_error_stays_a_timeout(self):
        """Generic timeout handling must keep catching deadline misses."""
        assert issubclass(DeadlineExceededError, TimeoutError)

    def test_api_reexports_are_the_same_objects(self):
        """Legacy ``repro.serving.api`` imports resolve to the errors
        module's classes — one type, two import paths."""
        assert api.OverloadError is OverloadError
        assert api.DeadlineExceededError is DeadlineExceededError
        assert api.InvalidRequestError is InvalidRequestError
