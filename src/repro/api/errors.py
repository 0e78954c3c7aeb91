"""The one structured error shape every API surface speaks.

Validation failures, unknown routes, unusable payloads — whether they
surface in the Python facade, on the CLI or over HTTP, they are all the
same frozen :class:`ApiError`: a machine-readable ``code``, a
human-readable ``message`` (reusing the engines' own wording, so
``parse_constraint``-style explanations survive the trip), and the
``field`` path that caused it when one exists.  The CLI prints the
rendered form; the gateway returns its :func:`repro.codec.encode` form as
JSON with an appropriate 4xx status; library users catch
:class:`ApiRequestError` and read ``.error``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The closed set of error codes the facade and gateway emit.  Codes are
#: contract, not prose: clients branch on them, so adding one is an API
#: change (document it in CONTRIBUTING.md).
ERROR_CODES = (
    "invalid-json",            # request body is not a JSON object
    "invalid-kind",            # payload kind does not name a request type
    "unsupported-schema-version",
    "unknown-field",           # strict decoding: payload key not in schema
    "missing-field",           # required field absent from the payload
    "invalid-field",           # field present but fails validation
    "unknown-route",           # no handler for the HTTP path
    "method-not-allowed",      # route exists, verb does not
    "unknown-job",             # job id not in the queue
    "job-not-finished",        # result fetched before the job is done
    "job-cancelled",           # result fetched for a cancelled job
    "job-failed",              # result fetched for a failed job
    "engine-error",            # a valid request the engines cannot serve
)


@dataclass(frozen=True)
class ApiError:
    """One structured API failure: code, message, and the field at fault."""

    code: str
    message: str
    #: Dotted path of the offending request field (``"spec.rate"``,
    #: ``"faults[1]"``); ``None`` when the error is not about one field.
    field: str | None = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown ApiError code '{self.code}' "
                             f"(expected one of {', '.join(ERROR_CODES)})")
        if not self.message:
            raise ValueError("ApiError needs a message")

    def render(self) -> str:
        """The CLI's one-line rendering of the error."""
        suffix = f" (field: {self.field})" if self.field else ""
        return f"{self.code}: {self.message}{suffix}"


class ApiRequestError(Exception):
    """Raised by the facade when a request cannot be validated or served.

    Carries the structured :class:`ApiError`; ``str()`` is its rendered
    form, so an uncaught one still reads like the classic CLI messages.
    """

    def __init__(self, error: ApiError) -> None:
        super().__init__(error.render())
        self.error = error


def invalid_field(field: str, message: str) -> ApiRequestError:
    """Shorthand for the most common failure: a field that fails validation."""
    return ApiRequestError(ApiError(code="invalid-field", message=message,
                                    field=field))
