"""Exception types shared across the package, and the decoding boundary
(:func:`decoding`) that every JSON body is built behind, with the one
check (:func:`numeric`) that a JSON number is not a string or a boolean."""

from contextlib import contextmanager


class TemporaError(Exception):
    """Base class for all package-specific errors."""


class InvalidStream(TemporaError, ValueError):
    """Stream construction received non-finite or malformed data."""


class InvalidScale(TemporaError, ValueError):
    """Negative scale factor passed to a positive-scaling operation."""


class InvalidPermutation(TemporaError, ValueError):
    """Permutation data is not a bijection on its finite support."""


class InvalidDelta(TemporaError, ValueError):
    """Discount factor outside the closed interval [0, 1]."""


class InvalidCost(TemporaError, ValueError):
    """Cost function violates groundedness or domain constraints."""


class InvalidCriterion(TemporaError, ValueError):
    """Criterion parameters outside their admissible range."""

class InvalidOperator(TemporaError, ValueError):
    """Operator matrix is malformed (negative entries, wrong shape)."""


class NonConvergence(TemporaError, RuntimeError):
    """Fixed-point iteration exhausted its budget; carries last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NoInvariantFound(TemporaError, RuntimeError):
    """No normalized invariant vector exists in the zero-eigenvalue branch."""


class InvalidAxiom(TemporaError, ValueError):
    """Unknown axiom identifier or missing transform payload."""


class RegressionFailure(TemporaError, AssertionError):
    """A counterexample registry entry did not reproduce its expected values."""


class InvalidPanel(TemporaError, ValueError):
    """Expert panel is empty or has parameters outside their range."""


class ParseError(TemporaError, ValueError):
    """Malformed JSON input; carries location or field information."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, field: str | None = None):
        detail = message
        if line is not None:
            detail += f" (line {line}, column {column})"
        if field is not None:
            detail += f" (field: {field})"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.field = field


def tagged(data, what: str, tags) -> tuple[str, object]:
    """Split a tagged object ``{tag: body}`` with ``tag`` in ``tags``."""
    if not isinstance(data, dict) or len(data) != 1:
        raise ParseError(f"{what} must be an object with exactly one tag "
                         f"out of {tuple(tags)}", field=what)
    ((tag, body),) = data.items()
    if tag not in tags:
        raise ParseError(f"unknown {what} tag {tag!r}", field=tag)
    return tag, body


def numeric(value, field: str):
    """``value`` as it stands, once no JSON string or boolean sits where a
    number belongs: at ``value`` itself or anywhere inside its lists.
    ``float()`` would read ``"0.9"`` as 0.9 and ``true`` as 1.0."""
    if isinstance(value, list):
        for v in value:
            numeric(v, field)
    elif isinstance(value, (str, bool)):
        raise ParseError(f"expected a number, got {value!r}", field=field)
    return value


@contextmanager
def decoding(field: str):
    """Turn a wrong type, a missing key, a short pair or an invalid value
    raised while building a value from JSON into a ParseError."""
    try:
        yield
    except ParseError:
        raise
    except (ValueError, TypeError, LookupError, OverflowError) as exc:
        raise ParseError(f"malformed {field}: {exc}", field=field) from exc
