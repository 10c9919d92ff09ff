"""Exception types shared across the toolkit, and the exit code of each.

The CLI reports every exception type `EXIT_CODES` lists in one stderr line
and exits with its code, so library code should raise the most specific
type that applies rather than bare ValueError/RuntimeError.
"""

from concurrent.futures import BrokenExecutor

EXIT_OK, EXIT_WORKER, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_CHECK = range(6)


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (bad key, bad value, mismatch)."""


class DimensionError(ValueError):
    """Tensor shapes or channel counts do not satisfy an operation's contract."""


class ContractError(RuntimeError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values where finite ones are required."""


# exit code and stderr label of each reported exception type; the first match applies
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (OSError, EXIT_IO, "i/o error"),
    ((NumericError, DimensionError, ContractError), EXIT_NUMERIC, "numeric failure"),
    (BrokenExecutor, EXIT_WORKER, "worker failure"),  # a worker process died, e.g. killed
)


def describe(exc: BaseException) -> str:
    """`exc` as `<label>: <message>`, where an unlisted type's name stands for the label."""
    labels = (label for types, _, label in EXIT_CODES if isinstance(exc, types))
    return f"{next(labels, type(exc).__name__)}: {exc}"


def exit_code(description: str) -> int | None:
    """The exit code of a `describe` line's label; None for the name of an unlisted type."""
    label = description.partition(": ")[0]
    return next((code for _, code, known in EXIT_CODES if known == label), None)
