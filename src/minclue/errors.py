"""Exception types shared across the package."""


class MinclueError(Exception):
    """Base class for all package errors."""


class GridFormatError(MinclueError, ValueError):
    """A grid or puzzle line is malformed (see subclasses)."""


class WrongLengthError(GridFormatError):
    """Line length does not match the expected cell count."""


class BadCharacterError(GridFormatError):
    """Line contains a character outside the allowed digit set."""


class RuleViolationError(GridFormatError):
    """Digits violate a row, column or box constraint."""


class InconsistentCluesError(MinclueError, ValueError):
    """Clue digits collide inside a unit; the puzzle is malformed upstream."""


class BudgetExceededError(MinclueError, RuntimeError):
    """An exhaustive check would exceed its combination budget; refused."""


class CheckpointMismatchError(MinclueError, RuntimeError):
    """Checkpoint is unreadable or does not match the run resuming it."""


class ConflictingRecordsError(MinclueError, RuntimeError):
    """Duplicate batch records disagree; indicates nondeterminism upstream."""

