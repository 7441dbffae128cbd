"""Exception hierarchy shared across the package."""


class DropoutLabError(Exception):
    """Base class for all errors raised by this package."""


# --- data ingestion / synthesis ---

class MissingColumnError(DropoutLabError):
    pass


class BadDateError(DropoutLabError):
    pass


class BadValueError(DropoutLabError):
    pass


class NegativeCounterError(DropoutLabError):
    pass


class DuplicateStudentDayError(DropoutLabError):
    pass


class BadConfigError(DropoutLabError):
    pass


class DuplicateCourseIdError(DropoutLabError):
    pass


class UnknownStudentError(DropoutLabError):
    pass


# --- feature matrices / normalization ---

class EmptyMatrixError(DropoutLabError):
    pass


class SchemaMismatchError(DropoutLabError):
    pass


# --- model training ---

class SingleClassError(DropoutLabError):
    pass


class NonFiniteLossError(DropoutLabError):
    pass


class EmptyListError(DropoutLabError):
    pass


class ConvergenceWarning(UserWarning):
    """A solver stopped before reaching its tolerance; its last iterate is returned."""


# --- network growth ---

class BadShapeError(DropoutLabError):
    pass


class ShrinkNotAllowedError(DropoutLabError):
    pass


class BadLayerError(DropoutLabError):
    pass


# --- schedules / paradigms ---

class BeforeLaunchError(DropoutLabError):
    pass


class WindowOutOfRangeError(DropoutLabError):
    pass


class InvalidParadigmError(DropoutLabError):
    pass
