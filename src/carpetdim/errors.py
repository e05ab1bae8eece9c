"""Exception types shared across the library."""


class CarpetError(Exception):
    """Base class for all carpetdim errors."""


# grid / IFS validation

class BaseTooSmallError(CarpetError):
    pass


class NotProperSubsetError(CarpetError):
    pass


class TooFewMapsError(CarpetError):
    pass


class DigitOutOfRangeError(CarpetError):
    pass


class DuplicatePairError(CarpetError):
    pass


class InadmissiblePairError(CarpetError):
    pass


# symbolic words and codings

class NotInAttractorError(CarpetError):
    pass


class FiniteTruncationError(CarpetError):
    pass


class InsufficientDepthError(CarpetError):
    pass


class EmptyCandidateSetError(CarpetError):
    pass


class UndecidableDominanceError(CarpetError):
    pass


class DegenerateExpansionError(CarpetError):
    pass


class CodingTooLongError(CarpetError):
    pass


# rate schedules and dimension formulas

class InvalidRatesError(CarpetError):
    pass


class ScheduleError(CarpetError):
    pass


class FrequenciesDoNotExistError(CarpetError):
    pass


# finite-depth verification

class EnumerationTooLargeError(CarpetError):
    pass


class BadBreakPointsError(CarpetError):
    pass


class DepthTooLargeError(CarpetError):
    pass


class RadiusTooSmallError(CarpetError):
    pass


class ThresholdNotMetError(CarpetError):
    pass


# configuration

class ConfigError(CarpetError):
    """Configuration problem, annotated with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
