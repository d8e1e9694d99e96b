"""Exception types shared across the toolkit.

Every error carries a stable ``code`` string so CLI output and tests can
match on the contract name rather than on the message text.
"""


class EpiscoreError(Exception):
    """Base class for all toolkit errors; ``line`` is the manifest line the
    error was found on, if any, and prefixes the message as ``line N: ``."""

    code = "ERROR"

    def __init__(self, message: str = "", line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.line is None else f"line {self.line}: {message}"


class ManifestParseError(EpiscoreError):
    """A manifest line could not be parsed into the expected schema."""

    code = "PARSE_ERROR"


class DuplicateIdError(ManifestParseError):
    """Two records of one manifest share an id."""

    code = "DUPLICATE_ID"


class InvariantError(EpiscoreError, ValueError):
    """A structurally parseable record, or a pair built in memory, violates
    domain invariants."""

    code = "INVARIANT_ERROR"

    def __init__(self, codes, message: str = ""):
        self.codes = list(codes)
        violations = f"violations: {', '.join(self.codes)}"
        super().__init__(f"{message}; {violations}" if message else violations)


class EmptyManifestError(EpiscoreError):
    code = "EMPTY_MANIFEST"


class FeatureIOError(EpiscoreError):
    code = "FEATURE_IO"


class CheckpointError(EpiscoreError, ValueError):
    """A checkpoint file that cannot be read or parsed: truncated, an
    unknown version or pooling code, bad dimensions, or trailing bytes."""

    code = "BAD_CHECKPOINT"


class JudgeUnavailableError(EpiscoreError):
    code = "JUDGE_UNAVAILABLE"


class MissingMetadataError(EpiscoreError):
    code = "MISSING_METADATA"


class ShapeMismatchError(EpiscoreError):
    code = "SHAPE_MISMATCH"


class EmptyBatchError(EpiscoreError):
    code = "EMPTY_BATCH"


class EmptySetError(EpiscoreError):
    code = "EMPTY_SET"


class MissingSubsetError(EpiscoreError):
    code = "MISSING_SUBSET"
