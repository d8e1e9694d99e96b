"""Exception types shared across the toolkit.

Every error carries a stable ``code`` string so CLI output and tests can
match on the contract name rather than on the message text.
"""


class EpiscoreError(Exception):
    """Base class for all toolkit errors; ``line`` is the manifest line the
    error was found on, if any, and prefixes the message."""

    code = "ERROR"

    def __init__(self, message: str = "", line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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

    def __init__(self, codes, message: str = "", line: int | None = None):
        self.codes = list(codes)
        parts = [message] if message else []
        parts.append(f"violations: {', '.join(self.codes)}")
        if line is not None:
            parts.insert(0, f"line {line}")
        super().__init__("; ".join(parts))
        self.line = line


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
