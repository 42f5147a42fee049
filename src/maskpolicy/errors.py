"""Exception types shared across the package.

Every error raised on purpose derives from MaskPolicyError so callers
(and the CLI) can separate data/validation failures from genuine bugs.
The errors that replace a former bare ValueError also derive from
ValueError, so code that caught ValueError keeps working.
"""

from pathlib import Path


class MaskPolicyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOptionError(MaskPolicyError, ValueError):
    """An option, hyperparameter or argument outside its valid range.
    `options` names the options whose values it refused, by the name the
    command line gives them, so the CLI can tell where a value came from."""

    def __init__(self, message: str, *options: str):
        super().__init__(message)
        self.options = options


# --- numeric core ---------------------------------------------------------

class ShapeMismatchError(MaskPolicyError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class NonFiniteError(MaskPolicyError):
    """A NaN or Inf appeared in a tensor value."""


class NonScalarLossError(MaskPolicyError):
    """backward() was called on a node that is not a scalar."""


# --- corpus ---------------------------------------------------------------

class EmptyCorpusError(MaskPolicyError):
    """No tokens found in any corpus file."""


class InvalidChunkLengthError(InvalidOptionError):
    """Chunk length below the supported minimum."""


class InvalidVocabError(MaskPolicyError, ValueError):
    """A vocabulary without the reserved specials first, or with a duplicate."""


class AnswerNotFoundError(MaskPolicyError):
    """No token span in the context matches the answer."""


class MalformedRecordError(MaskPolicyError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class UndecodableTextError(MalformedRecordError, ValueError):
    """A text input holds a byte sequence that is not UTF-8."""

    @classmethod
    def locate(cls, path) -> "UndecodableTextError":
        """The error for the first bad byte of `path`, naming its line as
        a text-mode reader counts them (after \\n, \\r\\n or a lone \\r)."""
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[:e.start]
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            return cls(path, line_no,
                       f"not valid UTF-8 ({e.reason} at byte {data[e.start]:#04x})")
        return cls(path, 0, "not valid UTF-8 when first read")


# --- policy ---------------------------------------------------------------

class EmptySequenceError(MaskPolicyError):
    """An operation received a zero-length token sequence."""


class SequenceTooLongError(MaskPolicyError):
    """Input exceeds the policy's maximum sequence length."""


class SpanOutOfBoundsError(MaskPolicyError):
    """A span index falls outside the sequence it refers to."""


class EmptyDatasetError(MaskPolicyError):
    """A dataset that must be non-empty was empty."""


class NonFiniteLossError(NonFiniteError):
    """Training loss became NaN or Inf; carries epoch/batch context."""

    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class NoCandidatesError(MaskPolicyError):
    """Span selection received an empty candidate list."""


# --- baselines / corruption ----------------------------------------------

class InvalidRateError(InvalidOptionError):
    """Masking rate outside [0, 1]."""


class AllMaskedError(MaskPolicyError):
    """Corruption would mask every token, leaving no context."""


class VocabMismatchError(MaskPolicyError):
    """Checkpoint or data was produced with a different vocabulary."""


# --- evaluation -----------------------------------------------------------

class TooFewReportsError(MaskPolicyError):
    """Policy comparison needs at least two reports."""
