"""Exception hierarchy shared across the package."""


class DpTextError(Exception):
    """Base class for every error raised by this package."""


class ContractError(DpTextError):
    """A caller violated a documented precondition."""


class VocabParseError(DpTextError):
    """A vocabulary or merges file is malformed."""


class VocabIntegrityError(DpTextError):
    """A vocabulary file parses but breaks an invariant (duplicate or gap)."""


class EmbeddingFormatError(DpTextError):
    """An embedding file does not match the declared header shape."""


class EmbeddingDataError(DpTextError):
    """An embedding file contains non-finite values."""


class TokenizationError(DpTextError):
    """Input bytes cannot be covered by the vocabulary."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EndpointError(DpTextError):
    """A backend call failed in a way that should not be retried."""


class TransientEndpointError(EndpointError):
    """A backend call failed in a way that may succeed on retry."""


class EndpointTimeoutError(EndpointError):
    """Retries against a backend were exhausted."""


class AttackParseError(DpTextError):
    """An attack response could not be parsed; carries the raw body."""

    def __init__(self, message: str, body: str = ""):
        super().__init__(message)
        self.body = body


class RecordFileError(DpTextError):
    """A perturbed-documents file or a run record cannot be read or parsed."""


class ConfigError(DpTextError):
    """Invalid or incomplete application configuration."""
