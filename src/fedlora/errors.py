"""Exception taxonomy shared across the package.

Exit-code mapping (cli.main): ConfigError/SchemaError -> 2, everything
else -> 1. README's "Exit codes and errors" table lists each case.
"""


class FedLoraError(Exception):
    pass


class ShapeError(FedLoraError):
    """Tensor dimension mismatch."""


class ConfigError(FedLoraError):
    """Invalid configuration value."""


class DataError(FedLoraError):
    """Bad input data (labels, rows, sizes)."""


class SchemaError(DataError):
    """Input file does not match the expected schema."""


class ProtocolError(FedLoraError):
    """Client/server payload mismatch (vector lengths, empty lists)."""


class StateError(FedLoraError):
    """Operation called in the wrong lifecycle state."""


class ClientError(FedLoraError):
    """A single client failed during a round; the round may continue."""


class RoundError(FedLoraError):
    """An entire round failed: every client errored or diverged, or a worker
    process ended without a result."""
