"""Exception types shared across the package."""


class TcspinError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(TcspinError):
    """Operands act on different numbers of sites or mismatched vector lengths."""


class DenseCapError(TcspinError):
    """A dense-matrix path was requested beyond the configured site cap."""


class ModelError(TcspinError):
    """An operator violates a model-level requirement (e.g. hermiticity)."""


class ConfigError(TcspinError):
    """Invalid configuration or run plan; maps to CLI exit code 2."""


class PlanError(ConfigError):
    """Invalid sweep plan (missing references, duplicate rows, ...)."""


class EigenstateError(TcspinError):
    """A state handed to a correlator is not an eigenstate of the Hamiltonian."""
