"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or violated operation precondition."""


class InvalidRunError(RuntimeError):
    """A numerical validity check failed: a truncation tail over its bound
    (raise l_max) or a Gram that is not well conditioned."""
