"""Exception types shared across the package, and how messages print values."""


class ConfigError(ValueError):
    """Invalid configuration value or violated operation precondition."""


class InvalidRunError(RuntimeError):
    """A numerical validity check failed: a truncation tail over its bound
    (raise l_max) or a Gram that is not well conditioned."""


def count_text(n):
    """An int in full up to 12 digits, else to 3 significant ones through
    ``decimal``, where ``format(float(n))`` would overflow past 1e308."""
    if n < 10 ** 12:
        return str(n)
    import decimal  # refusals alone print such counts; no load at each start
    return f"{decimal.Decimal(n):.3g}"


def value_text(value):
    """``repr(value)``, cut to 40 characters ending in '...', so that a
    refusal echoes a config value, key or id of any length in a line."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."
