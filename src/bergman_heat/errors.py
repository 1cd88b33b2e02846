"""Exception types shared across the package, and how messages print counts."""


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
