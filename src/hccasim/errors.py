"""The package's one error type."""


class ConfigError(ValueError):
    """Invalid input: a scenario or experiment configuration, a traffic
    contract, or a video trace, whose per-line messages name the line."""
