"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured step or size budget."""
