"""Exception types shared across the package."""


class SchemaError(ValueError):
    """A word or element does not belong to the space an operation expects."""


class ParseError(ValueError):
    """Element text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class TermBudgetExceeded(RuntimeError):
    """An intermediate linear combination grew past the configured term cap."""

    def __init__(self, count, cap):
        super().__init__(
            "intermediate element has %d terms, exceeding the cap of %d" % (count, cap)
        )
        self.count = count
        self.cap = cap
