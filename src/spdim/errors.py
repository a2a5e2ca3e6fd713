"""Exception types shared by all spdim modules."""


class SpdimError(Exception):
    """Base class for every error raised by this package."""


class UnknownElement(SpdimError):
    pass


class CycleError(SpdimError):
    """The input relation contains a directed cycle."""


class PairNotIncomparable(SpdimError):
    pass


class NotReversible(SpdimError):
    """Raised when a pair set cannot be reversed by any linear extension.

    Carries the offending strict alternating cycle in ``cycle`` as a list
    of ordered pairs.
    """

    def __init__(self, message, cycle):
        super().__init__(message)
        self.cycle = list(cycle)


class ParseError(SpdimError):
    """Malformed text input; ``line`` is the 1-based offending line."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class NotTreewidth2(SpdimError):
    pass


class InvalidSPTree(SpdimError):
    pass


class VertexNotInDecomposition(SpdimError):
    pass


class PreconditionViolated(SpdimError):
    pass


class MalformedInstance(SpdimError):
    pass


class ReversibilityViolation(SpdimError):
    """A signature class failed its reversibility guarantee (an internal bug).

    Carries the witness strict alternating cycle and the signature.
    """

    def __init__(self, message, cycle, signature):
        super().__init__(message)
        self.cycle = list(cycle)
        self.signature = signature


class BadParameter(SpdimError):
    pass


class Exceeded(SpdimError):
    """No reversible partition with at most ``max_d`` parts exists."""

    def __init__(self, max_d):
        super().__init__("dimension exceeds %d" % max_d)
        self.max_d = max_d


class TooLarge(SpdimError):
    pass
