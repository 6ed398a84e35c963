"""Exception types shared across the package."""


class LieYamagutiError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeMismatch(LieYamagutiError):
    pass


class NotASubspace(LieYamagutiError):
    pass


class InvalidAlgebra(LieYamagutiError):
    pass


class NotALieAlgebra(LieYamagutiError):
    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotALeibnizAlgebra(LieYamagutiError):
    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotReductive(LieYamagutiError):
    pass


class NotASubalgebra(LieYamagutiError):
    pass


class SizeCapExceeded(LieYamagutiError):
    pass


class CocycleContainmentFailure(LieYamagutiError):
    pass


class ExprSyntaxError(LieYamagutiError):
    """Raised by the expression parser; carries the byte offset of the error."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(LieYamagutiError):
    pass


class EvalError(LieYamagutiError):
    pass


class UnknownExample(LieYamagutiError):
    pass


class CocycleCheckFailed(LieYamagutiError):
    """A bundle operation required a passing cocycle check and did not get one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
