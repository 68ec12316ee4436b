"""Exception and warning types shared across the package."""


class ExpressionError(ValueError):
    """A projector expression could not be parsed or bound."""


class ParseError(ExpressionError):
    """Syntax error in a projector expression, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundNameError(ExpressionError):
    """An expression refers to a channel the scenario does not define."""

    def __init__(self, name: str, known=()):
        hint = ", ".join(sorted(known)) if known else "none"
        super().__init__(f"unknown channel {name!r}; available channels: {hint}")
        self.name = name


class ScenarioError(ValueError):
    """Malformed scenario definition or unknown catalog entry."""


class PhysicsError(RuntimeError):
    """A computation's physical preconditions are not met."""


class PostselectionLostError(PhysicsError):
    """Postselection amplitude (or meter success weight) vanishes."""


class ZeroProbabilityError(PhysicsError):
    """Collapse requested onto an outcome of zero probability."""


class AblUndefinedError(PhysicsError):
    """Postselection is unreachable for both outcomes of the measurement."""


class NotAProjectorError(PhysicsError):
    """An operation requiring a projector received something else."""


class AuditPreconditionError(PhysicsError):
    """Projector pair violates the orthogonality/commutation requirements."""


class ConsistencyError(PhysicsError):
    """An internal numerical consistency check failed."""


class MeterGridError(PhysicsError):
    """Pointer grid too coarse for the pointer spread sigma."""


class SweepDivergenceError(PhysicsError):
    """Weak-limit estimates move apart as the coupling shrinks."""


class NearPoleWarning(UserWarning):
    """Postselection overlap is close to zero; the weak value is dominated
    by the small denominator and meter readings may not track it reliably."""
