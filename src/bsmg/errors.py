"""Exception types shared across the toolkit, and the size-cap refusal."""


class BsmgError(Exception):
    """Base class for all toolkit errors."""


class BoundExceeded(BsmgError):
    """A search bound was exhausted before an answer was found."""


class RadiusExceeded(BsmgError):
    """A tree computation left the configured radius."""


class GroupTooLarge(BsmgError):
    """Group closure exceeded the configured element bound."""


class ClosureTooLarge(BsmgError):
    """Partial isomorphism closure exceeded the configured arrow bound."""


class UnknownArrow(BsmgError, ValueError):
    """An arrow id outside [0, n_arrows) of the groupoid it was given for."""


class UnknownUnit(BsmgError, ValueError):
    """A unit index outside [0, n_units) of the groupoid it was given for."""


class InvalidDocument(BsmgError, ValueError):
    """A groupoid document that is not a JSON object, or whose ids name no
    arrow or unit of it."""


class MissingUnitArrow(BsmgError, ValueError):
    """An arrow set used as a wide subgroupoid lacks the unit arrow of some
    unit."""


class NotAnInteger(BsmgError, ValueError):
    """A count that must be an integer (an int or an integral Fraction) was
    given something else."""


class EmptySet(BsmgError):
    """A restriction target was empty."""


class NotInFullGroup(BsmgError):
    """A map violates the full pseudogroup invariants."""


class NotNormal(BsmgError):
    """Quotient construction failed a normality requirement."""


class NotMeasurePreserving(BsmgError):
    """Operation requires a measure-preserving groupoid."""


class NotACocycle(BsmgError):
    """Supplied arrow data violates the cocycle identity."""


class IndexNotConstant(BsmgError):
    """An operation requires the index function to be constant."""


class TargetMismatch(BsmgError):
    """Two cocycles take values in different groups."""


class InfiniteComponents(BsmgError):
    """Skew-product component structure did not stabilize within the window cap."""


class NotPowerValued(BsmgError):
    """Cocycle values are not powers of the modular ratio."""


class InvalidLevel(BsmgError, ValueError):
    """Level parameters out of range."""


class SizeCapExceeded(BsmgError, ValueError):
    """An input over its module's size cap, refused before it is allocated."""


def require_under_cap(size, cap, what, noun):
    """Raise SizeCapExceeded, naming what, size and cap, when size > cap. A
    size past 64 bits reads "over": str refuses ints of over 4300 digits."""
    if size > cap:
        raise SizeCapExceeded(
            f"{what} over {cap} {noun}" if size >> 64
            else f"{what} {size} {noun}, over the cap of {cap}")


class ParamMismatch(BsmgError):
    """Operands belong to different parameter families, or a subgroupoid to
    a groupoid other than the one it is used with."""


class LevelBudgetExceeded(BsmgError):
    """A level-consuming operation ran out of truncation budget."""


class NotAUnit(BsmgError):
    """Ring element is not a unit at its truncation."""


class NotErgodic(BsmgError, ValueError):
    """Operation requires an ergodic base action; the input is refused."""


class VerificationFailure(BsmgError):
    """A verified identity failed; carries the offending instance."""
