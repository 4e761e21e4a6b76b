"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes; message carries both shapes."""


class AlgebraMismatch(ValueError):
    """Operands belong to different algebras, or dimensions disagree."""


class DivisibilityError(ValueError):
    """A feature/channel count is not divisible by the algebra dimension."""


class DegenerateAxis(ValueError):
    """A rotation axis with zero length was supplied."""


class NormalizationError(ValueError):
    """A quaternion or dual quaternion is too far from unit form."""


class FormatError(ValueError):
    """A model file is malformed (bad magic, version, or truncation)."""


class UnknownAlgebra(ValueError, NameError):
    """No built-in algebra has the requested name.  It is also a NameError,
    the type this lookup raised before it had its own."""


class GraphFreed(ValueError):
    """``backward`` reached a graph that an earlier ``backward`` freed."""


class ConfigError(ValueError):
    """A config file, or an argument to a constructor or function, failed
    to parse or validate."""


class TrainingDiverged(ValueError):
    """An epoch's mean training loss is not finite, or exceeds
    ``training.DIVERGENCE_FACTOR`` (1000) times the first epoch's.  The
    default Lorenz and blobs runs never rise above their first epoch's
    loss, while a run that blows up without overflowing (SGD at a huge
    learning rate) grows by many orders of magnitude per epoch.  After a
    first epoch of zero loss, which only an exact fit gives and which its
    zero gradients keep, any positive loss counts as divergence."""

    def __init__(self, epoch, loss):
        super().__init__(f"training diverged: epoch {epoch} mean training loss is {loss}")
        self.epoch, self.loss = epoch, loss
