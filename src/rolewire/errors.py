"""Exception hierarchy for rolewire.

Every error the library raises deliberately derives from RolewireError so
the CLI can map failures onto its exit codes (2 usage, 3 input, 4 numeric).
"""


class RolewireError(Exception):
    """Base class for all rolewire errors."""


class UsageError(RolewireError):
    """Bad command line (unknown flag, bad verb, missing argument)."""


class InputError(RolewireError):
    """Problems with input data or files."""


class NumericError(RolewireError):
    """Numerical failure during computation."""


# --- input-side errors -----------------------------------------------------

class ParseError(InputError):
    """A token in an input file could not be parsed."""


class SelfLoopError(InputError):
    """An edge list contained a self-loop u == u."""


class EmptyGraphError(InputError):
    """An edge list or graph description yielded no nodes."""


class DimensionMismatchError(InputError):
    """Matrix dimensions are inconsistent with the graph or weight chain."""


class EmptyLabelsError(InputError):
    """A label matrix carries zero total energy."""


class NoEligibleNodesError(InputError):
    """No node qualifies for the two-hop class-similarity average."""


class NegativeInputError(InputError):
    """A score input expected to be nonnegative was negative."""


class DisconnectedError(InputError):
    """Effective resistance requested on a disconnected graph."""


# --- numeric-side errors ---------------------------------------------------

class NonSymmetricError(NumericError):
    """A matrix expected to be symmetric was not."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
