"""Exception hierarchy shared by all modules.

Search routines distinguish three outcomes: a certificate, a definite
negative (returned as ``None`` or a ``NotFound`` value), and an
interrupted search (``BudgetExceeded``).  The exceptions below never
stand in for a definite negative.
"""


class DigraphError(Exception):
    """Base class for everything raised by this package."""


class InvariantViolation(DigraphError):
    """A routine's check of its own answer failed; indicates a bug.
    Raised explicitly, not by ``assert``, so it survives ``python -O``."""


# ---- graph construction / queries -----------------------------------------

class LoopArc(DigraphError):
    """An arc (u, u) was supplied; loops are not representable."""


class VertexOutOfRange(DigraphError):
    """A vertex id or an arc endpoint is outside 0..n-1."""


class EmptyGraph(DigraphError):
    """The operation needs at least one (or two) vertices."""


class DegeneratePattern(DigraphError):
    """The requested pattern parameters collapse to a multigraph."""


class ParseError(DigraphError):
    """A graph or certificate file does not match its format."""


class TooLarge(DigraphError):
    """Exhaustive enumeration was requested beyond its size limit."""


# ---- menger ----------------------------------------------------------------

class SameVertex(DigraphError):
    """Disjoint-path query with u == v."""


class ArcPresent(DigraphError):
    """Disjoint-path query on a pair already joined by an arc."""


class VertexInSet(DigraphError):
    """Fan query with the apex inside the target set."""


# ---- budgets ---------------------------------------------------------------

class BudgetExceeded(DigraphError):
    """Search ran out of its node budget before completing.

    Carries a machine-readable ``details`` dict describing where the
    search stood when it stopped.
    """

    def __init__(self, message: str = "search budget exhausted", details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


# ---- gadget / chain machinery ----------------------------------------------

class WrongKind(DigraphError):
    """A gadget operation was applied to an unsupported gadget kind."""


class BadTarget(DigraphError):
    """The target set passed to an exit-path construction is invalid."""


class ChainTooPoor(DigraphError):
    """The chain has too few gadget-carrying arcs for the request."""


class EndpointMismatch(DigraphError):
    """Two alternating paths do not share the required endpoints."""


class OverlapViolation(DigraphError):
    """Structures that must only meet at designated vertices overlap."""


class Disjoint(DigraphError):
    """An intersection construction was called on disjoint gadgets."""


class BadStar(DigraphError):
    """The second gadget of an intersection is not of the extended kind."""


class ClosureInvalid(DigraphError):
    """Neither closure condition holds for the supplied chain data."""


# ---- finders ---------------------------------------------------------------

class RetriesExhausted(DigraphError):
    """Randomized girth reduction failed on every retry."""


class PropertyViolated(DigraphError):
    """The through-cycle / common-in-neighbour property failed at an arc.

    Signals the caller to contract that arc's tail and restart.
    """

    def __init__(self, arc: tuple[int, int]):
        super().__init__(f"no short through-cycle and no common in-neighbour at arc {arc}")
        self.arc = arc


class PreconditionUnverifiable(DigraphError):
    """A degree or ball-size hypothesis failed at a concrete witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class StuckGreedy(DigraphError):
    """Greedy path extension ran out of fresh out-neighbours."""

    def __init__(self, path: tuple[int, ...], step: int):
        super().__init__(f"greedy extension stuck after {step} arcs")
        self.path = path
        self.step = step


class BadParams(DigraphError):
    """Finder parameters outside the supported range."""


# ---- constructions -----------------------------------------------------------

class PropertyMismatch(DigraphError):
    """A building block does not carry the property the join requires."""
