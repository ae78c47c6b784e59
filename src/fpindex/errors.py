"""Error hierarchy shared by all fpindex modules.

Two flavors matter to callers (and to the CLI's exit codes): InputRejection
means the caller handed us something malformed or out of scope, while
InvariantFailure means an internal consistency check or a theorem-backed
guarantee failed, which is always reportable as a bug or a counterexample.
"""
from __future__ import annotations


class FpIndexError(Exception):
    """Base class for every structured error raised by this package."""

    @property
    def reason(self) -> str:
        return type(self).__name__


class InputRejection(FpIndexError):
    """The input violates a documented precondition (CLI exit code 2)."""


class InvariantFailure(FpIndexError):
    """An internal invariant or theorem-backed guarantee failed (exit code 1)."""


# -- exact geometry ----------------------------------------------------------

class PointOnLoop(InputRejection):
    """Winding number queried at a point lying on the loop itself."""


# -- curves and crossings ----------------------------------------------------

class NotSimple(InputRejection):
    """The polygonal loop intersects itself."""


class NotPositivelyOriented(InputRejection):
    """The loop is clockwise (negative signed area); curves are never
    reversed, so a clockwise input is rejected."""


class NotTransverse(InputRejection):
    """The two curves meet somewhere without crossing properly."""


class AlternationViolation(InvariantFailure):
    """Crossing kinds fail to alternate along one of the curves."""


# -- boundary correspondences ------------------------------------------------

class HasFixedPoint(InputRejection):
    """Some boundary point maps to itself; the index is undefined."""


class DegenerateLoop(InputRejection):
    """A path cannot form a loop: a difference path that is a single point,
    or an input curve with fewer than 3 vertices or a vertex repeated
    consecutively."""


class ArcsDisagree(InputRejection):
    """The two maps being glued differ somewhere on the shared arc."""


class BadGluingGeometry(InputRejection):
    """The regions do not meet along exactly one positive-length arc."""


class NotOrientationPreserving(InputRejection):
    """A boundary correspondence reverses orientation: its source
    parameters do not increase, or its target parameters do not increase
    cyclically with exactly one wrap."""


# -- torus diagrams ----------------------------------------------------------

class ConstraintOnCurve(InputRejection):
    """A prescribed point lands on a mark: a constraint parameter equals a
    crossing parameter, or an extra oracle pair lands on a token or on
    another extra pair."""


class OrderViolation(InputRejection):
    """Constraint points are not in positive cyclic order."""


class BasePointOnGrid(InputRejection):
    """The cut cannot move to constraint 2 or 3: the path misses it."""


class FormulaMismatch(InvariantFailure):
    """The two index formulas (or a combinatorial/geometric pair) disagree."""


class PathHitsMark(InputRejection):
    """The staircase path passes through a crossing mark."""


# -- prescription ------------------------------------------------------------

class TooFewCrossings(InputRejection):
    """Pair selection needs at least four crossings."""


class AssumptionViolated(InvariantFailure):
    """Fewer than two doubly adjacent pairs qualified; diagram archived."""

    def __init__(self, message: str, diagram_dump: str | None = None) -> None:
        super().__init__(message)
        self.diagram_dump = diagram_dump


class InternalCaseGap(InvariantFailure):
    """No reinsertion candidate verified; must never fire."""


class TooLarge(InputRejection):
    """The diagram exceeds the exhaustive oracle's size bound. Kept with
    oracle_enumerate until the index-set DP replaces the oracle."""


# -- packings ----------------------------------------------------------------

class PieceOutsideRect(InputRejection):
    """A piece is not contained in the bounding rectangle."""


class PiecesOverlap(InputRejection):
    """Two pieces share interior points or more than one boundary point."""


class BadInterstice(InputRejection):
    """A complementary component is not a topological triangle."""


class CornerContact(InputRejection):
    """A piece touches the rectangle boundary at a corner."""


class NotTransverseOverlay(InputRejection):
    """The two packings' curves fail the overlay transversality conditions."""


class HypothesesNotMet(InputRejection):
    """The two packings do not satisfy the incompatibility hypotheses."""


class TheoremViolationSuspected(InvariantFailure):
    """Hypotheses hold yet no cutting pair was found."""
