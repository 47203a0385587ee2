"""Exception types shared across the package.

Every error carries a human-readable message plus enough structured data
(``witness`` attributes) to locate the offending elements programmatically.
"""

from __future__ import annotations


class TangleductError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(TangleductError):
    """Input data (JSON, tables, edge lists) does not match its schema."""


class HypothesisFailure(TangleductError):
    """A theorem hypothesis does not hold for the given instance.

    CLI maps these to exit code 2: the input was well-formed but the
    requested result is not guaranteed to exist for it.
    """


# --- universe construction -------------------------------------------------

class NotAPartialOrder(TangleductError):
    def __init__(self, reason: str, witness=None):
        super().__init__(f"relation is not a partial order: {reason}")
        self.witness = witness


class NotInvolution(TangleductError):
    def __init__(self, element: int, image: int, round_trip: int):
        super().__init__(
            f"inverse table is not an involution: {element} -> {image} -> {round_trip}"
        )
        self.witness = (element, image, round_trip)


class InvolutionNotOrderReversing(TangleductError):
    def __init__(self, a: int, b: int):
        super().__init__(
            f"involution does not reverse the order at pair ({a}, {b}):"
            f" {a} <= {b} must hold exactly when inverse({b}) <= inverse({a})"
        )
        self.witness = (a, b)


class JoinNotSupremum(TangleductError):
    def __init__(self, r: int, s: int, t: int):
        super().__init__(
            f"join({r}, {s}) is not the least upper bound (checked against {t})"
        )
        self.witness = (r, s, t)


# --- set / graph backends --------------------------------------------------

class ClosureTooLarge(TangleductError):
    # the cap bounds a universe's side pairs: the members and their flips
    def __init__(self, cap: int):
        super().__init__(
            f"separation universe exceeds the configured cap of {cap} elements"
        )
        self.cap = cap


class GroundSetTooLarge(TangleductError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"ground set has {size} vertices, cap is {cap}")


# --- tree labellings -------------------------------------------------------

class AlphaNotInvolutive(TangleductError):
    def __init__(self, edge, fwd: int, bwd: int):
        super().__init__(
            f"edge labels do not commute with the involution on {edge}:"
            f" label {fwd} reversed is not {bwd}"
        )
        self.witness = (edge, fwd, bwd)


class AlphaImageOutsideS(TangleductError):
    def __init__(self, edge, label: int):
        super().__init__(f"edge {edge} is labeled {label}, not a member of the system")
        self.witness = (edge, label)


class RootLabelTrivial(TangleductError):
    def __init__(self, root: int, label: int):
        super().__init__(
            f"root leaf {root} carries label {label}, which is trivial or degenerate;"
            " tightening a rooted tree requires a nontrivial, nondegenerate root label"
        )
        self.witness = (root, label)


# --- duality engines -------------------------------------------------------

class FNotStars(TangleductError):
    def __init__(self, sigma):
        super().__init__(f"family member {sorted(sigma)} is not a star")
        self.witness = frozenset(sigma)


class FNotStandard(HypothesisFailure):
    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(
            "family is not standard for the system: it does not force the"
            f" trivial orientations {list(self.missing)}"
        )


class NotFSeparable(HypothesisFailure):
    def __init__(self, r: int, r_prime: int, detail: str = ""):
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"system is not separable for this family at the pair"
            f" ({r}, {r_prime}): no separator found{extra}"
        )
        self.witness = (r, r_prime)
        self.detail = detail


class ShiftLeftS(TangleductError):
    def __init__(self, edge, label: int):
        super().__init__(
            f"shifting edge {edge} produced label {label} outside the system:"
            " the shift needs s0 to emulate the root label"
        )
        self.witness = (edge, label)


class TargetNotAboveR(TangleductError):
    def __init__(self, target: int, r: int):
        super().__init__(
            f"element {target} has no orientation above {r}; it is outside the"
            " shift map's domain"
        )
        self.witness = (target, r)


class NoMatchingStar(TangleductError):
    def __init__(self, star):
        super().__init__(
            f"no family member reduces to the node star {sorted(star)};"
            " the tree is not expandable over this family"
        )
        self.witness = frozenset(star)


class TooLarge(TangleductError):
    def __init__(self, count: int, cap: int):
        super().__init__(
            f"census would enumerate 2^{count} orientations, cap is 2^{cap}"
        )


class InternalInvariant(TangleductError):
    """A proved invariant failed at run time; indicates a bug, not bad input."""
