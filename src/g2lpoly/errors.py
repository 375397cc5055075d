"""Exception hierarchy shared across the package."""


class G2Error(Exception):
    """Base class for all errors raised by this package."""


class NotOddPrime(G2Error):
    """The modulus is even or smaller than 3."""


class NotSquarefree(G2Error):
    """The polynomial has a repeated root, so it cannot define a genus 2 curve."""


class NonResidue(G2Error):
    """Square root requested of a quadratic nonresidue."""


class BadWitness(G2Error):
    """A nonsquare witness is missing (no witness and no rng to draw one)
    or is actually a square."""


class InexactDivision(G2Error):
    """A division that the cluster structure should make exact left a remainder."""


class NotAlmostGood(G2Error):
    """The input violates the reduction pattern the algorithms rely on."""


class GoodReduction(G2Error):
    """The curve has good reduction at p; use ordinary point counting instead.

    Non-fatal routing signal: batch drivers report it per line and continue.
    """


class FieldTooLarge(G2Error):
    """Exhaustive point counting refused above the configured field size."""


class HasseViolation(G2Error):
    """A computed trace fell outside the Weil bound (internal consistency trap)."""


class AmbiguousOrder(G2Error):
    """Group-order search could not pin a unique order in the Hasse interval."""


class Unsupported(G2Error):
    """Operation not available in this (small-characteristic) configuration."""


class DegreeError(G2Error):
    """Polynomial degree outside the supported range."""
