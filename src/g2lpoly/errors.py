"""Exception hierarchy shared across the package.  Each class carries the
token that the batch CLI prints, as ERR:<token>, for a line that raised it."""


class G2Error(Exception):
    """Base class for all errors raised by this package."""
    token = "error"


class NotOddPrime(G2Error):
    """The modulus is even or smaller than 3."""
    token = "not-odd-prime"


class NotSquarefree(G2Error):
    """The polynomial has a repeated root, so it cannot define a genus 2 curve."""
    token = "not-squarefree"


class NonResidue(G2Error):
    """Square root requested of a quadratic nonresidue."""
    token = "non-residue"


class BadWitness(G2Error):
    """sqrt_mod_p's nonsquare witness is missing where p = 1 mod 4 needs
    one, or is not a nonsquare."""
    token = "bad-witness"


class InexactDivision(G2Error):
    """A division that the cluster structure should make exact left a remainder."""
    token = "inexact-division"


class NotAlmostGood(G2Error):
    """The input violates the reduction pattern the algorithms rely on."""
    token = "not-almost-good"


class GoodReduction(G2Error):
    """The curve has good reduction at p; use ordinary point counting instead.

    Non-fatal routing signal: batch drivers report it per line and continue.
    """
    token = "good-reduction"


class FieldTooLarge(G2Error):
    """Exhaustive point counting refused above the configured field size."""
    token = "field-too-large"


class HasseViolation(G2Error):
    """A computed trace fell outside the Weil bound (internal consistency trap)."""
    token = "hasse-violation"


class AmbiguousOrder(G2Error):
    """Group-order search could not pin a unique order in the Hasse interval."""
    token = "ambiguous-order"


class Unsupported(G2Error):
    """Operation not available in this (small-characteristic) configuration."""
    token = "unsupported"


class DegreeError(G2Error):
    """Polynomial degree outside the supported range."""
    token = "degree"
