"""Exception types raised across the library."""


class HypercongError(Exception):
    """Base class for all hypercong-specific errors."""


class ZeroDenominator(HypercongError):
    """A shifted sum or product ran into a vanishing denominator factor."""


class NotPrime(HypercongError):
    """A value required to be prime failed the primality check."""


class NotPIntegral(HypercongError):
    """A rational with negative p-adic valuation cannot be reduced mod p^k."""


class CapExceeded(HypercongError):
    """An index or exponent exceeded a documented cap."""


class PrecisionCapExceeded(HypercongError):
    """A residue's work exceeds padic.RESIDUE_CAP (Morita Gamma, or B_{p-3} mod p^r)."""


class DivByNonUnit(HypercongError):
    """Jet division requires a nonzero constant coefficient in the divisor."""


class CapMismatch(HypercongError):
    """Binary jet operations require operands with equal degree caps."""


class ZeroLowerFactor(HypercongError):
    """A lower Pochhammer factor vanishes within the summation range."""


class NotTerminating(HypercongError):
    """The leading parameter is not a negative integer, so the sum does not terminate."""


class PreconditionViolated(HypercongError):
    """A verification was requested outside its stated hypotheses."""


class ConfigError(HypercongError):
    """A sweep specification is malformed (unknown check, empty grid, bad range)."""
