"""Error taxonomy shared across engines and the CLI.

Input problems (malformed files, shape mismatches) map to exit code 1;
verification failures (violated domination, coercivity breakdown, residuals
over tolerance) and numerical failures (an eigensolver that does not
converge) map to exit code 2.
"""


class InputError(ValueError):
    pass


class VerificationError(RuntimeError):
    pass


class CoercivityError(VerificationError):
    """The gauge does not dominate the map with a positive margin."""


class EnvelopeError(VerificationError):
    """Envelope computation produced an inconsistent (crossed) tube."""
