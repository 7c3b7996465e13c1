"""Error taxonomy shared across the library and the CLI exit-code map."""


class SlitWeldError(Exception):
    """Base class for all library errors."""


class ValidationError(SlitWeldError):
    """Bad input: schema violations, out-of-domain arguments, degenerate data."""


class IntegrationError(SlitWeldError):
    """ODE integration could not complete (step underflow, step budget exhausted)."""


class HitSingularityError(IntegrationError):
    """A downward-flow trajectory ran into the driving singularity.

    Carries the time at which the trajectory got within the abort distance.
    """

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"trajectory hit the driving singularity at t={t:.6g}")


class DiagnosticsError(IntegrationError):
    """A structural assumption failed (step collapse, a non-converging or non-finite angle map)."""


class TraceError(IntegrationError):
    """A trace tip's error estimate exceeds its tolerance; carries the residual."""

    def __init__(self, residual: float, message: str | None = None):
        self.residual = residual
        super().__init__(message or f"trace tip error estimate {residual:.3g} exceeds tolerance")


class AccuracyError(SlitWeldError):
    """Quadrature refinement levels of the named integral disagree; carries both estimates."""

    def __init__(self, coarse: float, fine: float, integral: str = "the integral"):
        self.coarse = coarse
        self.fine = fine
        super().__init__(
            f"quadrature levels of {integral} disagree beyond tolerance: {coarse:.9g} vs "
            f"{fine:.9g}; not resolved at this quadrature level and welding resolution")


class ExtractionError(SlitWeldError):
    """Welding extraction failed: preimage arcs cover the circle or pairs break an invariant."""
