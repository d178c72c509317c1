"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or mismatched operand dimensions."""


class ContractViolationError(ValueError):
    """A caller violated a documented precondition."""


class IntegrationDiagnosticsError(RuntimeError):
    """Integration produced an unphysical state; rerun with a smaller dt."""

    def __init__(self, t: float, dt: float, trace_drift: float, min_eigenvalue: float):
        self.t = float(t)
        self.dt = float(dt)
        self.trace_drift = float(trace_drift)
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"state invariants breached at t = {self.t:g} (trace drift "
            f"{self.trace_drift:.3g}, min eigenvalue {self.min_eigenvalue:.3g}); "
            f"rerun with a step smaller than dt = {self.dt:g}"
        )
