"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or mismatched operand dimensions."""


class ContractViolationError(ValueError):
    """A caller violated a documented precondition."""


class IntegrationDiagnosticsError(RuntimeError):
    """Integration produced an unphysical state.

    ``t`` is the time of the first sample that breached an invariant, also
    inside a block of several samples. The advice to rerun with a smaller
    dt is for a run that took RK4 steps of dt, the fallback where a Taylor
    expansion per block of strides would cost more; a smaller dt gives it
    finer steps, or a budget a block fits.
    """

    def __init__(self, t: float, dt: float, trace_drift: float, min_eigenvalue: float, largest_entry: float):
        self.t = float(t)
        self.dt = float(dt)
        self.trace_drift = float(trace_drift)
        self.min_eigenvalue = float(min_eigenvalue)
        # A diverged state's trace is rounding noise; its largest |entry| is not (inf if not finite).
        self.largest_entry = float(largest_entry)
        super().__init__(
            f"state invariants breached at t = {self.t:g} (trace drift {self.trace_drift:.3g}, "
            f"min eigenvalue {self.min_eigenvalue:.3g}, largest entry {self.largest_entry:.3g}); "
            f"rerun with a step smaller than dt = {self.dt:g}"
        )
