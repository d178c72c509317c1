"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value or mismatched operand dimensions."""


class ContractViolationError(ValueError):
    """A caller violated a documented precondition."""


class IntegrationDiagnosticsError(RuntimeError):
    """The walk has no exact schedule within dt's budget, or produced an unphysical state.

    With ``stages`` given, a pair's cheapest exact Taylor schedule needs
    that many stages per sample stride, more than the ``budget`` that dt
    allows, and the run fails before its first step (``t`` is the first
    sample's time, the health fields NaN); a smaller dt raises the
    budget. Otherwise ``t`` is the time of the first sample that breached
    an invariant, also inside a block of several samples.
    """

    def __init__(
        self, t: float, dt: float, trace_drift: float = float("nan"), min_eigenvalue: float = float("nan"),
        largest_entry: float = float("nan"), stages: float | None = None, budget: float | None = None,
    ):
        self.t = float(t)
        self.dt = float(dt)
        self.trace_drift = float(trace_drift)
        self.min_eigenvalue = float(min_eigenvalue)
        # A diverged state's trace is rounding noise; its largest |entry| is not (inf if not finite).
        self.largest_entry = float(largest_entry)
        if stages is None:
            message = (
                f"state invariants breached at t = {self.t:g} (trace drift {self.trace_drift:.3g}, "
                f"min eigenvalue {self.min_eigenvalue:.3g}, largest entry {self.largest_entry:.3g})"
            )
        else:
            message = (
                f"no exact schedule within the budget: a sample stride needs {stages:g} Taylor stages "
                f"but dt = {self.dt:g} allows {budget:g}; rerun with a smaller dt"
            )
        super().__init__(message)
