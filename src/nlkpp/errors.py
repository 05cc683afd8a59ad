"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: UsageError -> 1, AssumptionFailure -> 2,
NonConvergence -> 3. Library callers catch ToolkitError for everything.
"""

import math


class ToolkitError(Exception):
    pass


class UsageError(ToolkitError):
    """Caller handed us something malformed: bad flag, bad file, bad range."""


def require_finite(name: str, value: float, sign: str = "") -> None:
    """Refuse a value that is not finite or, with sign "positive" or
    "nonnegative", not of that sign. Model parameters, kernel fields, grids
    and time steps are all checked here, so each is refused the same way."""
    ok = math.isfinite(value) and (sign == "" or value > 0.0
                                   or (sign == "nonnegative" and value == 0.0))
    if not ok:
        rule = f"finite and {sign}" if sign else "finite"
        raise UsageError(f"{name} must be {rule}; got {value!r}")


class AssumptionFailure(ToolkitError):
    """A standing hypothesis of the model does not hold for this input.

    `label` identifies which one (Q1..Q7 for the kernel checks, or a
    regime label such as "no-wave" when the requested object cannot exist).
    """

    def __init__(self, label: str, message: str):
        super().__init__(message)
        self.label = label


class NoWave(AssumptionFailure):
    """Requested speed is below the minimal wave speed; no profile exists."""

    def __init__(self, message: str):
        super().__init__("no-wave", message)


class NonConvergence(ToolkitError):
    """A numeric procedure failed to reach its tolerance.

    `label` names the stage ("iteration-stalled", "tail-underresolved", ...),
    `diagnostics` carries whatever numbers help debug it.
    """

    def __init__(self, label: str, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.label = label
        self.diagnostics = diagnostics or {}
