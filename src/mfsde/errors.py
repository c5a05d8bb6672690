"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class GridMismatchError(ValueError):
    """Two grid-indexed objects do not live on the same grid."""


class RunFailure(RuntimeError):
    """A valid run could not produce its result."""


class BlowUpError(RunFailure):
    """The solver state left the trust region or became non-finite.

    `step` is the Euler step that did it, or -1 for a jump.
    """

    def __init__(self, step: int, time: float, state: float):
        self.step = step
        self.time = time
        self.state = state
        where = "at a jump" if step == -1 else f"at step {step}"
        super().__init__(f"state blew up {where} (t={time:.6g}): x={state!r}")
