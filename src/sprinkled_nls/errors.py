"""Exception types shared across the package, and the one size rule.

Every array a config sizes (grid points, lattice sites, interval-table
cells, drawn atoms, samples, hat-moment points, interpolation points,
stacked starts), a run's record entries (the points its record diagnostics
read and its snapshots write) and the step count of a run pass
``checked_size`` against a ceiling stated here, before anything is allocated
or stepped."""

# ceiling on the step count of one run: over 100x the largest run in use (the
# default eps study's finest width steps 64,000 times)
MAX_STEPS = 10**7
# ceiling on the entries of any one array a config sizes, and on a run's
# record entries: 1 GiB of float64; the default solve's 101 records x 4096
# points, which no run holds at once, are 324x below it
MAX_ENTRIES = 2**27


class ConfigError(ValueError):
    """A value that a config key or an input file can set fails its check;
    raised by the check itself, wherever it is made.  A precondition that
    only code can break raises plain ValueError instead, so it propagates
    as a bug.  A ValueError, so callers that catch ValueError see it too."""


def checked_size(what: str, n, ceiling: int) -> int:
    """int(n) for a size 0 <= n <= ceiling; any other n, NaN and inf
    included, raises ConfigError naming the size, its value and the
    ceiling."""
    if not 0 <= n <= ceiling:  # NaN fails both comparisons
        shown = n if isinstance(n, int) else f"{float(n):.6g}"
        raise ConfigError(f"{what} is {shown}, outside the size ceiling "
                          f"[0, {ceiling}]")
    return int(n)


class ResolutionError(Exception):
    """Grid too coarse to represent the requested mollification width."""


class BlowUpError(Exception):
    """Non-finite values appeared during time stepping, or in a run's
    recorded diagnostics."""

    def __init__(self, step: int, time: float, what: str = "field values"):
        self.step = step
        self.time = time
        super().__init__(f"non-finite {what} at step {step} (t = {time:.6g})")


class OracleInstabilityError(Exception):
    """Reference integrator norm grew beyond its stability tolerance."""
