"""Exception hierarchy; the CLI maps these onto exit-code categories."""


class KitwpaError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KitwpaError):
    """Configuration file missing, malformed, or schema-invalid (exit 2)."""


class NumericError(KitwpaError):
    """Simulation rejected or failed to converge (exit 3)."""


def nonfinite_error(what: str, bad, frequencies, elements) -> NumericError:
    """The NumericError for ``what`` (a subject and its verb), not finite
    where the boolean array ``bad`` is set over ``frequencies`` in Hz: deep
    above the cell cutoff one period's chain matrix leaves the float range.
    From the grid's first frequency on no stop frequency cures that, and the
    message names the period's distinct ``elements`` (up to four) instead."""
    named = ", ".join(map(repr, elements[:4])) + ", ..." * (len(elements) > 4)
    return NumericError(
        f"{what} not finite at {int(bad.sum())} of {bad.size} frequencies, "
        f"the first at {frequencies[bad][0] / 1e9:.4f} GHz: the chain matrix "
        "of one period leaves the float range " + (
            f"from the grid's first frequency on; check its elements [{named}]"
            if bad[0] else "there; lower the stop frequency of "
            "analysis.frequency_grid"))
