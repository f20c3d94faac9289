"""Small shared helpers."""

from fractions import Fraction


def exact(x) -> Fraction:
    """Fraction from x, reading floats through their decimal string form.

    Fraction(0.04) picks up binary representation error; Fraction("0.04")
    does not. Times and rates coming from config files pass through here.
    """
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def exact_fields(obj, *names):
    """Make each named field of a frozen dataclass exact; None stays None."""
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            object.__setattr__(obj, name, exact(value))
