"""Small shared helpers."""

from fractions import Fraction

from .errors import ConfigError


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


def read_text(path, encoding) -> str:
    """The text of the file at path in encoding ("ASCII", "UTF-8"); a byte
    that does not decode raises ConfigError naming the file, the byte and
    its offset. Its own function, so that the file's bytes are freed
    before the text is parsed, which can then reuse their memory."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not {encoding}"
        ) from None
