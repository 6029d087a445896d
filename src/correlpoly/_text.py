"""What the text formats share: the directive reader of the .logic, .terms,
.vec and .op formats, the number readers and writer, and the reader of
bundled data files and of `builtin:`-style names."""

from __future__ import annotations

import re
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

# the package's data directory; read as plain files, because importing
# importlib.resources costs every start (and imports inspect on 3.12+)
_DATA = Path(__file__).with_name("data")
_FOLDERS = {".logic": "logics", ".vec": "vectors", ".terms": "terms", ".op": "ops",
            ".ext": "golden", ".ine": "golden"}


@contextmanager
def at_line(lineno):
    """Raise a ValueError or OverflowError from the block again as
    ValueError("line N: ...")."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def read_directives(text, grammar, headers):
    """Call grammar[usage](*args) for every directive line of text, in order.

    grammar maps usage strings such as "dim <d>", "vector <atom> <c>..." or
    "bind <label> spin <j> <theta> <phi>" to handlers.  A line takes the
    first usage whose keyword and literal words match its own; it must give
    one argument per <field>, or at least that many when the last field ends
    in "...".  The handler gets the arguments in the <field> positions.  A
    keyword in headers may occur once.  A handler may return a check, called
    without arguments after the last line.  A ValueError or OverflowError
    raised in handling a line, or by its check, is raised again as
    ValueError("line N: ...")."""
    forms = {}   # keyword -> [(usage, handler, literal words, <field> positions, width)]
    for usage, handler in grammar.items():
        words = usage.split()
        literal = [(i, w) for i, w in enumerate(words) if w[0] != "<"][1:]
        slots = [i for i, w in enumerate(words) if w[0] == "<"]
        forms.setdefault(words[0], []).append((usage, handler, literal, slots, len(words)))
    seen = set()
    checks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        with at_line(lineno):
            kw = tokens[0]
            if kw not in forms:
                raise ValueError(f"unknown directive {kw!r}")
            for usage, handler, literal, slots, width in forms[kw]:
                if all(i < len(tokens) and tokens[i] == w for i, w in literal):
                    break
            else:
                raise ValueError("expected " + " or ".join(repr(f[0]) for f in forms[kw]))
            if len(tokens) < width or (len(tokens) > width and not usage.endswith("...")):
                raise ValueError(f"expected {usage!r}")
            if kw in headers:
                if kw in seen:
                    raise ValueError(f"duplicate {kw} header")
                seen.add(kw)
            check = handler(*[tokens[i] for i in slots], *tokens[width:])
        if check is not None:
            checks.append((lineno, check))
    for lineno, check in checks:
        with at_line(lineno):
            check()


# the largest exponent of a decimal, in absolute value.  The exact value of
# a decimal costs time that grows faster than its exponent (1e1000000 takes
# about 0.3 s, and 1e1000000000 would take hours); a bound near the 4300
# digits that Python reads in an integer token keeps it short.
MAX_EXPONENT = 4300
MAX_DIGITS = MAX_EXPONENT + 1       # the digits of 10**MAX_EXPONENT
_DIGITS_BOUND = 10 ** MAX_DIGITS
STR_DIGITS = 4300   # the most digits int(), Fraction() and str() convert; Decimal has no limit


def number(tok):
    """The exact value of tok: an int for an integer token, and a Fraction
    for a ratio p/q of integers or for a decimal (a token with a point or an
    exponent), which is the rational it names.  A decimal's exponent is at
    most MAX_EXPONENT in absolute value.  No part of tok between '/', 'e'
    and 'E', nor the numerator or denominator of a decimal, has more than
    MAX_DIGITS digits: exact_str writes every value read here as a token
    that reads back the same."""
    problem = "is not a rational number"
    try:
        read = int
        if len(tok) > STR_DIGITS:       # past what int() and Fraction() read
            if max(sum(c.isdigit() for c in part) for part in re.split("[/eE]", tok)) > MAX_DIGITS:
                problem = f"has more than {MAX_DIGITS} digits"
                raise ValueError
            # Decimal reads a long integer, but only one of a sign and digits
            read = lambda part: int(Decimal(part) if re.fullmatch("[+-]?[0-9]+", part) else part)
        if "/" in tok:
            num, den = tok.split("/")
            x = Fraction(read(num), read(den))
        elif "." in tok or "e" in tok or "E" in tok:
            exponent = tok.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > MAX_EXPONENT:
                problem = f"has an exponent outside -{MAX_EXPONENT}..{MAX_EXPONENT}"
                raise ValueError
            x = Fraction(Decimal(tok) if len(tok) > STR_DIGITS else tok)
            if max(abs(x.numerator), x.denominator) >= _DIGITS_BOUND:
                problem = f"has more than {MAX_DIGITS} digits"
                raise ValueError
        else:
            x = read(tok)
    except (ValueError, ArithmeticError):    # decimal.InvalidOperation is an ArithmeticError
        raise ValueError(f"{tok!r} {problem}") from None
    return x


def real(tok):
    """number(tok) rounded to a float; a value past the float range is a
    ValueError."""
    try:
        return float(number(tok))
    except OverflowError:
        raise ValueError(f"{tok!r} is too large for a float") from None


def positive(tok, what):
    """int(tok) for decimal digits naming at least 1, else a ValueError."""
    if not (tok.isdecimal() and int(tok) >= 1):
        raise ValueError(f"{what} must be a positive integer, got {tok!r}")
    return int(tok)


def exact_str(x):
    """str(x) of an int or Fraction, "n" or "p/q" in lowest terms, whatever
    its digit count."""
    try:
        return str(x)
    except ValueError:      # more than STR_DIGITS digits
        x = Fraction(x)
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def bundled(name, suffix):
    """Text of the bundled data file `name` + suffix (.logic, .vec, .terms,
    .op, .ext or .ine)."""
    try:
        return (_DATA / _FOLDERS[suffix] / (name + suffix)).read_text()
    except FileNotFoundError:
        raise ValueError(f"no bundled {suffix} file named {name!r}") from None


def read_source(spec, prefix, load, parse, base_dir):
    """(text, value) for spec: load(name) for spec = prefix + name, with spec
    itself as the text; otherwise the text of the file spec (relative to
    base_dir unless None) and parse(text).  A file that cannot be read raises
    ValueError."""
    if spec.startswith(prefix):
        return spec, load(spec[len(prefix):])
    try:
        text = Path(base_dir or "", spec).read_text()
    except OSError as exc:
        raise ValueError(str(exc)) from None
    return text, parse(text)
