"""The text formats under random damage: every bundled file, with one line
mutated, either parses or fails with a ValueError, and the directive formats
(.logic, .vec, .terms, .op) name the line."""

import warnings
from importlib import resources
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from correlpoly._text import exact_str, number
from correlpoly.exact_hull import parse_dd
from correlpoly.logic_core import load_builtin, parse_logic
from correlpoly.quantum import parse_operator_expr
from correlpoly.realization import parse_vectors
from correlpoly.vertex_gen import SCENARIO_RECIPES, parse_terms

DATA = resources.files("correlpoly.data")
TERMS_LOGIC = {preset: logic for logic, preset in SCENARIO_RECIPES.values() if preset}
# relative `bind ... proj` paths resolve here and find nothing
NOWHERE = Path(__file__).with_name("no-such-directory")

PARSERS = {
    ".logic": lambda name, text: parse_logic(text),
    ".vec": lambda name, text: parse_vectors(text),
    ".terms": lambda name, text: parse_terms(text, load_builtin(TERMS_LOGIC[name])),
    ".op": lambda name, text: parse_operator_expr(text, base_dir=NOWHERE),
    ".ext": lambda name, text: parse_dd(text),
    ".ine": lambda name, text: parse_dd(text),
}
FILES = sorted((f.name, folder) for folder in ("logics", "vectors", "terms", "ops", "golden")
               for f in (DATA / folder).iterdir())

# tokens that are wrong in most places, besides the file's own tokens
ODD_TOKENS = ["", "0", "-1", "1/0", "1/2/3", "1e999", "99999999999999999999", "x", "#",
              "$t1", "A1@9", "@1", "nan", "inf", "logic", "context", "dim", "vector", "term",
              "sites", "param", "bind", "spin", "proj", "builtin:nope", "begin", "end",
              "linearity", "real", "*", "V-representation", "H-representation"]


def mutate(data, text):
    """text with one line changed: a token dropped, inserted or replaced, or
    the line duplicated or deleted."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["drop", "insert", "replace", "duplicate", "delete"]))
    if op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "delete":
        del lines[i]
    else:
        toks = lines[i].split()
        if not toks:
            op = "insert"
        k = data.draw(st.integers(0, len(toks) if op == "insert" else len(toks) - 1))
        if op != "insert":
            del toks[k]
        if op != "drop":
            own = text.split()
            toks.insert(k, data.draw(st.sampled_from(ODD_TOKENS) | st.sampled_from(own)))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, folder", FILES, ids=[name for name, _ in FILES])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mutated_file_parses_or_names_its_line(name, folder, data):
    suffix = Path(name).suffix
    text = mutate(data, (DATA / folder / name).read_text())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # intertwining contexts
            PARSERS[suffix](Path(name).stem, text)
    except ValueError as exc:
        if suffix not in (".ext", ".ine"):
            # only the end-of-file checks have no line to name
            assert str(exc).startswith(("line ", "missing ")), str(exc)


def test_decimal_exponent_bound():
    assert number("1e-4300", Fraction) == Fraction(1, 10**4300)
    assert number("2.5E+4300", Fraction) == 25 * 10**4299
    assert number("1e-4300", float) == 0.0
    for kind in (Fraction, float):
        for tok in ("1e4301", "-1.5e-4301", "1E1000000000", "0e99999"):
            with pytest.raises(ValueError, match=f"'{tok}' has an exponent outside -4300..4300"):
                number(tok, kind)


def test_digit_bound_and_long_values_read_back():
    # 4301 digits, those of 10**4300, is the most an integer in a token or a
    # numerator or denominator of an exact decimal may have
    n, nines = 10**4301 - 1, "9" * 4301
    ones = (10**4300 - 1) // 9                  # 4300 ones
    for tok, want in ((nines, n), ("-" + nines, -n), ("1/" + nines, Fraction(1, n)),
                      (nines + "/2", Fraction(n, 2)), ("1" * 4300 + ".5", ones + Fraction(1, 2)),
                      ("99.99e4299", 9999 * 10**4297)):
        x = number(tok, Fraction)
        assert x == want
        assert number(exact_str(x), Fraction) == x
    assert exact_str(10**4300) == "1" + "0" * 4300
    assert exact_str(-Fraction(1, 10**4300)) == "-1/1" + "0" * 4300
    assert exact_str(Fraction(-3, 4)) == "-3/4" and exact_str(7) == "7"
    for tok in ("1" * 4302, "-" + "9" * 4302, "1/" + "1" * 4302, "1" * 4302 + "/7",
                "1" * 4301 + ".5", "12.5e4300", "0.01e-4300"):
        for kind in (Fraction, float):
            if kind is float and "e" in tok:
                continue
            with pytest.raises(ValueError, match=f"^'{tok}' has more than 4301 digits$"):
                number(tok, kind)


def test_long_ratio_sides_are_plain_integers():
    # past 4300 characters each side of p/q is a sign and digits only: an
    # exponent in the numerator neither hides the rest of the token from the
    # digit count nor makes a billion-digit integer, and a long decimal
    # numerator is not truncated to an integer
    for tok, problem in (("1e1000000000/" + "1" * 4300, "is not a rational number"),
                         ("1e5/" + "1" * 10000, "has more than 4301 digits"),
                         ("1.5" + "0" * 4297 + "/1", "is not a rational number"),
                         ("1/" + "1" * 4302, "has more than 4301 digits"),
                         ("1/_" + "1" * 4301, "is not a rational number")):
        for kind in (Fraction, float):
            with pytest.raises(ValueError, match=f"^'{tok}' {problem}$"):
                number(tok, kind)
    assert number("+" + "1" * 4301 + "/-" + "1" * 4301, Fraction) == -1
    # a short side keeps what int() reads, an underscore among its digits too
    assert number("1" * 4000 + "/1_1", Fraction) == Fraction(int("1" * 4000), 11)
