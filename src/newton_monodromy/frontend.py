"""Input handling: a small polynomial parser and a JSON support loader.

The parser accepts sums of monomial terms over integers (or integer
fractions) and extracts the exponent support; coefficients are combined
exactly, and monomials whose coefficients cancel to zero are dropped.
Only the support survives: the engine assumes the coefficients are
nondegenerate.

Variable names are either taken from the fixed alphabet x, y, z, w or
from the indexed family x1, x2, ...; the two styles cannot be mixed
unless an explicit variable order is supplied.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputError, PolynomialSyntaxError, SupportSchemaError
from .newton import SupportSet

_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])")
_LETTERS = ("x", "y", "z", "w")
_INDEXED = re.compile(r"^x([1-9][0-9]*)$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise PolynomialSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def here(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else len(self.text)

    def fail(self, message: str):
        raise PolynomialSyntaxError(message, self.here())

    def parse(self):
        """List of (coefficient, {name: exponent}) terms, in source order."""
        if not self.tokens:
            raise PolynomialSyntaxError("empty polynomial", 0)
        terms = []
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            terms.append(self.term(sign))
            tok = self.peek()
            if tok is None:
                return terms
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1 if tok[1] == "-" else 1
                continue
            self.fail(f"expected '+' or '-' before {tok[1]!r}")

    def term(self, sign: int):
        coeff = Fraction(sign)
        tok = self.peek()
        if tok is None:
            self.fail("missing term")
        if tok[0] == "num":
            self.take()
            num = int(tok[1])
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den_tok = self.take()
                if den_tok is None or den_tok[0] != "num":
                    self.fail("expected an integer denominator after '/'")
                den = int(den_tok[1])
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", den_tok[2])
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                self.take()
                nxt = self.peek()
            if nxt is None or nxt[0] != "name":
                self.fail("a term needs at least one variable factor")
        exps: dict[str, int] = {}
        self.factor(exps)
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "op" and tok[1] in "+-"):
                return coeff, exps
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                tok = self.peek()
                if tok is None or tok[0] != "name":
                    self.fail("expected a variable after '*'")
                self.factor(exps)
                continue
            self.fail(f"expected '*', '+', '-', or end of input before {tok[1]!r}")

    def factor(self, exps: dict[str, int]):
        tok = self.take()
        if tok is None or tok[0] != "name":
            self.fail("expected a variable")
        name = tok[1]
        power = 1
        nxt = self.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "^":
            self.take()
            ptok = self.take()
            if ptok is None or ptok[0] != "num":
                self.fail("expected an integer exponent after '^'")
            power = int(ptok[1])
        exps[name] = exps.get(name, 0) + power


def _choose_order(names: list[str], text: str) -> tuple[str, ...]:
    letters = [nm for nm in names if nm in _LETTERS]
    indexed = [nm for nm in names if _INDEXED.match(nm)]
    # "x" belongs to the letter alphabet only; "x1", "x2", ... are indexed.
    unknown = [nm for nm in names if nm not in letters and nm not in indexed]
    if unknown:
        pos = text.find(unknown[0])
        raise PolynomialSyntaxError(
            f"unknown variable {unknown[0]!r} "
            "(use x,y,z,w or x1,x2,... or pass variable_order)",
            max(pos, 0),
        )
    if letters and indexed:
        raise InputError(
            f"mixed variable styles {letters[0]!r} and {indexed[0]!r}; "
            "pass an explicit variable_order"
        )
    if indexed:
        return tuple(sorted(indexed, key=lambda nm: int(nm[1:])))
    return tuple(nm for nm in _LETTERS if nm in letters)


def parse_polynomial(text: str, variable_order=None) -> SupportSet:
    """Support set of a polynomial given as a string like 'x^2 + y^3'.

    Terms are combined exactly; a monomial whose total coefficient is
    zero does not enter the support.  Raises PolynomialSyntaxError for
    malformed input and InputError when the surviving support is empty
    or misses some variable entirely.
    """
    terms = _Parser(text).parse()
    used: list[str] = []
    for _c, exps in terms:
        for nm in exps:
            if nm not in used:
                used.append(nm)
    if variable_order is not None:
        order = tuple(variable_order)
        if len(set(order)) != len(order):
            raise InputError("variable_order contains duplicates")
        missing = [nm for nm in used if nm not in order]
        if missing:
            raise InputError(
                f"variable {missing[0]!r} does not appear in variable_order"
            )
    else:
        order = _choose_order(used, text)
    index = {nm: i for i, nm in enumerate(order)}
    combined: dict[tuple[int, ...], Fraction] = {}
    for coeff, exps in terms:
        point = [0] * len(order)
        for nm, e in exps.items():
            point[index[nm]] += e
        key = tuple(point)
        combined[key] = combined.get(key, Fraction(0)) + coeff
    points = sorted(pt for pt, c in combined.items() if c != 0)
    if not points:
        raise InputError("empty support after cancellation")
    for i, nm in enumerate(order):
        if not any(pt[i] > 0 for pt in points):
            raise InputError(f"empty or degenerate support in {nm}")
    return SupportSet(variables=order, points=tuple(points))


def _unrepeated(pairs) -> dict:
    """A JSON object as a dict; a repeated key, which json lets the last
    one win, raises."""
    out = dict(pairs)
    if len(out) < len(pairs):
        raise SupportSchemaError(f"repeated key among {[k for k, _ in pairs]}")
    return out


def load_support(path: str) -> SupportSet:
    """Support set from a JSON file {"variables": [...], "support": [[...]]}.

    The schema is strict: exactly those two keys, each given once,
    distinct identifier names, equal-length nonnegative integer exponent
    vectors, and no duplicate points.  A file that cannot be opened or
    is not UTF-8 text raises SupportSchemaError as well.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unrepeated)
    except (OSError, UnicodeDecodeError) as exc:
        raise SupportSchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SupportSchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SupportSchemaError("top level must be an object")
    extra = sorted(set(data) - {"variables", "support"})
    if extra:
        raise SupportSchemaError(f"unknown keys: {', '.join(extra)}")
    if "variables" not in data or "support" not in data:
        raise SupportSchemaError("need both 'variables' and 'support'")
    variables = data["variables"]
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) and _IDENT.fullmatch(v) for v in variables)
    ):
        raise SupportSchemaError("'variables' must be a list of identifiers")
    if len(set(variables)) != len(variables):
        raise SupportSchemaError("duplicate variable names")
    support = data["support"]
    if not isinstance(support, list) or not support:
        raise SupportSchemaError("'support' must be a nonempty list")
    n = len(variables)
    points = []
    for row in support:
        if (
            not isinstance(row, list)
            or len(row) != n
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        ):
            raise SupportSchemaError(
                f"support rows must be length-{n} integer lists, got {row!r}"
            )
        if any(x < 0 for x in row):
            raise SupportSchemaError(f"negative exponent in {row!r}")
        points.append(tuple(row))
    if len(set(points)) != len(points):
        dup = next(p for p in points if points.count(p) > 1)
        raise SupportSchemaError(f"duplicate support point {list(dup)}")
    return SupportSet(variables=tuple(variables), points=tuple(sorted(points)))
