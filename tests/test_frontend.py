"""Polynomial parsing and the JSON support loader."""

import json

import pytest

from newton_monodromy.errors import (
    InputError,
    PolynomialSyntaxError,
    SupportSchemaError,
)
from newton_monodromy.frontend import load_support, parse_polynomial


def test_parse_cusp():
    s = parse_polynomial("x^2 + y^3")
    assert s.variables == ("x", "y")
    assert s.points == ((0, 3), (2, 0))
    assert s.n == 2


def test_parse_combines_coefficients():
    s = parse_polynomial("3*x^2 - 1/2*y^3 + x^2")
    assert s.points == ((0, 3), (2, 0))


def test_parse_fraction_coefficient():
    s = parse_polynomial("1/2*x^2 + y^3")
    assert s.points == ((0, 3), (2, 0))


def test_parse_repeated_variable_multiplies():
    s = parse_polynomial("x*x*y + x^4 + y^4")
    assert s.points == ((0, 4), (2, 1), (4, 0))


def test_parse_unary_signs():
    assert parse_polynomial("-x^2 + y^3").points == ((0, 3), (2, 0))
    assert parse_polynomial("+x^2 - y^3").points == ((0, 3), (2, 0))


def test_parse_letter_order_is_fixed():
    s = parse_polynomial("w^2 + z^2 + y^2 + x^2")
    assert s.variables == ("x", "y", "z", "w")
    assert s.points == (
        (0, 0, 0, 2),
        (0, 0, 2, 0),
        (0, 2, 0, 0),
        (2, 0, 0, 0),
    )


def test_parse_indexed_variables_sort_numerically():
    s = parse_polynomial("x10^2 + x2^3")
    assert s.variables == ("x2", "x10")
    assert s.points == ((0, 2), (3, 0))


def test_parse_mixed_styles_rejected():
    with pytest.raises(
        InputError,
        match=r"mixed variable styles 'x' and 'x1'; pass an explicit variable_order",
    ):
        parse_polynomial("x^2 + x1^3")
    # an explicit order resolves the ambiguity
    s = parse_polynomial("x^2 + x1^3", variable_order=("x", "x1"))
    assert s.variables == ("x", "x1")
    assert s.points == ((0, 3), (2, 0))


def test_parse_variable_order_validation():
    with pytest.raises(InputError, match="duplicates"):
        parse_polynomial("x^2 + y^3", variable_order=("x", "x", "y"))
    with pytest.raises(InputError, match="does not appear in variable_order"):
        parse_polynomial("x^2 + y^3", variable_order=("x",))


def test_parse_cancellation_drops_monomials():
    with pytest.raises(InputError, match="empty or degenerate support in x"):
        parse_polynomial("x^2 - x^2 + y^3")
    with pytest.raises(InputError, match="empty or degenerate support in y"):
        parse_polynomial("x^2 + 0*y^5")
    with pytest.raises(InputError, match="empty support after cancellation"):
        parse_polynomial("x^2 - x^2")


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(PolynomialSyntaxError, match=r"empty polynomial \(at position 0\)") as ei:
        parse_polynomial("")
    assert ei.value.position == 0
    with pytest.raises(
        PolynomialSyntaxError,
        match=r"a term needs at least one variable factor \(at position 7\)",
    ):
        parse_polynomial("x^2 + 3")
    with pytest.raises(
        PolynomialSyntaxError,
        match=r"expected an integer exponent after '\^' \(at position 2\)",
    ):
        parse_polynomial("x^")
    with pytest.raises(
        PolynomialSyntaxError, match=r"zero denominator \(at position 2\)"
    ):
        parse_polynomial("1/0*x^2")
    with pytest.raises(
        PolynomialSyntaxError,
        match=r"unknown variable 'q' \(use x,y,z,w or x1,x2,\.\.\. or pass "
        r"variable_order\) \(at position 0\)",
    ):
        parse_polynomial("q^2 + y^3")
    with pytest.raises(PolynomialSyntaxError, match="unexpected character"):
        parse_polynomial("x^2 + y!")
    with pytest.raises(PolynomialSyntaxError, match=r"expected '\*'"):
        parse_polynomial("x y")
    with pytest.raises(PolynomialSyntaxError, match="expected a variable after"):
        parse_polynomial("x**2")


def _write(tmp_path, data) -> str:
    path = tmp_path / "support.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def test_load_support_roundtrip(tmp_path):
    path = _write(tmp_path, {"variables": ["x", "y"], "support": [[2, 0], [0, 3]]})
    s = load_support(path)
    assert s.variables == ("x", "y")
    assert s.points == ((0, 3), (2, 0))


def test_load_support_schema_errors(tmp_path):
    cases = [
        ("not json {", "invalid JSON"),
        ([1, 2], "top level must be an object"),
        ({"variables": ["x"], "support": [[2]], "extra": 1}, "unknown keys: extra"),
        ({"variables": ["x"]}, "need both 'variables' and 'support'"),
        ({"variables": [], "support": [[2]]}, "list of identifiers"),
        ({"variables": ["x", "2y"], "support": [[2, 0]]}, "list of identifiers"),
        # $ also matches before a final newline: the whole name must match
        ({"variables": ["x\n", "y"], "support": [[2, 0]]}, "list of identifiers"),
        ({"variables": ["x", "x"], "support": [[2, 0]]}, "duplicate variable names"),
        ({"variables": ["x"], "support": []}, "nonempty list"),
        ({"variables": ["x", "y"], "support": [[2]]}, "length-2 integer lists"),
        (
            {"variables": ["x", "y"], "support": [[True, 0], [0, 3]]},
            "length-2 integer lists",
        ),
        ({"variables": ["x"], "support": [[-2]]}, "negative exponent"),
        (
            {"variables": ["x", "y"], "support": [[2, 0], [2, 0]]},
            r"duplicate support point \[2, 0\]",
        ),
    ]
    for data, pattern in cases:
        with pytest.raises(SupportSchemaError, match=pattern):
            load_support(_write(tmp_path, data))


def test_load_support_refuses_unreadable_files_and_a_repeated_key(tmp_path):
    """A missing path, a directory and bytes that are no UTF-8 raise
    SupportSchemaError, not OSError or UnicodeDecodeError; a key given
    twice raises too, where json would keep the last one."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    twice = tmp_path / "twice.json"
    twice.write_text(
        '{"variables": ["x"], "variables": ["x", "y"], "support": [[2, 0], [0, 3]]}'
    )
    cases = [
        (tmp_path / "missing.json", "cannot read .*missing.json"),
        (tmp_path, "cannot read"),
        (binary, "cannot read .*codec can.t decode"),
        (twice, r"repeated key among \[.variables., .variables., .support.\]"),
    ]
    for path, pattern in cases:
        with pytest.raises(SupportSchemaError, match=pattern):
            load_support(str(path))


def test_schema_errors_are_input_errors():
    assert issubclass(SupportSchemaError, InputError)
    assert issubclass(PolynomialSyntaxError, InputError)
