import pytest

from liqlab.config import Field, parse_config, validate_config
from liqlab.errors import ConfigError


class TestParseConfig:
    def test_empty_document(self):
        assert parse_config("") == {}

    def test_float_value(self):
        assert parse_config("hurst=0.5") == {"hurst": 0.5}
        assert isinstance(parse_config("hurst=0.5")["hurst"], float)

    def test_int_bool_and_string_values(self):
        got = parse_config("n_steps=64\nclosure=true\nmethod=cholesky\n")
        assert got == {"n_steps": 64, "closure": True, "method": "cholesky"}
        assert isinstance(got["n_steps"], int)

    def test_comments_and_blank_lines(self):
        text = "# full line comment\n\nhurst=0.3  # trailing comment\n"
        assert parse_config(text) == {"hurst": 0.3}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'hurst'"):
            parse_config("hurst=0.5\nhurst=0.6")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("a=1\nbroken line\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config("=3")


SCHEMA = {
    "hurst": Field("float", 0.5, lambda v: None if 0 < v < 1 else "must be in (0, 1)"),
    "n": Field("int", 4),
    "name": Field("str", "x"),
    "flag": Field("bool", False),
    "grid": Field("floats", "1.0,2.0"),
}


class TestValidateConfig:
    def test_defaults_applied(self):
        got = validate_config({}, SCHEMA, "demo")
        assert got == {"hurst": 0.5, "n": 4, "name": "x", "flag": False,
                       "grid": [1.0, 2.0]}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"bogus": 1}, SCHEMA, "demo")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="expects an integer"):
            validate_config({"n": 0.5}, SCHEMA, "demo")
        with pytest.raises(ConfigError, match="expects a number"):
            validate_config({"hurst": "abc"}, SCHEMA, "demo")
        with pytest.raises(ConfigError, match="expects true/false"):
            validate_config({"flag": 1}, SCHEMA, "demo")

    def test_range_check(self):
        with pytest.raises(ConfigError, match="must be in \\(0, 1\\)"):
            validate_config({"hurst": 1.5}, SCHEMA, "demo")

    def test_int_widens_to_float(self):
        got = validate_config({"hurst": 0.25}, SCHEMA, "demo")
        assert got["hurst"] == 0.25
        with pytest.raises(ConfigError, match="must be in"):
            validate_config({"hurst": 1}, SCHEMA, "demo")

    def test_float_list_parsing(self):
        got = validate_config({"grid": "0.3, 0.5 ,0.7"}, SCHEMA, "demo")
        assert got["grid"] == [0.3, 0.5, 0.7]
        got = validate_config({"grid": 2.5}, SCHEMA, "demo")
        assert got["grid"] == [2.5]
        with pytest.raises(ConfigError, match="comma-separated"):
            validate_config({"grid": "a,b"}, SCHEMA, "demo")

    @pytest.mark.parametrize("key, value", [
        ("hurst", float("nan")), ("hurst", float("inf")), ("hurst", -float("inf")),
        ("hurst", 10 ** 400), ("grid", float("inf")), ("grid", "0.5,nan"),
        ("grid", "-inf,1.0"), ("grid", "1e400"),
    ])
    def test_non_finite_numbers_rejected(self, key, value):
        with pytest.raises(ConfigError, match="expects a finite number"):
            validate_config({key: value}, SCHEMA, "demo")
