"""Scenario parser: grammar coverage and diagnostics."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealtangent.errors import ValidationError
from idealtangent.fields import QQ, PrimeField
from idealtangent.scenarios import TASKS, _BLOCK_KEYS, _SCALAR_KEYS, parse_scenario

GOOD = """
# two points on the projective line
task = tangent
field = q
nvars = 2
window = 2 9
m = 1
x_gens:
z_gens:
  x0*x1
"""


def test_parse_roundtrip():
    sc = parse_scenario(GOOD)
    assert sc.task == "tangent"
    assert sc.field == QQ
    assert sc.window == (2, 9)
    assert len(sc.z_gens) == 1 and not sc.x_gens


def test_prime_field_spec():
    sc = parse_scenario("task = operad\nfield = p:1000003\n")
    assert isinstance(sc.field, PrimeField)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ValidationError) as exc:
        parse_scenario("task = tangent\nbogus = 3\n")
    assert "line 2" in str(exc.value)


def test_unknown_task_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("task = dance\n")


def test_missing_task_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("nvars = 2\n")


def test_window_sanity():
    with pytest.raises(ValidationError):
        parse_scenario("task = tangent\nnvars = 2\nwindow = 5 2\n")


def test_inhomogeneous_generator_rejected_with_line():
    text = "task = tangent\nnvars = 2\nz_gens:\n  x0^2 + x1\n"
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text)
    assert "line 4" in str(exc.value)
    assert "inhomogeneous" in str(exc.value)


def test_indented_line_outside_block():
    with pytest.raises(ValidationError) as exc:
        parse_scenario("task = tangent\n  x0*x1\n")
    assert "outside a block" in str(exc.value)


def test_segre_ambient():
    sc = parse_scenario("task = rmap\nsegre = 1 1\nwindow = 2 6\n"
                        "z_gens:\n  x0*x3 - x1*x2\n")
    assert sc.ambient_nvars() == 4


def test_algebra_specs():
    sc = parse_scenario("task = harrison\nalgebra = nilpotent 3\n")
    assert sc.build_algebra().dims == {0: 3}
    sc = parse_scenario("task = harrison\nalgebra = product nilpotent 2 zero 1\n")
    assert sc.build_algebra().dims == {0: 3}
    sc = parse_scenario("task = harrison\nalgebra = frobnicate 4\n")
    with pytest.raises(ValidationError):
        sc.build_algebra()


@pytest.mark.parametrize("line,column", [
    ("nvars = two", 9),
    ("m = one", 5),
    ("weight = 2.5", 10),
    ("arity_cap = four", 13),
    ("twist = x", 9),
    ("max_i =", 8),
    ("d_max = 8 9", 9),
    ("algebra = nilpotent x", 11),
    ("algebra = nilpotent", 11),
    ("algebra = zero 1.5", 11),
    ("algebra = zero", 11),
    ("algebra = product nilpotent 2 zero q", 11),
    ("nvars = 0", 9),
    ("arity_cap = 1", 13),
    ("weight = 0", 10),
    ("algebra = nilpotent -1", 11),
    ("algebra = zero 0", 11),
    ("algebra = product nilpotent 2 zero 0", 11),
    ("segre = -2 0", 9),
    ("segre = -1 -1", 9),
    ("segre = 1 -1", 9),
    ("segre = -3 -3", 9),
    ("segre = 1", 9),
    ("max_i = -3", 9),
    ("d_max = -1", 9),
])
def test_bad_integer_is_a_located_validation_error(line, column):
    with pytest.raises(ValidationError) as exc:
        parse_scenario(f"task = harrison\n{line}\n").build_algebra()
    assert str(exc.value).startswith(f"line 2, column {column}: ")


# short free text, so a number typed into nvars or segre stays below 10**6
_free = st.text(alphabet=" \t-+*/^:=#.xpqz0123456789", max_size=6)
_number = st.integers(-3, 12).map(str)
_value = st.one_of(
    _number, st.lists(_number, max_size=3).map(" ".join), _free,
    st.sampled_from(TASKS + ("q", "p:7", "p:1000003", "p:8", "nilpotent 2",
                             "zero 1", "product nilpotent 2 zero 1")))
_assignment = st.builds("{} = {}".format, st.sampled_from(sorted(_SCALAR_KEYS)),
                        _value)
_poly = st.one_of(st.sampled_from(["x0*x1", "x0^2 - x1*x2", "1/2*x1", "x3", "0"]),
                  _free)
_block = st.builds(lambda key, lines: "\n".join([key + ":"] + ["  " + s for s in lines]),
                   st.sampled_from(sorted(_BLOCK_KEYS)), st.lists(_poly, max_size=3))
# mostly well-formed lines after a task line, so that many examples parse
_scenario = st.builds(
    lambda head, lines: "\n".join(head + lines),
    st.lists(st.sampled_from(TASKS).map("task = {}".format), max_size=1),
    st.lists(st.one_of(_assignment, _assignment, _block, _free), max_size=6))


@settings(max_examples=300, deadline=None)
@given(_scenario)
def test_any_text_parses_or_is_a_validation_error(text):
    try:
        parse_scenario(text)
    except ValidationError:
        pass
