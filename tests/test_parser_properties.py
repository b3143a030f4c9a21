"""Property tests of the text parsers: any input parses or fails by name.

Every text must either parse or raise a KSTensorError or a ValueError;
anything else (a TypeError, an IndexError, a numpy warning turned error)
would reach the command line as a traceback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstensor.errors import KSTensorError
from kstensor.matrixflux import parse_matrix, parse_matrix_inline
from kstensor.solver import _CONFIG_KEYS, SimConfig, parse_config

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-40, 40).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0x10", "1_0", "", "  "]),
)
NUMBER_LIST = st.lists(NUMBER, max_size=10).map(",".join)
VALUE = st.one_of(NUMBER, NUMBER_LIST, st.sampled_from(["gaussian", "ball", "file"]), st.text(max_size=20))
CONFIG_LINE = st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), VALUE).map("=".join)
# a valid config; a line appended to it overrides one key
VALID_CONFIG = """
matrix = 1,0,0,0,1,0,0,0,1
chi = 0.5
n_cells = 32
half_width = 10.0
init = gaussian
t_end = 0.5
"""
CONFIG_TEXT = st.one_of(
    st.text(),
    st.lists(st.one_of(CONFIG_LINE, st.text(max_size=20))).map("\n".join),
    CONFIG_LINE.map(lambda line: VALID_CONFIG + line),
)
MATRIX_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(NUMBER, max_size=5).map(" ".join), max_size=5).map("\n".join),
)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    """A base directory for matrix_file references that holds no file."""
    return str(tmp_path_factory.mktemp("no_matrix_files"))


@SETTINGS
@given(text=CONFIG_TEXT)
def test_parse_config_parses_or_fails_by_name(empty_dir, text):
    try:
        cfg = parse_config(text, base_dir=empty_dir)
    except (KSTensorError, ValueError):
        return
    assert isinstance(cfg, SimConfig)


@SETTINGS
@given(MATRIX_TEXT)
def test_parse_matrix_parses_or_fails_by_name(text):
    try:
        mat = parse_matrix(text)
    except (KSTensorError, ValueError):
        return
    assert mat.ndim == 2 and mat.shape[0] == mat.shape[1] >= 1


@SETTINGS
@given(st.one_of(st.text(), NUMBER_LIST))
def test_parse_matrix_inline_parses_or_fails_by_name(text):
    try:
        mat = parse_matrix_inline(text)
    except (KSTensorError, ValueError):
        return
    assert isinstance(mat, np.ndarray) and mat.ndim == 2 and mat.shape[0] == mat.shape[1]
