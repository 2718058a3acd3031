"""Unit tests for the path-expression tokenizer, parser, and AST."""

import pytest

from repro.mechanisms.pathexpr import (
    Burst,
    Name,
    PathSyntaxError,
    Selection,
    Sequence,
    parse_path,
    parse_paths,
)
from repro.mechanisms.pathexpr import parser as parser_module
from repro.mechanisms.pathexpr.parser import tokenize


def test_tokenize_basic():
    tokens = tokenize("path a ; b end")
    assert [t.kind for t in tokens] == ["path", "name", ";", "name", "end"]


def test_tokenize_rejects_junk():
    with pytest.raises(PathSyntaxError):
        tokenize("path a ! b end")


def test_parse_single_name():
    path = parse_path("path read end")
    assert path.body == Name("read")


def test_parse_sequence():
    path = parse_path("path a ; b ; c end")
    assert isinstance(path.body, Sequence)
    assert [el.value for el in path.body.elements] == ["a", "b", "c"]


def test_parse_selection():
    path = parse_path("path a , b end")
    assert isinstance(path.body, Selection)
    assert [alt.value for alt in path.body.alternatives] == ["a", "b"]


def test_selection_binds_looser_than_sequence():
    path = parse_path("path a ; b , c end")
    assert isinstance(path.body, Selection)
    first, second = path.body.alternatives
    assert isinstance(first, Sequence)
    assert second == Name("c")


def test_parse_burst():
    path = parse_path("path { read } end")
    assert path.body == Burst(Name("read"))


def test_parse_grouping():
    path = parse_path("path { read } , (openwrite ; write) end")
    assert isinstance(path.body, Selection)
    burst, seq = path.body.alternatives
    assert isinstance(burst, Burst)
    assert isinstance(seq, Sequence)


def test_parse_figure1_paths():
    """The exact three declarations of the paper's Figure 1."""
    program = """
        path writeattempt end
        path { requestread } , requestwrite end
        path { read } , (openwrite ; write) end
    """
    paths = parse_paths(program)
    assert len(paths) == 3
    assert paths[0].body == Name("writeattempt")
    assert paths[1].operation_names() == {"requestread", "requestwrite"}
    assert paths[2].operation_names() == {"read", "openwrite", "write"}


def test_parse_figure2_paths():
    """The exact three declarations of the paper's Figure 2."""
    program = """
        path readattempt end
        path requestread , { requestwrite } end
        path { openread ; read } , write end
    """
    paths = parse_paths(program)
    assert len(paths) == 3
    assert isinstance(paths[1].body, Selection)
    burst = paths[2].body.alternatives[0]
    assert isinstance(burst, Burst)
    assert isinstance(burst.body, Sequence)


def test_nested_burst():
    path = parse_path("path { { a } } end")
    assert path.body == Burst(Burst(Name("a")))


def test_unparse_round_trip():
    sources = [
        "path read end",
        "path a ; b end",
        "path a , b end",
        "path { read } , write end",
        "path { read } , (openwrite ; write) end",
        "path a ; (b , c) ; d end",
        "path { (a ; b) } end",
    ]
    for source in sources:
        parsed = parse_path(source)
        assert parse_path(parsed.unparse()) == parsed


def test_operation_names_collects_all():
    path = parse_path("path a ; (b , { c }) end")
    assert path.operation_names() == {"a", "b", "c"}


def test_missing_end_raises():
    with pytest.raises(PathSyntaxError):
        parse_path("path a ; b")


def test_missing_path_keyword_raises():
    with pytest.raises(PathSyntaxError):
        parse_path("a ; b end")


def test_unclosed_brace_raises():
    with pytest.raises(PathSyntaxError):
        parse_path("path { a end")


def test_trailing_input_raises():
    with pytest.raises(PathSyntaxError):
        parse_path("path a end extra")


def test_empty_path_raises():
    with pytest.raises(PathSyntaxError):
        parse_path("path end")


def test_empty_program_raises():
    with pytest.raises(PathSyntaxError):
        parse_paths("   ")


def test_dangling_separator_raises():
    with pytest.raises(PathSyntaxError):
        parse_path("path a ; end")


def test_error_carries_position():
    try:
        parse_path("path a @ b end")
    except PathSyntaxError as err:
        assert err.position == 7
    else:  # pragma: no cover
        pytest.fail("expected PathSyntaxError")


def test_comments_are_stripped():
    program = """
        -- Figure 1, first declaration
        path writeattempt end  -- serializes write attempts
        path { requestread } , requestwrite end
    """
    paths = parse_paths(program)
    assert len(paths) == 2
    assert paths[0].body == Name("writeattempt")


def test_comment_only_program_raises():
    with pytest.raises(PathSyntaxError):
        parse_paths("-- nothing here")


def test_error_position_survives_comment_stripping():
    try:
        parse_path("-- lead-in\npath a @ b end")
    except PathSyntaxError as err:
        assert err.position == len("-- lead-in\npath a ")
    else:  # pragma: no cover
        pytest.fail("expected PathSyntaxError")


# ----------------------------------------------------------------------
# The program memo
# ----------------------------------------------------------------------
PROGRAM = """
    path writeattempt end
    path { requestread } , requestwrite end
"""


def test_memoized_program_equals_a_fresh_parse():
    first = parse_paths(PROGRAM)
    assert PROGRAM in parser_module._PROGRAMS
    cached = parse_paths(PROGRAM)
    assert cached == first == parser_module._parse_program(PROGRAM)


def test_mutating_a_parsed_program_does_not_reach_the_memo():
    paths = parse_paths(PROGRAM)
    paths.append(parse_path("path extra end"))
    paths.reverse()
    assert parse_paths(PROGRAM) == parser_module._parse_program(PROGRAM)


def test_bad_program_raises_on_every_call():
    bad = "path a ; end"
    for __ in range(3):
        with pytest.raises(PathSyntaxError):
            parse_paths(bad)
    assert bad not in parser_module._PROGRAMS


def test_program_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(parser_module, "_PROGRAMS", {})
    monkeypatch.setattr(parser_module, "_PROGRAMS_MAX", 4)
    for index in range(10):
        parse_paths("path op{} end".format(index))
        assert len(parser_module._PROGRAMS) <= 4
    assert parse_paths("path op9 end")[0].body == Name("op9")
