"""Edge-list, DOT and NDJSON record round trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mostar.io as io_mod
import mostar.tree as tree_mod
from mostar import (
    FamilySpec,
    Tree,
    build,
    is_isomorphic,
    parse_edge_list,
    random_tree,
    read_edge_list,
    to_dot,
    to_edge_list_text,
    tree_from_record,
    tree_record,
    write_edge_list,
)


def test_text_round_trip():
    t = build(FamilySpec.c(9, 2, 1))
    assert parse_edge_list(to_edge_list_text(t)) == t


def test_format_shape():
    t = Tree(3, [(0, 1), (1, 2)])
    assert to_edge_list_text(t) == "3\n0 1\n1 2\n"


def test_single_vertex():
    assert parse_edge_list("1\n") == Tree(1, [])
    assert to_edge_list_text(Tree(1, [])) == "1\n"


def test_file_round_trip(tmp_path):
    t = build(FamilySpec.spider(11, 4))
    target = tmp_path / "t.txt"
    write_edge_list(t, target)
    assert read_edge_list(target) == t
    with open(target) as fh:
        assert read_edge_list(fh) == t


def test_stream_write():
    t = build(FamilySpec.path(4))
    buf = io.StringIO()
    write_edge_list(t, buf)
    assert parse_edge_list(buf.getvalue()) == t


@pytest.mark.parametrize("n", [1, 2, 2048, 2049, 10**5])
def test_write_streams_the_text_of_to_edge_list_text(tmp_path, n):
    # the header, then the edges a chunk of at most _CHUNK_BYTES at a time
    t = Tree(1, []) if n == 1 else random_tree(n, 6)
    text = to_edge_list_text(t)
    buf = io.StringIO()
    with mock.patch.object(buf, "write", wraps=buf.write) as spy:
        write_edge_list(t, buf)
    assert buf.getvalue() == text
    assert n < 10**5 or spy.call_count > 2  # the header and more than one chunk
    assert all(len(c.args[0]) <= io_mod._CHUNK_BYTES for c in spy.call_args_list[1:])
    write_edge_list(t, tmp_path / "t.txt")
    assert (tmp_path / "t.txt").read_bytes() == text.encode()
    assert n <= tree_mod._SMALL_N or t._edges is None


def test_write_edge_list_round_trips_ids_of_two_words(tmp_path):
    # ids from 10^4 up take a second 4-digit word
    t = random_tree(20000, 5)
    write_edge_list(t, tmp_path / "t.txt")
    text = (tmp_path / "t.txt").read_text()
    assert text == f"{t.n}\n" + "".join(f"{u} {v}\n" for u, v in t._earr.tolist())
    assert read_edge_list(tmp_path / "t.txt") == t


def _percent(blocks, row, sep=""):
    """The rows of ``_write_rows`` from one ``%`` per block."""
    return sep.join(sep.join([row] * len(b)) % tuple(b.ravel().tolist()) for b in blocks if len(b))


def _written(blocks, row, sep=""):
    buf = io.StringIO()
    count = io_mod._write_rows(buf, blocks, row, sep)
    assert count == sum(map(len, blocks))
    return buf.getvalue()


# The edges of the 4-digit words and of int32.
_EDGE_VALUES = [0, 9, 10, 9_999, 10_000, 99_999_999, 10**8, 2**31 - 1]


@pytest.mark.parametrize("sep", ["", ",\n"])
@pytest.mark.parametrize("chunk", [1, 40, 1 << 16])
def test_rows_match_percent_at_word_edges(sep, chunk):
    ints = np.array(_EDGE_VALUES)
    blocks = [ints.reshape(-1, 2), ints[:0].reshape(0, 2), ints[::-1].reshape(-1, 2),
              ints.reshape(-1, 2)]
    with mock.patch.object(io_mod, "_CHUNK_BYTES", chunk):  # 1 byte: one row per chunk
        assert _written(blocks, "(%d, %d)\n", sep) == _percent(blocks, "(%d, %d)\n", sep)
        column = [ints.reshape(-1, 1), ints[::-1].reshape(-1, 1)]
        assert _written(column, "%d", sep) == _percent(column, "%d", sep)
        for wide in (2**31, 10**12, 2**63 - 1):  # past int32, the ids and sizes of no tree
            with pytest.raises(ValueError, match="negative"):
                _written([ints.reshape(-1, 1), np.array([[wide]])], "%d", sep)


def test_rows_with_no_slot_repeat_the_row():
    # the n = 1 NDJSON record: blocks of shape (k, 0)
    record = io_mod._record_row("ndjson", 1)
    blocks = [np.zeros((3, 0), np.int8), np.zeros((0, 0), np.int8), np.zeros((2, 0), np.int8)]
    assert _written(blocks, record) == '{"n":1,"edges":[]}\n' * 5
    assert _written(blocks, "", ",") == ",,,,"
    assert _written([], "%d") == ""


@pytest.mark.parametrize("row, sep", [("%s", ""), ("%%d", ""), ("100%", ""), ("%d\0", ""),
                                      ("%d", "%"), ("%d", "\0")])
def test_rows_with_a_percent_or_nul_literal_are_rejected(row, sep):
    with pytest.raises(ValueError, match="no '%'"):
        io_mod._write_rows(io.StringIO(), [np.ones((1, 1), np.int64)], row, sep)


def test_digit_table_is_built_on_the_first_write_not_at_import():
    code = (
        "import io, numpy as np\n"
        "import mostar.cli, mostar.io as m\n"
        "assert m._digit_words.cache_info().currsize == 0, 'built at import'\n"
        "m._write_rows(io.StringIO(), [np.ones((1, 1), np.int64)], '%d')\n"
        "assert m._digit_words.cache_info().currsize == 1\n"
    )
    src = str(Path(io_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert res.returncode == 0, res.stderr


def test_negative_values_are_rejected():
    with pytest.raises(ValueError, match="negative"):
        io_mod._write_rows(io.StringIO(), [np.array([[3, -1]])], "%d %d\n")


_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(0, 20_000),
                    st.integers(0, 2**31 - 1))
_LITERALS = st.text(st.characters(codec="utf-8", exclude_characters="%\0"), max_size=5)


@st.composite
def _row_blocks(draw):
    """(blocks, row, sep, chunk bytes): int64 blocks of one width and a row
    of that many slots, with literals between them."""
    slots = draw(st.integers(0, 4))
    literals = draw(st.lists(_LITERALS, min_size=slots + 1, max_size=slots + 1))
    blocks = [np.array(draw(st.lists(_VALUES, min_size=k * slots, max_size=k * slots)),
                       np.int64).reshape(k, slots)
              for k in draw(st.lists(st.integers(0, 12), max_size=4))]
    sep = draw(st.sampled_from(["", ",\n", ","]))
    return blocks, "%d".join(literals), sep, draw(st.integers(1, 200))


@settings(max_examples=200, deadline=None)
@given(_row_blocks())
@example(([np.zeros((1, 0), np.int64)], '{"n":1,"edges":[]}\n', "", 1 << 16))
@example(([np.zeros((0, 2), np.int64), np.array([[0, 2**31 - 1]])], "%d %d", ",\n", 8))
@example(([np.array([[0, 2**31]])], "%d %d", ",\n", 8))
def test_rows_match_percent(case):
    blocks, row, sep, chunk = case
    with mock.patch.object(io_mod, "_CHUNK_BYTES", chunk):
        if any(b.size and b.max() > 2**31 - 1 for b in blocks):
            with pytest.raises(ValueError, match="negative"):
                _written(blocks, row, sep)
        else:
            assert _written(blocks, row, sep) == _percent(blocks, row, sep)


def _path_text(n, last):
    """Edge-list text of a path on n vertices whose last line is ``last``."""
    return "".join([f"{n}\n", *(f"{i} {i + 1}\n" for i in range(n - 2)), last + "\n"])


@pytest.mark.parametrize(
    "text",
    [
        "", "3\n0 1\n", "3\n0 1\n1 2\n2 0\n", "2\n0 x\n", "0\n", "4\n0 1\n1 2\n3 3\n",
        # bad tokens on the last line, on both sides of the small-tree threshold
        *(pytest.param(_path_text(n, last), id=f"n{n}-{name}") for n in (3, 3000)
          for name, last in (("20-digit-id", f"{n - 2} 12345678901234567890"),
                             ("fraction", f"{n - 2} 2.5"), ("sign-only", f"+x {n - 1}"))),
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_whitespace_only_text_is_empty():
    # np.fromstring reads blank text as [0]; it must not become "vertex count 0"
    for text in ("  \n", "\t\r\n\x0b\x0c"):
        with pytest.raises(ValueError, match="empty edge-list input"):
            parse_edge_list(text)


@pytest.mark.parametrize("n", [3, 3000])
def test_crlf_and_tab_separators_parse_like_lf_and_space(n):
    text = _path_text(n, f"{n - 2} {n - 1}")
    odd = text.replace("\n", "\r\n").replace(" ", "\t \t")
    assert parse_edge_list(odd) == parse_edge_list(text) == Tree(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("n", [3, 3000])
def test_int64_max_id_is_out_of_range(n):
    # the compiled pass saturates to this value on overflow, so it is read again by token
    with pytest.raises(ValueError, match="outside 0.."):
        parse_edge_list(_path_text(n, f"{n - 2} 9223372036854775807"))


def test_plain_text_skips_the_token_path_and_signed_text_takes_it():
    text = _path_text(3000, "2998 2999")
    with mock.patch.object(io_mod, "_token_values", wraps=io_mod._token_values) as spy:
        plain = parse_edge_list(text)
        assert spy.call_count == 0
        signed = parse_edge_list("+" + text)
        assert spy.call_count == 1
    assert plain == signed and plain.n == 3000


@pytest.mark.parametrize("n", [3, 3000])
def test_ids_are_python_ints_and_records_round_trip(n):
    edges = np.array([(i + 1, i) for i in range(n - 1)])
    scalars = [(np.int64(u), np.int32(v)) for u, v in edges.tolist()]
    for t in (Tree(n, edges), Tree(n, scalars), parse_edge_list(_path_text(n, f"{n - 2} {n - 1}"))):
        assert type(t.edges[0][0]) is int and type(t.edges[-1][1]) is int
        assert type(t.adj[0][0]) is int
        back = tree_from_record(json.loads(json.dumps(tree_record(t))))
        assert back == t and back.edges == t.edges


def test_dot_output():
    dot = to_dot(Tree(3, [(0, 1), (1, 2)]))
    assert dot.startswith("graph tree {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert to_dot(Tree(1, [])).count("0;") == 1


def test_text_and_dot_of_a_large_tree_skip_the_tuple_view():
    t = random_tree(3000, 8)
    pairs = t._earr.tolist()
    assert t.n > tree_mod._SMALL_N
    assert to_edge_list_text(t) == f"{t.n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    assert to_dot(t, "a%db") == "graph a%db {\n" + "".join(f"  {u} -- {v};\n" for u, v in pairs) + "}\n"
    assert tree_record(t) == {"n": t.n, "edges": [[u, v] for u, v in pairs]}
    assert t._edges is None
    assert to_dot(Tree(1, []), "%s") == "graph %s {\n  0;\n}\n"


@pytest.mark.parametrize("record", [{"n": 3, "edges": [[0, 1.9], [1, 2]]},
                                    {"n": 3.5, "edges": [[0, 1], [1, 2]]},
                                    {"n": 3, "edges": [["0", "1"], ["1", "2"]]}],
                         ids=["float-id", "float-n", "string-ids"])
def test_record_with_non_integer_values_is_rejected(record):
    with pytest.raises(ValueError, match="integer"):
        tree_from_record(record)


def _records_built(run):
    """The records ``_record`` builds while ``run()`` writes."""
    built, real = [], io_mod._record

    def record(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(io_mod, "_record", record):
        run()
    return built


def test_record_holds_the_rows_at_hand(capsys):
    from mostar.cli import main

    t = build(FamilySpec.spider(13, 3))
    for render in (to_edge_list_text, to_dot):
        assert [len(r) for r in _records_built(lambda: render(t))] == [12]
    # n = 15: batches of 1,024 classes; the window starts 24 rows before the first batch ends
    built = _records_built(lambda: main(["enumerate", "--n", "15", "--offset", "1000"]))
    assert capsys.readouterr().err == "6741 trees\n"
    assert len(built) == 2 and len(built[0]) == 24
    assert len(built[1]) == io_mod._CHUNK_BYTES // built[1].itemsize < 1024


def test_record_round_trip_isomorphic():
    for spec in (FamilySpec.c(10, 2, 1), FamilySpec.srk(10, 2, 3), FamilySpec.star(6)):
        t = build(spec)
        back = tree_from_record(tree_record(t))
        assert back == t
        assert is_isomorphic(back, t)
