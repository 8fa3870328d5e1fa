"""Edge-list, DOT and NDJSON record round trips."""

import io
import json
from unittest import mock

import numpy as np
import pytest

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
    # the header, then the edges a block at a time
    t = Tree(1, []) if n == 1 else random_tree(n, 6)
    text = to_edge_list_text(t)
    buf = io.StringIO()
    with mock.patch.object(buf, "write", wraps=buf.write) as spy:
        write_edge_list(t, buf)
    assert buf.getvalue() == text
    assert spy.call_count == 1 + -(-(n - 1) // tree_mod._BLOCK)
    write_edge_list(t, tmp_path / "t.txt")
    assert (tmp_path / "t.txt").read_bytes() == text.encode()
    assert n <= tree_mod._SMALL_N or t._edges is None


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


def test_record_round_trip_isomorphic():
    for spec in (FamilySpec.c(10, 2, 1), FamilySpec.srk(10, 2, 3), FamilySpec.star(6)):
        t = build(spec)
        back = tree_from_record(tree_record(t))
        assert back == t
        assert is_isomorphic(back, t)
