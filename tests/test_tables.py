import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smirsim import infonet, scenario, tables
from smirsim.errors import ParseError, ValidationError
from smirsim.tables import FLOAT_OR_NAN, read_columns

from oracles import reference_load_infonet, reference_load_scenario, reference_write_csv

KINDS = (str, int, float, FLOAT_OR_NAN)


def outcome(read):
    """What a read returns, comparable across paths: arrays bit for bit, or the failing line."""
    try:
        columns, lines = read()
    except ParseError as e:
        return ("error", e.line_no)
    return ("ok", [(c.dtype.str, c.shape, c.tobytes()) for c in columns], list(lines))


def row_path(path, kinds):
    return tables._read_rows(path, kinds)


def write_table(path, rows, line_end="\n", final_break=True):
    text = line_end.join(["h"] + [",".join(r) for r in rows])
    path.write_bytes((text + (line_end if final_break else "")).encode("utf-8"))


wild_cells = st.one_of(
    st.text(alphabet="0123456789+-_. eE#\"\r\t\x0b\x1cnaifx５", max_size=6),
    st.sampled_from([
        "", " ", "nan", "-nan", "-inf", "1e400", "5.0", "007", "7", "1_000", "+5", "５",
        " 5", "5 ", "\x0b5", "5\x1c", "#5", '"7"', '"a,b"', "99999999999999999999",
    ]),
)


@given(
    table=st.deferred(lambda: wild_tables()),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    final_break=st.booleans(),
)
def test_bulk_and_row_paths_agree_on_any_table(tmp_path_factory, table, line_end, final_break):
    kinds, rows = table
    path = tmp_path_factory.getbasetemp() / "wild.csv"
    write_table(path, rows, line_end, final_break)
    assert outcome(lambda: read_columns(path, kinds)) == outcome(lambda: row_path(path, kinds))


@given(kind=st.sampled_from(KINDS), cell=wild_cells)
def test_bulk_and_row_paths_agree_on_any_cell(tmp_path_factory, kind, cell):
    path = tmp_path_factory.getbasetemp() / "cell.csv"
    write_table(path, [["7", "1"], [cell, "2"]])
    kinds = (kind, int)
    assert outcome(lambda: read_columns(path, kinds)) == outcome(lambda: row_path(path, kinds))


def clean_cell(kind):
    ints = st.integers(-(2**63), 2**63 - 1).map(str)
    floats = st.floats(allow_nan=False).map(repr)
    return {
        str: st.text(alphabet="0123456789abcxyz -_.#", max_size=10),
        int: st.one_of(ints, ints.map(lambda c: f" {c}\t")),
        float: st.one_of(floats, st.sampled_from(["nan", "inf", "-inf", "1e400", "7"])),
        FLOAT_OR_NAN: st.one_of(floats, st.just("")),
    }[kind]


@st.composite
def clean_tables(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(clean_cell(k) for k in kinds)), min_size=1, max_size=8))
    rows = [list(r) for r in rows]
    if len(kinds) == 1:
        rows = [r for r in rows if r != [""]] or [["0"] if kinds[0] is not str else ["a"]]
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(at, [])  # a blank row
    return kinds, rows


@st.composite
def wild_tables(draw):
    """A clean table with a few cells replaced, added or dropped."""
    kinds, rows = draw(clean_tables())
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["replace", "replace", "insert", "drop"]))
        if edit == "insert" or not row:
            row.insert(at, draw(wild_cells))
        elif edit == "drop":
            del row[min(at, len(row) - 1)]
        else:
            row[min(at, len(row) - 1)] = draw(wild_cells)
    return kinds, rows


@given(table=clean_tables(), line_end=st.sampled_from(["\n", "\r\n"]), final_break=st.booleans())
def test_clean_tables_take_the_bulk_path(tmp_path_factory, table, line_end, final_break):
    kinds, rows = table
    path = tmp_path_factory.getbasetemp() / "clean.csv"
    write_table(path, rows, line_end, final_break)
    with mock.patch.object(tables, "_read_rows", wraps=tables._read_rows) as rows_read:
        bulk = outcome(lambda: read_columns(path, kinds))
    assert not rows_read.called
    assert bulk == outcome(lambda: row_path(path, kinds))


class TestReadColumns:
    def test_empty_cell_is_nan_only_where_allowed(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [["1", "", "2.5"], ["2", "0.5", ""]])
        (a, b, c), lines = read_columns(path, (int, FLOAT_OR_NAN, FLOAT_OR_NAN))
        assert np.isnan(b[0]) and b[1] == 0.5 and c[0] == 2.5 and np.isnan(c[1])
        with pytest.raises(ParseError) as e:
            read_columns(path, (int, FLOAT_OR_NAN, float))
        assert e.value.line_no == 3

    def test_quoted_cells_keep_their_commas(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('h\n"a,b",1\n"7",2\n')
        (ids, n), _ = read_columns(path, (str, int))
        assert ids.tolist() == ["a,b", "7"] and n.tolist() == [1, 2]

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_blank_rows_are_skipped_and_lines_counted(self, tmp_path, line_end):
        path = tmp_path / "t.csv"
        path.write_bytes(line_end.join(["h", "1,a", "", "2,b", "", ""]).encode())
        (n, s), lines = read_columns(path, (int, str))
        assert n.tolist() == [1, 2] and s.tolist() == ["a", "b"] and lines.tolist() == [2, 4]
        assert s.dtype == np.dtype("<U1")

    def test_whitespace_around_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [[" 7 ", " 5\t", " 0.5 "]])
        (ids, n, x), _ = read_columns(path, (str, int, float))
        assert ids.tolist() == [" 7 "] and n.tolist() == [5] and x.tolist() == [0.5]

    def test_comment_sign_is_an_ordinary_character(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [["#1", "1"], ["2", "#5"]])
        (ids, _), _ = read_columns(path, (str, str))
        assert ids.tolist() == ["#1", "2"]
        with pytest.raises(ParseError) as e:
            read_columns(path, (str, int))
        assert e.value.line_no == 3

    def test_integers_beyond_int64_are_parse_errors(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [["9223372036854775807"], ["9223372036854775808"]])
        with pytest.raises(ParseError, match="int64") as e:
            read_columns(path, (int,))
        assert e.value.line_no == 3

    def test_text_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"h\n1\n\xe9\n")
        with pytest.raises(ParseError, match="UTF-8") as e:
            read_columns(path, (str,))
        assert e.value.line_no == 3

    def test_cell_beyond_the_csv_field_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [["1"], ["7" * 200_000]])
        with pytest.raises(ParseError, match="field") as e:
            read_columns(path, (str,))
        assert e.value.line_no == 3

    def test_text_column_too_large_to_hold_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.csv"  # as a <U array: 30,001 rows of 100,000 characters
        write_table(path, [[str(i)] for i in range(30_000)] + [["7" * 100_000]])
        with pytest.raises(ParseError, match="100000-character") as e:
            read_columns(path, (str,))
        assert e.value.line_no == 30_002

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match="header"):
            read_columns(path, (int,))


def csv_bytes(path, header, columns):
    """The table as ``csv.writer`` writes it, a NaN as None."""
    rows = zip(*([None if isinstance(v, float) and v != v else v for v in c.tolist()]
                 for c in columns))
    reference_write_csv(path, header, rows)
    return path.read_bytes()


# Text that csv quotes or not: delimiters, quotes, line breaks, spaces, non-ASCII,
# empty strings; no NUL, which a <U array cannot end in, and no lone surrogate.
text_cells = st.text(
    st.sampled_from(',"\r\n \tx7é') | st.characters(blacklist_categories=("Cs",),
                                                      blacklist_characters="\x00"),
    max_size=4,
)
table_columns = st.integers(0, 9).flatmap(lambda n: st.lists(
    st.one_of(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(text_cells, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=str)),
    ),
    min_size=1, max_size=4,
))


class TestWriteColumns:
    @given(table_columns, st.lists(text_cells, min_size=4, max_size=4))
    @example([np.array(["", "a,b", ""])], ["c0"])  # one column: an empty cell is ""
    @example([np.array(["", 'q"'])] * 2, ["", "\n"])
    def test_numeric_table_matches_csv_writer(self, tmp_path_factory, columns, names):
        d = tmp_path_factory.mktemp("w")
        header = names[: len(columns)]
        with mock.patch.object(tables, "_CHUNK_ROWS", 4):  # rows cross chunk boundaries
            tables.write_columns(d / "fast.csv", header, columns)
        assert (d / "fast.csv").read_bytes() == csv_bytes(d / "csv.csv", header, columns)

    def test_nan_is_an_empty_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        tables.write_columns(path, ["a", "b"], [np.array([1, 2]), np.array([0.1, np.nan])])
        assert path.read_bytes() == b"a,b\r\n1,0.1\r\n2,\r\n"

    def test_str_ids_keep_csv_quoting(self, tmp_path):
        columns = [np.array(["a,b", 'q"x', "007"]), np.array([1.5, np.nan, -2.0])]
        path = tmp_path / "t.csv"
        tables.write_columns(path, ["id", "x"], columns)
        assert path.read_bytes() == b'id,x\r\n"a,b",1.5\r\n"q""x",\r\n007,-2.0\r\n'
        assert path.read_bytes() == csv_bytes(tmp_path / "csv.csv", ["id", "x"], columns)

    def test_no_rows_is_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        tables.write_columns(path, ["src", "dst"], [np.array([], dtype=np.int64)] * 2)
        assert path.read_bytes() == b"src,dst\r\n"


class TestLookup:
    @pytest.mark.parametrize("ids", [
        ["7", "007", "70", "x.1", "b-c"],
        ["123456789012", "7", "007"],
        ["ж", "7", "007"],
        ["0", "7", "70", "9223372036854775807"],                   # canonical decimals
        ["0", "00", "-0", "+7", " 7", "9223372036854775808", "7"],  # mostly not
        ["1234567890123456789", "12345678901234567890", "7"],     # 19 and 20 digits
    ])
    def test_matches_a_dict_of_strings(self, ids):
        index = {v: i for i, v in enumerate(ids)}
        for extra in (["0007", "", "7 ", "zz"], ["7", "0", "70", "9"]):  # text, then decimals
            names = ids[::-1] + extra
            got = tables.lookup(np.asarray(ids), np.asarray(names))
            assert got.tolist() == [index.get(v, -1) for v in names]

    def test_int_values_match_canonical_keys_only(self):
        text = np.array(["007", "+7", " 7", "7", "08", "8", "7"])
        ints = np.array([7, 8, 0, -7, 2**63 - 1])
        assert tables.lookup(text, ints).tolist() == [3, 5, -1, -1, -1]
        # and the reverse: int keys match the canonical text values only
        assert tables.lookup(ints, text).tolist() == [-1, -1, -1, 0, -1, 1, 0]

    @pytest.mark.parametrize("spread", [1, 10**15])  # a dense table, and the sorted path
    def test_text_keys_with_one_non_canonical_id_against_ints(self, spread):
        # Node ids canonical but for one ("x"), so they stay text; edge ids all ints.
        rng = np.random.default_rng(3)
        ids = [str(int(v) * spread) for v in rng.permutation(2000)] + ["x", "0012", "12"]
        values = np.append(rng.integers(0, 2100, 500) * spread, [12, 0, 2**63 - 1])
        index = {}
        for i, v in enumerate(ids):
            index.setdefault(v, i)
        expected = [index.get(str(v), -1) for v in values.tolist()]
        assert tables.lookup(np.asarray(ids), values).tolist() == expected
        # and the reverse: int keys against the text ids
        first = {}
        for i, v in enumerate(values.tolist()):
            first.setdefault(str(v), i)
        assert tables.lookup(values, np.asarray(ids)).tolist() == [first.get(v, -1) for v in ids]

    @pytest.mark.parametrize("spread", [1, 10**15])  # a dense table, and the sorted path
    def test_int_keys_first_of_a_repeat(self, spread):
        keys = np.array([5, 3, 5, 9, 3], dtype=np.int64) * spread
        values = np.append(np.array([3, 5, 9, 4]) * spread, [-(2**63), 2**63 - 1])
        assert tables.lookup(keys, values).tolist() == [1, 0, 3, -1, -1, -1]

    def test_value_longer_than_every_key(self):
        keys = np.array([str(i) for i in range(100_000)])
        values = np.array(["7", "7" * 5000, "99999"])
        tracemalloc.start()
        try:
            got = tables.lookup(keys, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == [7, -1, 99999]
        assert peak < 50 * 2**20  # keys widened to 5000 characters would take 2 GB

    def test_no_keys(self):
        assert tables.lookup(np.array([], dtype=np.int64), np.array([3])).tolist() == [-1]

    def test_duplicates(self):
        assert tables.has_duplicates(np.array(["7", "007", "7"]))
        assert not tables.has_duplicates(np.array(["7", "007", "70"]))
        assert not tables.has_duplicates(np.array(["1234567890123456789", "12345678901234567890"]))
        assert tables.has_duplicates(np.array([3, 1, 3], dtype=np.uint64))


def write_infonet(d, nodes, edges):
    (d / "nodes.csv").write_text(
        "id,county_fips,alignment,misinformed_seed\n" + "".join(f"{r}\n" for r in nodes)
    )
    (d / "edges.csv").write_text("src,dst,weight\n" + "".join(f"{r}\n" for r in edges))
    return d / "nodes.csv", d / "edges.csv"


class TestLoaders:
    def test_zero_padded_id_is_another_id(self, tmp_path):
        paths = write_infonet(tmp_path, ["7,1000,,1", "007,1000,0.5,0"], ["007,7,2"])
        net = infonet.load_infonet(*paths)
        assert net.ids.tolist() == ["7", "007"]
        assert (net.edge_src.tolist(), net.edge_dst.tolist()) == ([1], [0])
        paths = write_infonet(tmp_path, ["7,1000,,1", "8,1000,0.5,0"], ["7,8,1", "8,007,2"])
        with pytest.raises(ParseError, match="unknown node id '007'") as e:
            infonet.load_infonet(*paths)
        assert e.value.line_no == 3

    def test_unknown_id_names_its_line_on_the_int_path(self, tmp_path):
        nodes, edges = write_infonet(tmp_path, ["7,1000,,1", "8,1000,0.5,0"],
                                     ["7,8,1", "8,7,1", "8,9,2", "9,7,1"])
        with mock.patch.object(tables, "_read_rows", side_effect=AssertionError("row path")), \
                pytest.raises(ParseError) as e:
            infonet.load_infonet(nodes, edges)
        assert str(e.value) == f"{edges}:4: unknown node id '9'"

    @pytest.mark.parametrize("rows", [1, 5000])  # bulk path, and the row path for a wide table
    def test_edge_id_longer_than_every_node_id(self, tmp_path, rows):
        long_id = "7" * 1000
        edges = ["7,8,1"] * rows + [f"8,{long_id},2"]
        paths = write_infonet(tmp_path, ["7,1000,,1", "8,1000,0.5,0"], edges)
        with pytest.raises(ParseError, match=f"unknown node id '{long_id}'") as e:
            infonet.load_infonet(*paths)
        assert e.value.line_no == rows + 2

    def test_parse_error_is_reported_before_an_unknown_id(self, tmp_path):
        paths = write_infonet(tmp_path, ["7,1000,,1", "8,1000,0.5,0"], ["7,9,1", "7,8,x"])
        with pytest.raises(ParseError, match="'x'") as e:
            infonet.load_infonet(*paths)
        assert e.value.line_no == 3

    def test_non_integer_ids(self, tmp_path):
        nodes = ["a,1000,-0.5,1", "b-c,1000,,0", '"x,1",1000,0.5,0']
        paths = write_infonet(tmp_path, nodes, ['b-c,"x,1",3', "a,b-c,1"])
        net = infonet.load_infonet(*paths)
        assert net.ids.tolist() == ["a", "b-c", "x,1"]
        assert (net.edge_src.tolist(), net.edge_dst.tolist()) == ([1, 0], [2, 1])
        assert np.isnan(net.alignment[1])

    def test_repeated_mobility_pair_keeps_the_last_row(self, tmp_path):
        c, m = tmp_path / "counties.csv", tmp_path / "mobility.csv"
        c.write_text("fips,voters,republican_share,twitter_users\n1000,50,0.5,5\n1001,50,0.5,5\n")
        repeated = "1000,1001,5.0\n1000,1001,7.0\n" * 3
        m.write_text("x_fips,y_fips,value\n" + repeated + "1001,1001,1\n")
        s = scenario.load_scenario(c, m)
        assert s.mobility.tolist() == [[0.0, 7.0], [7.0, 1.0]]

    def test_generated_scenario_loads_as_the_row_loader_did(self, tmp_path):
        sc, net = scenario.generate_scenario(scenario.ScenarioConfig(county_count=12, seed=3))
        scenario.save_scenario(sc, tmp_path / "counties.csv", tmp_path / "mobility.csv")
        infonet.save_infonet(net, tmp_path / "nodes.csv", tmp_path / "edges.csv")
        with mock.patch.object(tables, "_read_rows", side_effect=AssertionError("row path")):
            got_sc = scenario.load_scenario(tmp_path / "counties.csv", tmp_path / "mobility.csv")
            got_net = infonet.load_infonet(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        want = reference_load_scenario(tmp_path / "counties.csv", tmp_path / "mobility.csv")
        got = {name: getattr(got_sc, name) for name in want}
        want.update(reference_load_infonet(tmp_path / "nodes.csv", tmp_path / "edges.csv"))
        got.update({name: getattr(got_net, name) for name in want if name not in got})
        assert set(got) == set(want)
        for name, array in want.items():
            assert got[name].dtype == array.dtype, name
            assert got[name].tobytes() == array.tobytes(), name


# Ids the loader matches as int64 (canonical decimals), other ids of digits
# only (zero-padded or beyond int64), and ids that are not digits at all.
CANONICAL_IDS = ["0", "7", "70", "123456789012345678", "1234567890123456789",
                 "9223372036854775807"]
PADDED_IDS = ["007", "00", "070", "12345678901234567890", "9223372036854775808"]
TEXT_IDS = ["+7", " 7", "7 ", "-0", "", "x"]
any_id = (st.sampled_from(CANONICAL_IDS) | st.sampled_from(PADDED_IDS) | st.sampled_from(TEXT_IDS)
          | st.integers(0, 10**6).map(str))


def load_outcome(load, nodes, edges):
    """The arrays a loader gives, by name, bit for bit; or its error."""
    try:
        got = load(nodes, edges)
    except ParseError as e:
        return ("parse error", str(e.path), e.line_no, str(e))
    except ValidationError as e:
        return ("invalid", str(e))
    if isinstance(got, infonet.InfoNetwork):
        got = {f.name: getattr(got, f.name) for f in dataclasses.fields(got)}
    return {name: (a.dtype.str, a.tobytes()) for name, a in got.items()}


def assert_loads_as_the_oracle(nodes, edges):
    assert (load_outcome(infonet.load_infonet, nodes, edges)
            == load_outcome(reference_load_infonet, nodes, edges))


@st.composite
def infonet_tables(draw):
    """Node and edge rows mixing canonical and text ids, some edges naming
    unknown ids, some rows blank, and a few weights that fail."""
    ids = draw(st.lists(any_id, min_size=1, max_size=6, unique=True))
    if draw(st.integers(0, 9)) == 0:
        ids.append(draw(st.sampled_from(ids)))  # a repeated node id
    nodes = [[i, draw(st.sampled_from(["1000", "1001"])), draw(st.sampled_from(["", "0.5", "-0.25"])),
              draw(st.sampled_from(["0", "1"]))] for i in ids]
    end = st.sampled_from(ids) | any_id
    weight = st.sampled_from(["1", "2", "10"]) | st.sampled_from(["07", "+3", " 4", "", "0", "x"])
    edges = draw(st.lists(st.tuples(end, end, weight).map(list), max_size=8))
    for rows in (nodes, edges):
        if draw(st.integers(0, 3)) == 0:
            rows.insert(draw(st.integers(0, len(rows))), [])  # a blank row
    return nodes, edges


@given(tables_=infonet_tables(), line_end=st.sampled_from(["\n", "\r\n"]),
       final_break=st.booleans())
def test_load_infonet_matches_the_row_oracle(tmp_path_factory, tables_, line_end, final_break):
    d = tmp_path_factory.getbasetemp()
    nodes, edges = d / "nodes.csv", d / "edges.csv"
    write_table(nodes, tables_[0], line_end, final_break)
    write_table(edges, tables_[1], line_end, final_break)
    assert_loads_as_the_oracle(nodes, edges)


@pytest.mark.parametrize("nodes, edges", [
    (["7", "8", "007"], ["007,8,1", "7,8,1"]),          # canonical node ids, a text edge id
    (["7", "8"], ["7,8,1", "8,007,2"]),                  # ... that names no node
    (["7", "8"], ["007,8,1"]),                           # ... in a table of digits only
    (["007", "7", "+8", "8", ""], ["7,8,1", "8,7,2"]),   # text node ids, canonical edges
    (["007", "+8"], ["7,8,1"]),                          # ... that match none of them
    (["7", "8"], ["7,8,01"]),                            # canonical ids, a text weight
    (["9223372036854775807", "0"], ["9223372036854775807,0,1"]),
    (["9223372036854775808", "0"], ["9223372036854775808,0,1"]),
])
def test_mixed_canonical_and_text_ids(tmp_path, nodes, edges):
    nodes = [[i, "1000", "", "0"] for i in nodes]
    write_table(tmp_path / "nodes.csv", nodes)
    write_table(tmp_path / "edges.csv", [e.split(",") for e in edges])
    assert_loads_as_the_oracle(tmp_path / "nodes.csv", tmp_path / "edges.csv")


EDGES = b"src,dst,weight\n7,8,1\n8,7,2\n"


@pytest.mark.parametrize("edges", [
    b"src,dst,weight\n7,8,1\n\r8,9,1\r\n",  # a lone \r is a line break to csv
    b"src,dst,weight\r\r\n7,8,1\r\n8,9,1\r\n",
    b"src,dst,weight\n\n7,8,1\n8,9,1",
    b"src,dst,weight\r\n7,8,1\n8,7,2\n",  # a \r in the header line only
    b"src,dst,weight\n7,8,1\n8,7,2",  # a last line with no line break
    b"src,dst,weight\n7,8,1\n8,7,2\r",  # a trailing lone \r
    b"src,dst,weight\n7,8,\n",  # an empty last cell
    # (node table, edge table): an empty cell first in a line, an empty alignment
    # mid-table, one on a last line with no line break, and no empty cell at all
    (b"h\n,1000,0.5,1\n7,1000,-0.5,0\n8,1000,1,0\n", EDGES),
    (b"h\n7,1000,0.5,0\n9,1000,,1\n8,1000,1,0\n", EDGES),
    (b"h\r\n7,1000,0.5,0\r\n8,1000,,0", EDGES),
    (b"h\n7,1000,0.5,0\n8,1000,-1e-3,0", EDGES),
])
def test_edge_lines_are_counted_as_csv_counts_them(tmp_path, edges):
    nodes, edges = edges if isinstance(edges, tuple) else (b"h\n7,1000,,0\n8,1000,,0\n", edges)
    (tmp_path / "nodes.csv").write_bytes(nodes)
    (tmp_path / "edges.csv").write_bytes(edges)
    assert_loads_as_the_oracle(tmp_path / "nodes.csv", tmp_path / "edges.csv")


@pytest.mark.parametrize("block", [3, 4, 5, 1 << 20])
@pytest.mark.parametrize("data, crlfs", [
    (b"ab\r\ncd\r\n", 2),  # with a 4-byte block, the first \r\n ends a block
    (b"abc\r\nd\r\n", 2),  # and with a 4-byte block this one straddles two
    (b"abc\rxd\r\n", None),  # a lone \r at a block's end
    (b"ab\r\ncd\r", None),  # a trailing lone \r
    (b"\r\r\n", None),
    (b"abcdefgh", 0),
    (b"", 0),
])
def test_crlf_count_in_blocks(monkeypatch, block, data, crlfs):
    monkeypatch.setattr(tables, "_BLOCK_BYTES", block)
    assert tables._crlf_count(bytearray(data)) == crlfs


def test_default_scenario_edges_take_the_int_path(tmp_path):
    _, net = scenario.generate_scenario(scenario.ScenarioConfig(seed=1))
    nodes, edges = tmp_path / "infonet_nodes.csv", tmp_path / "infonet_edges.csv"
    infonet.save_infonet(net, nodes, edges)
    read_text = tables._read_bulk

    def read_node_text(path, data, kinds):
        assert path != edges, "edge ids read as text"
        return read_text(path, data, kinds)

    with mock.patch.object(tables, "_read_bulk", read_node_text), \
            mock.patch.object(tables, "_read_rows", side_effect=AssertionError("row path")):
        got = infonet.load_infonet(nodes, edges)
    assert got.ids.dtype == np.int64
    want = reference_load_infonet(nodes, edges)
    for name, array in want.items():
        assert getattr(got, name).dtype == array.dtype, name
        assert getattr(got, name).tobytes() == array.tobytes(), name


def test_load_infonet_peaks_below_twice_what_it_keeps(tmp_path):
    """The traced peak of loading the default scenario's network is at most
    twice the bytes of the arrays the network keeps."""
    _, net = scenario.generate_scenario(scenario.ScenarioConfig(seed=1))
    nodes, edges = tmp_path / "infonet_nodes.csv", tmp_path / "infonet_edges.csv"
    infonet.save_infonet(net, nodes, edges)
    del net
    tracemalloc.start()
    try:
        got = infonet.load_infonet(nodes, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(got, f.name).nbytes for f in dataclasses.fields(got))
    assert peak <= 2 * kept, f"peak {peak} bytes, keeps {kept}"
