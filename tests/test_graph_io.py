"""Tests for edge-list persistence."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import TemporalGraph, load_edge_list, save_edge_list


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        g = TemporalGraph(4, [0, 1, 2], [1, 2, 3], [0, 1, 2])
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded == g

    def test_header_comment_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% another\n0 1 0\n1 2 1\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_reindexing_compacts_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200 50\n200 300 60\n")
        g = load_edge_list(path)
        assert g.num_nodes == 3
        assert g.num_timestamps == 2
        assert set(g.src.tolist()) <= {0, 1, 2}

    def test_reindexing_preserves_time_order(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 500\n1 2 100\n")
        g = load_edge_list(path)
        # Edge with raw time 100 must map to the earlier rank.
        later = g.t[0]
        earlier = g.t[1]
        assert earlier < later

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,0\n1,2,1\n")
        assert load_edge_list(path).num_edges == 2

    def test_no_reindex_respects_universe(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0\n1 2 1\n")
        g = load_edge_list(path, num_nodes=10, num_timestamps=5, reindex=False)
        assert g.num_nodes == 10
        assert g.num_timestamps == 5


class TestErrors:
    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_short_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_non_numeric_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b c\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_error_mentions_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0\nbroken\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_edge_list(path)

    @pytest.mark.parametrize("field", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_field_raises(self, tmp_path, field):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1 0\n0 {field} 1\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_edge_list(path)

    def test_non_integral_field_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0\n1 2 1.5\n")
        with pytest.raises(GraphFormatError, match=":2.*non-integral"):
            load_edge_list(path)

    @pytest.mark.parametrize("field", [str(2**63), str(-(2**63) - 1), "1e19", "1e999999999"])
    def test_out_of_int64_field_raises(self, tmp_path, field):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 {field} 0\n")
        with pytest.raises(GraphFormatError, match=":1.*int64"):
            load_edge_list(path)

    def test_ids_above_2_pow_53_stay_distinct(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("9007199254740993 9007199254740992 0\n")
        g = load_edge_list(path)
        assert g.num_nodes == 2
        assert g.src[0] != g.dst[0]

    def test_integral_spellings_accepted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1.0 0\n1e1 2 3.00\n")
        g = load_edge_list(path, reindex=False)
        np.testing.assert_array_equal(g.src, [0, 10])
        np.testing.assert_array_equal(g.t, [0, 3])
