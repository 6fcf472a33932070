import numpy as np
import pytest

from copulamix import schema as sc


def make_schema():
    return sc.Schema.from_pairs([
        ("count", sc.integer()),
        ("height", sc.continuous()),
        ("grade", sc.ordinal(3)),
    ])


class TestVariableKind:
    def test_string_forms(self):
        assert str(sc.continuous()) == "continuous"
        assert str(sc.integer()) == "integer"
        assert str(sc.ordinal(4)) == "ordinal:4"

    def test_ordinal_needs_two_levels(self):
        with pytest.raises(sc.SchemaError):
            sc.ordinal(1)

    def test_levels_rejected_for_non_ordinal(self):
        with pytest.raises(sc.SchemaError):
            sc.VariableKind("continuous", levels=3)

    def test_unknown_tag(self):
        with pytest.raises(sc.SchemaError):
            sc.VariableKind("categorical")


class TestSchema:
    def test_continuous_first_permutation(self):
        schema = make_schema()
        assert schema.names == ("height", "count", "grade")
        assert [k.is_discrete for k in schema.kinds] == [False, True, True]
        # stored_row = file_row[file_order]
        assert schema.file_order == (1, 0, 2)

    def test_rejects_misordered_columns(self):
        with pytest.raises(sc.SchemaError):
            sc.Schema((("a", sc.integer()), ("b", sc.continuous())))

    def test_empty_rejected(self):
        with pytest.raises(sc.SchemaError):
            sc.Schema(())


class TestIdentifiability:
    def test_continuous_plus_ordinals(self):
        schema = sc.Schema((("a", sc.continuous()), ("b", sc.ordinal(2)),
                            ("c", sc.ordinal(2))))
        assert sc.check_identifiability(schema).identifiable

    def test_single_integer(self):
        schema = sc.Schema((("a", sc.integer()),))
        assert sc.check_identifiability(schema).identifiable

    def test_all_ordinal_rejected(self):
        schema = sc.Schema(tuple((f"o{i}", sc.ordinal(3)) for i in range(3)))
        check = sc.check_identifiability(schema)
        assert not check.identifiable
        assert "continuous or integer" in check.reason


class TestDatasetValidation:
    def test_valid_dataset(self):
        schema = make_schema()
        values = np.array([[1.5, 3, 2], [0.2, 0, 1]])
        ds = sc.MixedDataset(schema, values)
        assert ds.n == 2

    def test_values_read_only(self):
        ds = sc.MixedDataset(make_schema(), np.array([[1.5, 3, 2]]))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9.0

    def test_rejects_negative_count(self):
        with pytest.raises(sc.DataError):
            sc.MixedDataset(make_schema(), np.array([[1.5, -1, 2]]))

    def test_rejects_ordinal_out_of_range(self):
        with pytest.raises(sc.DataError):
            sc.MixedDataset(make_schema(), np.array([[1.5, 3, 4]]))

    def test_rejects_non_integer_discrete(self):
        with pytest.raises(sc.DataError):
            sc.MixedDataset(make_schema(), np.array([[1.5, 3.5, 2]]))

    def test_rejects_nan(self):
        with pytest.raises(sc.DataError):
            sc.MixedDataset(make_schema(), np.array([[np.nan, 3, 2]]))


class TestSchemaText:
    def test_parse_roundtrip(self):
        text = "height = continuous\ncount = integer\ngrade = ordinal:3\n"
        declared = sc.parse_schema_text(text)
        assert declared["grade"].levels == 3
        assert declared["count"].tag == "integer"

    def test_comments_and_blank_lines(self):
        declared = sc.parse_schema_text("# header\n\na = continuous  # note\n")
        assert list(declared) == ["a"]

    def test_duplicate_rejected(self):
        with pytest.raises(sc.SchemaError):
            sc.parse_schema_text("a = continuous\na = integer\n")

    def test_bad_kind_rejected(self):
        with pytest.raises(sc.SchemaError):
            sc.parse_schema_text("a = gaussian\n")

    def test_bad_ordinal_count(self):
        with pytest.raises(sc.SchemaError):
            sc.parse_schema_text("a = ordinal:x\n")


class TestLoadSave:
    def test_load_permutes_continuous_first(self, tmp_path):
        data = tmp_path / "d.csv"
        schema = tmp_path / "s.txt"
        data.write_text("count,height,grade\n3,1.5,2\n0,0.25,1\n")
        schema.write_text("count = integer\nheight = continuous\n"
                          "grade = ordinal:3\n")
        ds = sc.load_dataset(data, schema)
        assert ds.schema.names == ("height", "count", "grade")
        np.testing.assert_allclose(ds.values, [[1.5, 3, 2], [0.25, 0, 1]])

    def test_roundtrip_preserves_file_order(self, tmp_path):
        ds = sc.MixedDataset(make_schema(),
                             np.array([[1.125, 3, 2], [-0.5, 0, 1]]))
        sc.save_dataset(ds, tmp_path / "d.csv", tmp_path / "s.txt")
        header = (tmp_path / "d.csv").read_text().splitlines()[0]
        assert header == "count,height,grade"
        again = sc.load_dataset(tmp_path / "d.csv", tmp_path / "s.txt")
        np.testing.assert_array_equal(again.values, ds.values)
        assert again.schema.names == ds.schema.names

    def test_semicolon_sniffing(self, tmp_path):
        (tmp_path / "d.csv").write_text("a;b\n1.5;2\n")
        (tmp_path / "s.txt").write_text("a = continuous\nb = integer\n")
        ds = sc.load_dataset(tmp_path / "d.csv", tmp_path / "s.txt")
        assert ds.values[0, 1] == 2

    def test_missing_cell_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1.5,\n")
        (tmp_path / "s.txt").write_text("a = continuous\nb = integer\n")
        with pytest.raises(sc.DataError, match="missing"):
            sc.load_dataset(tmp_path / "d.csv", tmp_path / "s.txt")

    def test_undeclared_column_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1.5,2\n")
        (tmp_path / "s.txt").write_text("a = continuous\n")
        with pytest.raises(sc.SchemaError):
            sc.load_dataset(tmp_path / "d.csv", tmp_path / "s.txt")

    def test_declared_column_missing_from_data(self, tmp_path):
        (tmp_path / "d.csv").write_text("a\n1.5\n")
        (tmp_path / "s.txt").write_text("a = continuous\nb = integer\n")
        with pytest.raises(sc.SchemaError):
            sc.load_dataset(tmp_path / "d.csv", tmp_path / "s.txt")

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\nx,2\n")
        (tmp_path / "s.txt").write_text("a = continuous\nb = integer\n")
        with pytest.raises(sc.DataError, match="non-numeric"):
            sc.load_dataset(tmp_path / "d.csv", tmp_path / "s.txt")
