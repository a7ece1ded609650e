import pytest
import record


@pytest.mark.parametrize("name, case", [
    (name, case) for name, store in record.STORES.items()
    for case in store.cases])
def test_record_matches_store(name, case):
    """Each pinned seed, trial, draw and sweep, recorded from the code under
    test, equals its store's record to the last bit."""
    old, new = record.committed(name)[case], record.STORES[name].record(case)
    assert new == old, "\n".join(record.moves(old, new, f"{name}/{case}"))


def test_stores_rewritten_byte_identical(tmp_path):
    record.write(tmp_path)
    for name in record.STORES:
        assert ((tmp_path / name).read_bytes()
                == (record.DATA / name).read_bytes()), name


def test_csv_moves_name_each_cell():
    old = "# n_ris,trial,se,viol\n8,0,0x1.0p+1,0\n8,1,2.0,0\n"
    new = old.replace("0x1.0p+1", "0x1.8p+1").replace("2.0,0", "2.5,1")
    assert record.csv_moves(old, new + "9,0,1.0,0\n", "t") == [
        "t/8,0/se: 0x1.0p+1 → 0x1.8p+1 (+5.00e-01)",
        "t/8,1/se: 2.0 → 2.5 (+2.50e-01)", "t/8,1/viol: 0 → 1",
        "t/9,0: None → {'n_ris': '9', 'trial': '0', 'se': '1.0', "
        "'viol': '0'}"]
    assert record.csv_moves(old, old) == []


def test_list_moves_align_equal_entries():
    """A removed or inserted entry is named once, and the equal entries
    after it are not reported as moved; a replaced entry is compared field
    by field."""
    old = [["d4m2", 1.0], ["d21m23", 2.0], ["d21m22", 3.0], ["d4m2", 4.0]]
    new = [old[0], old[2], ["d4m2", 4.5], ["d4m2", 5.0]]
    assert record.moves(old, new, "p") == [
        "p/1: ['d21m23', 2.0] → None",
        "p/3/1: 4.0 → 4.5 (+1.25e-01)",
        "p/3: None → ['d4m2', 5.0]"]
    assert record.moves(old, old[:1] + old[2:], "p") == [
        "p/1: ['d21m23', 2.0] → None"]
    assert record.moves(old[1:], old, "p") == [
        "p/0: None → ['d4m2', 1.0]"]
