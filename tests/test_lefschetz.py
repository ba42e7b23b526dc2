"""Table-driven local monodromy against the transcribed golden tables."""

import time

import pytest

from braidforge.arcs import PunctureConfig, pair_twists
from braidforge.data import golden_json, golden_names
from braidforge.lefschetz import (golden_check, monodromy_from_table,
                                  two_sided_monodromy)

TABLES = golden_names("tables")


def test_table_inventory():
    # six 6-row conic tables and two 20-row staged hyperbola tables
    assert len(TABLES) == 8
    assert sum(1 for n in TABLES if "hyperbola" in n) == 2


@pytest.mark.parametrize("name", TABLES)
def test_golden_rows_match(name):
    rows = golden_check(golden_json(f"tables/{name}.json"))
    bad = [desc for desc, ok in rows if not ok]
    assert not bad, f"mismatched rows: {bad}"


def test_total_row_count_and_runtime():
    t0 = time.monotonic()
    total = sum(len(golden_check(golden_json(f"tables/{n}.json")))
                for n in TABLES)
    assert total == 76
    assert time.monotonic() - t0 < 10


@pytest.mark.parametrize("name", [n for n in TABLES if "conic" in n])
def test_conic_monodromy_degree(name):
    obj = golden_json(f"tables/{name}.json")
    fz = monodromy_from_table(obj["strands"], obj["rows"])
    # two branch points, one tangency or equivalent block content per table
    assert len(fz) == len(obj["rows"])
    assert all(f.braid().degree == f.degree for f in fz)


def test_two_sided_factor_count():
    name = next(n for n in TABLES if "hyperbola" in n)
    obj = golden_json(f"tables/{name}.json")
    n = obj["strands"]
    front = monodromy_from_table(n, obj["rows"])
    back = monodromy_from_table(n, obj["back_rows"])
    rho = pair_twists(PunctureConfig(obj["labels"]), obj["rho"])
    fz = two_sided_monodromy(front, back, rho)
    assert len(fz) == len(obj["rows"]) + len(obj["back_rows"])


def _drop_a_label(obj):
    obj["labels"].pop()


def _widen_a_delta(obj):
    obj["rows"][1]["delta"]["at"] = [1, 4]


def _unpair_p2(obj):
    obj["rows"][5]["delta"] = {"kind": "ri2", "at": 3}


@pytest.mark.parametrize("spoil, message", [
    (_drop_a_label, "one label per strand required"),
    (_widen_a_delta, r"row 2: bad delta block \(1, 4\)"),
    (_unpair_p2, "row 6: P2 blocks go with ri2 deltas only"),
], ids=["label-count", "delta-block", "p2-pairing"])
def test_bad_table_rejected(spoil, message):
    obj = golden_json("tables/v1_conic_b.json")
    spoil(obj)
    with pytest.raises(ValueError, match=f"^{message}$"):
        golden_check(obj)


# ---------------------------------------------------------------------------
# negative controls: a wrong transcription reads False on exactly its rows


def _false_rows(obj) -> list:
    return [desc for desc, ok in golden_check(obj) if not ok]


@pytest.mark.parametrize("row, text", [
    (2, "D2<1,2,5>"),                   # the conjugation dropped
    (2, "D1<1,2,5>^{Z2[5,6]}"),         # the exponent lowered
    (3, "Zu2[1,6]"),                    # the conjugation dropped
])
def test_a_wrong_conic_row_reads_false(row, text):
    obj = golden_json("tables/v1_conic_b.json")
    obj["expected"][row - 1] = text
    assert _false_rows(obj) == [f"v1_conic_b front row {row}"]


def test_a_wrong_rotated_row_reads_false_twice():
    """back_expected_rotated is compared as rotated and, conjugated by
    rho^-1, as the final rows: a wrong string fails both."""
    obj = golden_json("tables/v1_hyperbola.json")
    rotated = obj["back_expected_rotated"]
    rotated[0] = rotated[1]
    assert _false_rows(obj) == ["v1_hyperbola rotated row 1",
                                "v1_hyperbola final row 1"]
