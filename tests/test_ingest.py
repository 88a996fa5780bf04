import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critset.ingest import (
    LogFormatError,
    TransactionRecord,
    build_from_log,
    generate_log,
    read_log_csv,
    write_log_csv,
)

records_strategy = st.lists(
    st.builds(
        TransactionRecord,
        source=st.sampled_from(["a", "b", "c", "d"]),
        target=st.sampled_from(["a", "b", "c", "d"]),
        count=st.integers(1, 5),
    ),
    min_size=1,
    max_size=30,
)


def test_single_transaction():
    g = build_from_log([TransactionRecord("a", "b")])
    assert g.edge_weight("a", "b") == 1.0
    assert set(g.node_ids) == {"a", "b"}
    assert g.node_weight("a") == 1.0


def test_normalized_counts():
    g = build_from_log([TransactionRecord("a", "b", 3), TransactionRecord("b", "c", 1)])
    assert g.edge_weight("a", "b") == 0.75
    assert g.edge_weight("b", "c") == 0.25


def test_duplicate_pair_aggregates():
    g = build_from_log([TransactionRecord("a", "b"), TransactionRecord("a", "b")])
    assert g.n_edges == 1
    assert g.edge_weight("a", "b") == 1.0


def test_self_transaction_becomes_loop():
    g = build_from_log([TransactionRecord("a", "a", 2)])
    assert g.has_edge("a", "a")


def test_empty_log_rejected():
    with pytest.raises(LogFormatError):
        build_from_log([])


def test_record_validation():
    with pytest.raises(LogFormatError):
        TransactionRecord("", "b")
    with pytest.raises(LogFormatError):
        TransactionRecord("a", "b", 0)


@given(records_strategy)
@settings(max_examples=300)
def test_weights_sum_to_one(records):
    g = build_from_log(records)
    assert abs(sum(w for _, _, w in g.edges) - 1.0) < 1e-12
    assert all(w > 0 for _, _, w in g.edges)


@given(records_strategy, st.randoms())
@settings(max_examples=200)
def test_permutation_invariance(records, rnd):
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert build_from_log(shuffled) == build_from_log(records)


def test_generate_log_bounds():
    with pytest.raises(ValueError):
        generate_log(1, 10)
    with pytest.raises(ValueError):
        generate_log(5, 0)


def test_generate_log_two_nodes():
    records = generate_log(2, 5, rng_seed=7)
    assert len(records) == 5
    for r in records:
        assert {r.source, r.target} == {"n1", "n2"}
        assert r.source != r.target


def test_generate_log_deterministic():
    assert generate_log(10, 1000, rng_seed=1) == generate_log(10, 1000, rng_seed=1)


def test_generated_log_normalizes():
    g = build_from_log(generate_log(10, 1000, rng_seed=1))
    assert abs(sum(w for _, _, w in g.edges) - 1.0) < 1e-12


def test_csv_round_trip():
    records = generate_log(6, 50, rng_seed=2)
    assert read_log_csv(write_log_csv(records)) == records


def test_csv_header_optional():
    with_header = read_log_csv("src,dst,count\na,b,2\n")
    without = read_log_csv("a,b,2\n")
    assert with_header == without == [TransactionRecord("a", "b", 2)]


def test_csv_header_after_blank_lines():
    assert read_log_csv("\n  \nsrc,dst\na,b\n") == [TransactionRecord("a", "b")]


def test_csv_header_only_as_first_row():
    assert read_log_csv("src,dst\nsrc,dst\n") == [TransactionRecord("src", "dst")]


def test_csv_count_defaults_to_one():
    assert read_log_csv("a,b\n") == [TransactionRecord("a", "b", 1)]


@pytest.mark.parametrize("text", ["a\n", "a,b,x\n", "a,b,0\n", "a,b,1,9\n", ",b\n"])
def test_csv_malformed(text):
    with pytest.raises(LogFormatError):
        read_log_csv(text)


def test_csv_error_names_line():
    with pytest.raises(LogFormatError) as err:
        read_log_csv("a,b\nc\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("row", ["c d,e", "c,d\te"])
def test_csv_rejects_an_id_with_whitespace_naming_its_line(row):
    with pytest.raises(LogFormatError, match="^line 3: element id must be a non-empty token without whitespace"):
        read_log_csv(f"src,dst\na,b\n{row}\n")
