import base64
import itertools
import json

import numpy as np
import pytest

from morlext import archive
from morlext.archive import FORMAT_TAG, ArchiveRecord, _encode, load_archive, save_archive
from morlext.envs import DualGoal, SpeedEnergy
from morlext.ppo import init_actor_critic


def test_roundtrip_bit_exact(tmp_path):
    records = []
    for i in range(3):
        theta = init_actor_critic(DualGoal(), i, hidden=(8, 8))
        # include awkward values that must survive the trip bit-for-bit
        theta.data[0] = np.nextafter(0.1, 1.0)
        theta.data[1] = -0.0
        theta.data[2] = 1e-310  # subnormal
        records.append(ArchiveRecord(theta=theta, meta={"weight": [0.5, 0.5], "stage": "extended", "i": i}))
    path = tmp_path / "policies.jsonl"
    save_archive(path, records)
    back = load_archive(path)
    assert len(back) == 3
    for orig, rec in zip(records, back):
        assert rec.theta.layout == orig.theta.layout
        assert np.array_equal(
            rec.theta.data.view(np.uint64), orig.theta.data.view(np.uint64)
        ), "bit-exact round trip required"
        assert rec.meta["weight"] == [0.5, 0.5]


def test_rejects_foreign_format(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "something-else", "data": ""}\n')
    with pytest.raises(ValueError):
        load_archive(path)


def test_empty_lines_ignored(tmp_path):
    theta = init_actor_critic(SpeedEnergy(), 1, hidden=(4, 4))
    path = tmp_path / "one.jsonl"
    save_archive(path, [ArchiveRecord(theta=theta)])
    path.write_text(path.read_text() + "\n\n")
    assert len(load_archive(path)) == 1


# ---------------------------------------------------------------------------
# The reader skips the payload of records it does not decode; it must read
# exactly what a whole-line json.loads of every record reads.


def full_parse_reader(path, entries=None):
    """Every line parsed whole: the reader's result without the payload cut."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("format") != FORMAT_TAG:
                raise ValueError(f"not a policy archive record (format={obj.get('format')!r})")
            theta = None
            if entries is None or len(out) in entries:
                data = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
                theta = (obj["layout"], data.tobytes())
            out.append((theta, obj.get("meta", {})))
    return out


def as_comparable(records):
    return [
        (
            None if r.theta is None else ([[k, list(s)] for k, s in r.theta.layout.entries], r.theta.data.tobytes()),
            r.meta,
        )
        for r in records
    ]


def small_theta(seed):
    return init_actor_critic(DualGoal(), seed, hidden=(4, 4))


def write_lines(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))


def raw_record(seed, meta, data=None, meta_first=False):
    theta = small_theta(seed)
    obj = json.loads(_encode(ArchiveRecord(theta=theta, meta=meta)))
    if data is not None:
        obj["data"] = data
    if meta_first:
        obj = {"meta": obj.pop("meta"), **obj}
    return obj


def test_reader_equals_full_parse_for_every_entries_subset(tmp_path):
    path = tmp_path / "five.jsonl"
    save_archive(path, [ArchiveRecord(small_theta(i), {"policy_id": i, "returns": [i, -i]}) for i in range(5)])
    for size in range(6):
        for subset in itertools.combinations(range(5), size):
            got = as_comparable(load_archive(path, set(subset)))
            assert got == full_parse_reader(path, set(subset)), subset
    assert as_comparable(load_archive(path)) == full_parse_reader(path)


@pytest.mark.parametrize(
    "meta, meta_first, data",
    [
        ({"data": "a nested payload key", "x": {"data": "deeper"}}, False, None),
        ({"data": "a nested payload key"}, True, None),
        ({"policy_id": 3}, True, None),
        # An empty top-level payload: emptying the nested key instead would
        # leave the top-level one looking cut.
        ({"data": "a nested payload key"}, True, ""),
    ],
)
def test_reader_keeps_meta_data_keys_and_other_key_orders(tmp_path, meta, meta_first, data):
    path = tmp_path / "odd.jsonl"
    write_lines(path, [raw_record(i, dict(meta, i=i), data=data, meta_first=meta_first) for i in range(3)])
    for entries in ((), {1}, None) if data is None else ((),):
        got = load_archive(path, entries)
        assert as_comparable(got) == full_parse_reader(path, entries)
        assert [r.meta for r in got] == [dict(meta, i=i) for i in range(3)]


def test_reader_reads_a_payload_holding_a_quote(tmp_path):
    path = tmp_path / "quote.jsonl"
    tricky = 'ab"}, "meta": {"forged": 1}, "x": "'
    write_lines(path, [raw_record(0, {"i": 0}, data=tricky), raw_record(1, {"i": 1})])
    got = load_archive(path, {1})
    assert as_comparable(got) == full_parse_reader(path, {1})
    assert got[0].meta == {"i": 0}


def line_with_payload(seed, payload):
    """A record line whose "data" string is `payload` as raw JSON text."""
    line = json.dumps(raw_record(seed, {"i": seed}))
    start = line.index('"data": "') + len('"data": "')
    return line[:start] + payload + line[line.index('"', start) :]


@pytest.mark.parametrize(
    "payload",
    [
        "AB\\",  # escapes the closing quote: the line is malformed
        "A\\xB",  # an invalid escape
        'A\\"B',  # an escaped quote
        "A\\u0041\\\\B",  # valid escapes
    ],
)
def test_reader_parses_a_payload_holding_a_backslash_like_a_full_parse(tmp_path, payload):
    path = tmp_path / "backslash.jsonl"
    path.write_text(line_with_payload(0, payload) + "\n" + json.dumps(raw_record(1, {"i": 1})) + "\n")
    try:
        expected = full_parse_reader(path, {1})
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            load_archive(path, {1})
        assert str(got.value) == str(error)
    else:
        assert as_comparable(load_archive(path, {1})) == expected


def test_reader_checks_payload_characters_only_when_decoding(tmp_path):
    path = tmp_path / "control.jsonl"
    path.write_text(line_with_payload(0, "AB\tCD") + "\n")
    assert [r.meta for r in load_archive(path, ())] == [{"i": 0}]
    with pytest.raises(ValueError, match="Invalid control character"):
        load_archive(path, {0})


@pytest.mark.parametrize("cut_at", ["layout", "data", "meta"])
def test_reader_reports_a_truncated_record_like_a_full_parse(tmp_path, cut_at):
    path = tmp_path / "truncated.jsonl"
    line = json.dumps(raw_record(0, {"i": 0}))
    path.write_text(line[: line.index(f'"{cut_at}"') + 12] + "\n")
    with pytest.raises(ValueError) as expected:
        full_parse_reader(path, ())
    with pytest.raises(ValueError) as got:
        load_archive(path, ())
    assert str(got.value) == str(expected.value)


def test_reader_rejects_a_foreign_tag_in_an_undecoded_record(tmp_path):
    path = tmp_path / "foreign.jsonl"
    foreign = raw_record(1, {"i": 1})
    foreign["format"] = "something-else"
    write_lines(path, [raw_record(0, {"i": 0}), foreign])
    with pytest.raises(ValueError, match="format='something-else'"):
        load_archive(path, {0})


def test_undecoded_records_are_parsed_without_their_payload(tmp_path, monkeypatch):
    path = tmp_path / "five.jsonl"
    save_archive(path, [ArchiveRecord(small_theta(i), {"policy_id": i}) for i in range(5)])
    lines = path.read_text().splitlines()
    without_payload = [len(line) - len(json.loads(line)["data"]) for line in lines]
    parsed = []
    real = archive.json.loads
    monkeypatch.setattr(archive.json, "loads", lambda text: parsed.append(len(text)) or real(text))
    load_archive(path, {2})
    assert parsed == [*without_payload[:2], len(lines[2]), *without_payload[3:]]
