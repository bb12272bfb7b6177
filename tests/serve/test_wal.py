"""WAL framing, replay, torn tails, truncation and single-writer lock."""

import json

import pytest

from repro.serve.wal import (
    WAL_FORMAT_VERSION,
    WalError,
    WriteAheadLog,
    decode_record,
    encode_record,
)

pytestmark = pytest.mark.catalog


class TestFraming:
    def test_encode_decode_round_trip(self):
        doc = {"v": 1, "seq": 3, "op": "put", "entries": [{"key": "k"}]}
        assert decode_record(encode_record(doc)) == doc

    def test_bad_checksum_is_rejected(self):
        line = bytearray(encode_record({"v": 1, "seq": 1, "op": "stale"}))
        line[0] = ord("f") if line[0] != ord("f") else ord("0")
        assert decode_record(bytes(line)) is None

    def test_flipped_payload_byte_is_rejected(self):
        line = bytearray(encode_record({"v": 1, "seq": 1, "op": "stale"}))
        line[-3] ^= 0x01
        assert decode_record(bytes(line)) is None

    def test_missing_newline_is_torn(self):
        line = encode_record({"v": 1, "seq": 1, "op": "stale"})
        assert decode_record(line[:-1]) is None

    def test_non_object_payload_is_rejected(self):
        import zlib

        body = b"[1,2]"
        framed = f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode() + body + b"\n"
        assert decode_record(framed) is None


class TestAppendReplay:
    def test_append_then_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "cat.wal")
        wal.append(1, [["stale", ["a"]]])
        wal.append(2, [["stale", ["b"]]])
        wal.close()

        fresh = WriteAheadLog(tmp_path / "cat.wal")
        records = list(fresh.replay(0))
        assert [r["seq"] for r in records] == [1, 2]
        assert fresh.last_seq == 2
        fresh.close()

    def test_replay_skips_snapshot_absorbed_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "cat.wal")
        for seq in range(1, 6):
            wal.append(seq, [["stale", [f"k{seq}"]]])
        assert [r["seq"] for r in wal.replay(after_seq=3)] == [4, 5]
        wal.close()

    def test_unknown_op_is_refused_at_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "cat.wal")
        with pytest.raises(WalError, match="unknown WAL op"):
            wal.append(1, [["stale", ["k"]], ["format-disk", []]])
        wal.close()

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "cat.wal"
        record = encode_record(
            {"v": WAL_FORMAT_VERSION + 1, "seq": 1, "op": "stale"}
        )
        path.write_bytes(record)
        wal = WriteAheadLog(path)
        with pytest.raises(WalError, match="unsupported"):
            list(wal.replay(0))
        wal.close()

    def test_earlier_lease_records_are_skipped(self, tmp_path):
        path = tmp_path / "cat.wal"
        path.write_bytes(
            encode_record({"v": 1, "seq": 1, "op": "stale", "keys": ["a"]})
            + encode_record({"v": 1, "seq": 2, "op": "lease", "fence": 1})
        )
        wal = WriteAheadLog(path)
        assert [r["seq"] for r in wal.replay(0)] == [1]
        assert wal.last_seq == 2  # the next commit still numbers past it
        wal.close()

    def test_missing_file_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "never-written.wal")
        assert list(wal.replay(0)) == []
        wal.close()


class TestTornTail:
    def _write(self, path, n=3):
        wal = WriteAheadLog(path)
        for seq in range(1, n + 1):
            wal.append(seq, [["stale", [f"k{seq}"]]])
        wal.close()

    @pytest.mark.parametrize("chop", [1, 5, 20])
    def test_torn_final_record_is_discarded(self, tmp_path, chop):
        path = tmp_path / "cat.wal"
        self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - chop])
        wal = WriteAheadLog(path)
        # every chop lands inside record 3: records 1-2 replay, 3 is gone
        assert [r["seq"] for r in wal.replay(0)] == [1, 2]
        wal.close()

    def test_damage_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "cat.wal"
        self._write(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b"00000000 {garbage}\n"
        path.write_bytes(b"".join(lines))
        wal = WriteAheadLog(path)
        with pytest.raises(WalError, match="damage before the tail"):
            list(wal.replay(0))
        wal.close()

    def test_every_prefix_of_acknowledged_bytes_replays_cleanly(self, tmp_path):
        # crash-safety property at the byte level: chopping the file at ANY
        # point yields a clean replay of every fully-acknowledged record
        path = tmp_path / "cat.wal"
        self._write(path, n=4)
        data = path.read_bytes()
        boundaries = [i for i, b in enumerate(data) if b == ord("\n")]
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            complete = sum(1 for b in boundaries if b < cut)
            wal = WriteAheadLog(path)
            assert len(list(wal.replay(0))) == complete
            wal.close()


class TestTruncate:
    def test_truncate_resets_the_file(self, tmp_path):
        path = tmp_path / "cat.wal"
        wal = WriteAheadLog(path)
        wal.append(1, [["stale", ["a"]]])
        wal.truncate()
        assert path.read_bytes() == b""
        # appends keep working after a truncation
        wal.append(2, [["stale", ["b"]]])
        assert [r["seq"] for r in wal.replay(after_seq=1)] == [2]
        wal.close()


class TestSingleWriter:
    def test_second_writer_is_refused(self, tmp_path):
        path = tmp_path / "cat.wal"
        first = WriteAheadLog(path)
        with pytest.raises(WalError, match="held by another"):
            WriteAheadLog(path)
        first.close()
        # released on close: a successor may take over
        second = WriteAheadLog(path)
        second.close()


class TestDurability:
    def test_records_are_compact_single_lines(self, tmp_path):
        path = tmp_path / "cat.wal"
        wal = WriteAheadLog(path)
        ops = [["put", [{"key": "k", "value": 1}]], ["stale", ["k"]]]
        wal.append(1, ops)
        wal.close()
        lines = path.read_bytes().splitlines()
        assert len(lines) == 1  # one commit, one line, however many ops
        payload = json.loads(lines[0][9:])
        assert payload["ops"] == ops and payload["seq"] == 1
