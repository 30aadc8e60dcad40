"""WAL format regressions: torn tails, corruption, duplicates.

Every fixture here is a hand-written or hand-damaged segment: the scanner
must classify a write the crash interrupted (torn tail → clamp to the
valid prefix) differently from damage with logged records after it
(corruption → fail loudly), and recovery must re-run exactly the entities
of the complete ``input`` records, stopping dead-lettered ones before
their stage.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core import StreamERConfig
from repro.durability.recovery import recover
from repro.durability.wal import (
    WAL_MAGIC,
    WAL_VERSION,
    CrashPoint,
    WalWriter,
    encode_record,
    header_size,
    scan_wal,
    segment_path,
)
from repro.errors import (
    ConfigurationError,
    RecoveryError,
    SimulatedCrash,
    WalCorruptionError,
)


CONFIG = StreamERConfig()


def input_record(*eids: int) -> dict:
    """The ``input`` record of one admission: entity ``i`` has the single
    token ``tok<i>``."""
    return {
        "op": "input",
        "entities": [[i, [["name", f"tok{i}"]], None] for i in eids],
    }


def entity_records(i: int) -> list[dict]:
    """The WAL trace of one admitted entity."""
    return [input_record(i)]


def write_segment(path, records, epoch=0):
    writer = WalWriter(path, epoch=epoch, fsync="never")
    for record in records:
        writer.append(record)
    writer.close()
    return path


@pytest.fixture()
def segment(tmp_path):
    """A clean segment holding three committed entities."""
    records = [r for i in range(3) for r in entity_records(i)]
    path = segment_path(tmp_path, 0)
    write_segment(path, records)
    return path, records


class TestScan:
    def test_round_trip(self, segment):
        path, records = segment
        scan = scan_wal(path)
        assert scan.records == records
        assert not scan.torn_tail
        assert scan.tail_error is None
        assert scan.valid_bytes == path.stat().st_size
        assert scan.offsets[0] == header_size()
        assert scan.offsets == sorted(scan.offsets)

    def test_empty_segment_is_valid(self, tmp_path):
        path = segment_path(tmp_path, 0)
        WalWriter(path, epoch=0, fsync="never").close()
        scan = scan_wal(path)
        assert scan.records == []
        assert not scan.torn_tail

    def test_epoch_survives_in_header(self, tmp_path):
        path = segment_path(tmp_path, 7)
        write_segment(path, entity_records(0), epoch=7)
        assert scan_wal(path).epoch == 7

    def test_non_wal_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-wal.log"
        path.write_bytes(b"definitely not a WAL segment")
        with pytest.raises(WalCorruptionError, match="not a repro WAL"):
            scan_wal(path)

    def test_unsupported_version_rejected(self, tmp_path):
        # Version 1 logged state mutations; its segments cannot be re-run.
        path = tmp_path / "v1.log"
        path.write_bytes(WAL_MAGIC + struct.pack("<II", 1, 0))
        with pytest.raises(WalCorruptionError, match="version 1"):
            scan_wal(path)
        path.write_bytes(WAL_MAGIC + struct.pack("<II", WAL_VERSION + 1, 0))
        with pytest.raises(WalCorruptionError, match="version"):
            scan_wal(path)


class TestTornTail:
    def test_truncated_record_header(self, segment):
        path, records = segment
        data = path.read_bytes()
        scan = scan_wal(path)
        # Leave 3 bytes of the next record header after the prefix.
        path.write_bytes(data[: scan.offsets[-1]] + data[scan.offsets[-1]:][:3])
        clamped = scan_wal(path)
        assert clamped.torn_tail
        assert "truncated record header" in clamped.tail_error
        assert clamped.records == records[:-1]
        assert clamped.valid_bytes == scan.offsets[-1]

    def test_truncated_payload(self, segment):
        path, records = segment
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # cut the final payload short
        scan = scan_wal(path)
        assert scan.torn_tail
        assert "remain" in scan.tail_error
        assert scan.records == records[:-1]

    def test_absurd_length_claim_is_torn(self, tmp_path):
        path = segment_path(tmp_path, 0)
        write_segment(path, entity_records(0))
        with path.open("ab") as handle:
            handle.write(struct.pack("<II", 2**31, 0) + b"xx")
        scan = scan_wal(path)
        assert scan.torn_tail
        assert scan.records == entity_records(0)

    def test_flipped_checksum_byte_on_final_record_is_torn(self, segment):
        path, records = segment
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # damage the last payload byte
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.torn_tail
        assert "checksum mismatch in final record" in scan.tail_error
        assert scan.records == records[:-1]


class TestCorruption:
    def damage_first_record(self, path):
        data = bytearray(path.read_bytes())
        data[header_size() + 8] ^= 0xFF  # first payload byte of record 0
        path.write_bytes(bytes(data))

    def test_flipped_byte_mid_log_raises_under_strict(self, segment):
        path, _ = segment
        self.damage_first_record(path)
        with pytest.raises(WalCorruptionError, match="mid-log corruption"):
            scan_wal(path)

    def test_non_strict_clamps_at_the_damage(self, segment):
        path, _ = segment
        self.damage_first_record(path)
        scan = scan_wal(path, strict=False)
        assert scan.torn_tail
        assert scan.records == []

    def test_checksummed_garbage_payload_raises(self, tmp_path):
        path = segment_path(tmp_path, 0)
        payload = b"\xff\xfenot json"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        path.write_bytes(WAL_MAGIC + struct.pack("<II", WAL_VERSION, 0) + frame)
        with pytest.raises(WalCorruptionError, match="fails to decode"):
            scan_wal(path)


class TestWriter:
    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fsync"):
            WalWriter(tmp_path / "w.log", epoch=0, fsync="sometimes")

    def test_resume_truncates_the_discarded_tail(self, segment):
        path, records = segment
        scan = scan_wal(path)
        cut = scan.offsets[-2]  # drop the last two records
        writer = WalWriter(path, epoch=0, fsync="never", resume_offset=cut)
        writer.append({"op": "blacklist_add", "k": "new"})
        writer.close()
        rescan = scan_wal(path)
        assert rescan.records == records[:-2] + [{"op": "blacklist_add", "k": "new"}]

    def test_crash_point_kills_and_stays_dead(self, tmp_path):
        path = segment_path(tmp_path, 0)
        writer = WalWriter(
            path, epoch=0, fsync="never", crash_point=CrashPoint(at_record=2)
        )
        writer.append({"op": "token", "t": "a"})
        with pytest.raises(SimulatedCrash, match="record 2"):
            writer.append({"op": "token", "t": "b"})
        with pytest.raises(SimulatedCrash, match="dead"):
            writer.append({"op": "token", "t": "c"})
        assert scan_wal(path).records == [{"op": "token", "t": "a"}]

    def test_torn_bytes_leaves_a_genuinely_torn_tail(self, tmp_path):
        path = segment_path(tmp_path, 0)
        writer = WalWriter(
            path,
            epoch=0,
            fsync="never",
            crash_point=CrashPoint(at_record=1, torn_bytes=5),
        )
        with pytest.raises(SimulatedCrash):
            writer.append({"op": "token", "t": "a"})
        assert path.stat().st_size == header_size() + 5
        scan = scan_wal(path)
        assert scan.torn_tail
        assert scan.records == []

    def test_crash_index_spans_resumed_counts(self, tmp_path):
        # records_before threads the global append index across rollovers.
        path = segment_path(tmp_path, 1)
        writer = WalWriter(
            path,
            epoch=1,
            fsync="never",
            crash_point=CrashPoint(at_record=5),
            records_before=4,
        )
        with pytest.raises(SimulatedCrash):
            writer.append({"op": "token", "t": "a"})


class TestCrashPointValidation:
    def test_at_record_is_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            CrashPoint(at_record=0)

    def test_torn_bytes_cannot_be_negative(self):
        with pytest.raises(ConfigurationError, match="negative"):
            CrashPoint(at_record=1, torn_bytes=-1)


class TestRecoveryFromFixtures:
    def test_replays_every_complete_input_record(self, tmp_path):
        write_segment(segment_path(tmp_path, 0), [input_record(0, 1), input_record(2)])
        state = recover(tmp_path, CONFIG)
        assert state.entities_processed == state.entities_replayed == 3
        assert state.records_replayed == 2
        assert len(state.backend.profiles) == 3
        assert state.backend.blocks.block("tok2") == [2]

    def test_dead_letter_stops_its_entity_before_the_stage(self, tmp_path):
        records = [
            input_record(0, 1, 2),
            {"op": "dead_letter", "at": 1, "eid": 1, "stage": "bb+bp"},
        ]
        write_segment(segment_path(tmp_path, 0), records)
        state = recover(tmp_path, CONFIG)
        assert state.entities_processed == 3
        # f_bb+bp registers the profile: entity 1 never reached it.
        assert 1 not in state.backend.profiles
        assert "tok1" not in state.backend.blocks
        assert state.backend.blocks.block("tok2") == [2]

    def test_dead_letter_naming_no_logged_entity_raises(self, tmp_path):
        records = [
            input_record(0),
            {"op": "dead_letter", "at": 0, "eid": 5, "stage": "co"},
        ]
        write_segment(segment_path(tmp_path, 0), records)
        with pytest.raises(RecoveryError, match="names no entity"):
            recover(tmp_path, CONFIG)

    def test_unknown_op_raises(self, tmp_path):
        records = [{"op": "frobnicate"}] + entity_records(0)
        write_segment(segment_path(tmp_path, 0), records)
        with pytest.raises(RecoveryError, match="unknown op"):
            recover(tmp_path, CONFIG)

    def test_torn_tail_is_clamped_and_reported(self, tmp_path):
        path = segment_path(tmp_path, 0)
        write_segment(path, [r for i in range(2) for r in entity_records(i)])
        with path.open("ab") as handle:
            handle.write(encode_record(input_record(2))[:6])
        state = recover(tmp_path, CONFIG)
        assert state.torn_tail
        assert state.entities_processed == 2
        assert state.resume_offset == scan_wal(path).valid_bytes

    def test_missing_middle_segment_raises(self, tmp_path):
        write_segment(segment_path(tmp_path, 0), entity_records(0))
        write_segment(segment_path(tmp_path, 2), entity_records(1), epoch=2)
        with pytest.raises(RecoveryError, match="broken WAL segment chain"):
            recover(tmp_path, CONFIG)

    def test_header_epoch_must_match_the_name(self, tmp_path):
        write_segment(segment_path(tmp_path, 0), entity_records(0), epoch=3)
        with pytest.raises(RecoveryError, match="named for epoch"):
            recover(tmp_path, CONFIG)

    def test_damage_before_the_final_segment_raises(self, tmp_path):
        path0 = segment_path(tmp_path, 0)
        write_segment(path0, entity_records(0))
        data = path0.read_bytes()
        path0.write_bytes(data[:-4])
        write_segment(segment_path(tmp_path, 1), entity_records(1), epoch=1)
        # Without a snapshot at epoch 1, recovery must replay epoch 0 —
        # and its damage is unrecoverable data loss, not a torn tail.
        with pytest.raises(RecoveryError, match="non-final WAL segment"):
            recover(tmp_path, CONFIG)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="does not exist"):
            recover(tmp_path / "nope", CONFIG)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no WAL segment"):
            recover(tmp_path, CONFIG)
