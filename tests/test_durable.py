"""The durable append-log and every JSONL writer built on it.

Four writers share :class:`repro.durable.AppendLog`: the sweep checkpoint
(``RunJournal``), the daemon journal (``ServiceJournal``), the fleet shard
journal (``ShardJournal``) and the telemetry spool (``SpoolSink``).  These
tests pin the crash discipline they share — a torn tail is sealed, never
glued onto — each resumable log's contract under every kind of on-disk
damage (:func:`repro.durable.damage_log`), the fsyncs each one makes,
and the start/stop lifecycle of the log and of the socket server beside
it (``MetricsEndpoint``).

CI runs this file under ``python -X dev`` with ``ResourceWarning`` as an
error, so a held handle or socket that is never closed fails here.
"""

import json
import os
import socket
import stat
import urllib.error
import urllib.request

import pytest

from repro.durable import DAMAGE_MODES, AppendLog, damage_log, read_jsonl
from repro.fleet.executor import ShardJournal, ShardPlan, load_sealed_summary
from repro.fleet.reduce import QuarantineRecord, ShardSummary
from repro.obs.stream import MetricsEndpoint, SpoolSink
from repro.runner import RunJournal, RunStatus
from repro.service import ChaosSpec, FaultyLog, ServiceJournal

PLAN = ShardPlan(shard=0, lo=0, hi=200)
QUARANTINED = QuarantineRecord(
    device=7, archetype="phone", digest="d" * 16,
    error_type="RuntimeError", error_message="boom", attempts=2,
)


# ----------------------------------------------------------------------
# One adapter per writer: write entries, reopen and append, read back
# ----------------------------------------------------------------------
class RunWriter:
    name = "run"

    def path(self, tmp_path):
        return tmp_path / "cache" / "journal.jsonl"

    def write(self, path, keys):
        journal = RunJournal(path)
        for key in keys:
            journal.record(key)
        journal.close()

    def read(self, path):
        return sorted(RunJournal(path).completed())


class ServiceWriter:
    name = "service"

    def path(self, tmp_path):
        return tmp_path / "state" / "service.journal.jsonl"

    def write(self, path, keys):
        journal = ServiceJournal(path)
        for key in keys:
            journal.append({"kind": "register", "key": key})
        journal.close()

    def read(self, path):
        return [entry["key"] for entry in ServiceJournal(path).entries]


class ShardWriter:
    name = "shard"

    def path(self, tmp_path):
        return tmp_path / "fleet" / "shards" / "shard-0000.jsonl"

    def write(self, path, keys):
        journal = ShardJournal(path)
        if not path.exists():
            journal.begin("population", PLAN, attempt=1)
        for key in keys:
            journal.device(int(key), "ok")
        journal.close()

    def read(self, path):
        return [
            str(entry["device"])
            for entry in read_jsonl(path)[0]
            if entry.get("kind") == "device"
        ]


class SpoolWriter:
    name = "spool"

    def path(self, tmp_path):
        return tmp_path / "spool" / "shard-0001.jsonl"

    def write(self, path, keys):
        sink = SpoolSink(path.parent)
        for key in keys:
            sink.emit("shard-0001", json.dumps({"key": key}))
        sink.close()
        assert sink.dropped == 0

    def read(self, path):
        return [entry["key"] for entry in read_jsonl(path)[0]]


WRITERS = [RunWriter(), ServiceWriter(), ShardWriter(), SpoolWriter()]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.name)
def test_torn_tail_is_sealed_and_only_the_fragment_is_lost(writer, tmp_path):
    path = writer.path(tmp_path)
    writer.write(path, ["1", "2"])
    damage_log(path, "tear")  # a crash cut the next append short
    writer.write(path, ["3"])  # the reopened writer appends
    writer.write(path, ["4"])

    assert writer.read(path) == ["1", "2", "3", "4"]
    lines = path.read_text().splitlines()
    unparsable = []
    for line in lines:
        try:
            json.loads(line)
        except ValueError:
            unparsable.append(line)
    assert unparsable == ['{"kind": "register", "t": 9999999, "alarm": {"al']
    assert "" not in lines  # sealed with one newline, no blank lines


# ----------------------------------------------------------------------
# fsync discipline
# ----------------------------------------------------------------------
def _script_run(tmp_path):
    journal = RunJournal(tmp_path / "cache" / "journal.jsonl")
    journal.record("a")
    journal.record("b", RunStatus.FAILED)
    journal.record("a")  # already journaled: no write
    journal.close()
    reopened = RunJournal(journal.path)
    reopened.record("c")
    reopened.close()


def _script_service(tmp_path):
    journal = ServiceJournal(tmp_path / "state" / "service.journal.jsonl")
    journal.reset()  # nothing to delete yet
    for t in range(4):
        journal.append({"kind": "watermark", "t": t})
    journal.reset()
    journal.append({"kind": "watermark", "t": 9})
    journal.close()


def _script_faulty(tmp_path):
    path = tmp_path / "state" / "j.jsonl"
    journal = ServiceJournal(path, FaultyLog(path, ChaosSpec(dup_p=1.0, seed=1)))
    journal.append({"kind": "watermark", "t": 1})
    journal.append({"kind": "watermark", "t": 2})
    journal.close()


def _script_shard(tmp_path):
    journal = ShardJournal(tmp_path / "shards" / "shard-0000.jsonl")
    journal.begin("population", PLAN, attempt=1)
    for index in range(100):
        journal.device(index, "ok")
    journal.quarantine(QUARANTINED)
    for index in range(100, 200):
        journal.device(index, "ok")
    journal.seal({"devices": 200})


def _script_spool(tmp_path):
    sink = SpoolSink(tmp_path / "spool")
    for seq in range(3):
        sink.emit("a", json.dumps({"seq": seq}))
    sink.emit("b", json.dumps({"seq": 0}))
    sink.close()
    resumed = SpoolSink(tmp_path / "spool")
    resumed.emit("a", json.dumps({"seq": 3}))
    resumed.close()


# (script, file fsyncs, directory fsyncs).  Every count equals the one
# the same script made before the writers shared AppendLog, except the
# run journal's directory fsync on create: it used to make none.
FSYNC_TABLE = [
    ("run", _script_run, 3, 1),
    ("service", _script_service, 5, 3),
    ("faulty-dup", _script_faulty, 4, 1),
    ("shard", _script_shard, 5, 1),
    ("spool", _script_spool, 0, 0),
]


@pytest.mark.parametrize(
    "script, file_syncs, dir_syncs",
    [row[1:] for row in FSYNC_TABLE],
    ids=[row[0] for row in FSYNC_TABLE],
)
def test_fsync_counts_per_writer(script, file_syncs, dir_syncs, tmp_path, monkeypatch):
    counts = {"file": 0, "dir": 0}
    real_fsync = os.fsync

    def counting_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        counts[kind] += 1
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    script(tmp_path)
    assert counts == {"file": file_syncs, "dir": dir_syncs}


def test_failed_fsync_closes_so_the_next_append_starts_its_own_line(
    tmp_path, monkeypatch
):
    path = tmp_path / "log.jsonl"
    log = AppendLog(path, fsync_every=1)
    real_fsync = os.fsync
    failures = iter([OSError("disk on fire")])

    def failing_fsync(fd):
        if not stat.S_ISDIR(os.fstat(fd).st_mode):
            error = next(failures, None)
            if error is not None:
                raise error
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk on fire"):
        log.append(json.dumps({"n": 1}))
    assert log._handle is None
    damage_log(path, "tear")  # whatever the failure left half-written
    log.append(json.dumps({"n": 2}))
    log.close()
    assert read_jsonl(path) == ([{"n": 1}, {"n": 2}], 1)
    assert path.read_text().endswith('{"n": 2}\n')


def test_flush_only_log_never_fsyncs(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: pytest.fail("fsync called"))
    log = AppendLog(tmp_path / "spool" / "x.jsonl", fsync_every=0)
    log.append("{}", sync=True)
    log.reset()


def test_read_jsonl_skips_garbage_and_reads_missing_as_empty(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b'{"a": 1}\n\n\x00\xffnot json\n[1, 2]\n{"b": 2}\n{"c": ')
    # Garbage, a non-object and a torn tail are counted; a blank is not.
    assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], 3)
    assert read_jsonl(tmp_path / "missing.jsonl") == ([], 0)


def test_damage_log_rejects_an_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="unknown damage mode"):
        damage_log(tmp_path / "log.jsonl", "shred")


# ----------------------------------------------------------------------
# Crash matrix: each resumable log's contract under each kind of damage
# ----------------------------------------------------------------------
# Every case writes a log whose final write is then damaged: a "tear" is
# that write cut short (only its fragment reaches disk), "truncate" cuts
# it after it landed, "garbage" and "delete" lose the whole file.  What
# survives is exactly the entries written before the final one.
def _survives(mode):
    return mode in ("tear", "truncate")


class RunCase:
    name = "run"
    DIGESTS = ["a" * 64, "b" * 64, "c" * 64]

    def write(self, path, final):
        journal = RunJournal(path)
        for digest in self.DIGESTS if final else self.DIGESTS[:2]:
            journal.record(digest)
        journal.close()

    def check(self, path, mode):
        survivors = set(self.DIGESTS[:2]) if _survives(mode) else set()
        assert RunJournal(path).completed() == survivors
        journal = RunJournal(path)
        journal.record("d" * 64)
        journal.close()
        assert RunJournal(path).completed() == survivors | {"d" * 64}


class ServiceCase:
    name = "service"

    def write(self, path, final):
        journal = ServiceJournal(path)
        for t in [100, 200, 300] if final else [100, 200]:
            journal.append({"kind": "watermark", "t": t})
        journal.close()

    def check(self, path, mode):
        journal = ServiceJournal(path)
        survivors = [100, 200] if _survives(mode) else []
        assert [entry["t"] for entry in journal.entries] == survivors
        assert journal.skipped == (0 if mode == "delete" else 1)
        journal.append({"kind": "watermark", "t": 400})
        journal.close()
        assert [e["t"] for e in ServiceJournal(path).entries] == survivors + [400]
        last = json.loads(path.read_bytes().splitlines()[-1])
        assert last == {"kind": "watermark", "t": 400, "seq": len(survivors)}


class ShardCase:
    name = "shard"
    SUMMARY = ShardSummary(population="population", shard=0, lo=0, hi=200)

    def write(self, path, final):
        journal = ShardJournal(path)
        journal.begin("population", PLAN, attempt=1)
        for index in range(3):
            journal.device(index, "ok")
        if final:
            journal.seal(self.SUMMARY.to_dict())
            assert load_sealed_summary(path, "population", PLAN) is not None
        journal.close()

    def check(self, path, mode):
        assert load_sealed_summary(path, "population", PLAN) is None


CASES = [RunCase(), ServiceCase(), ShardCase()]


@pytest.mark.parametrize("mode", DAMAGE_MODES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_crash_matrix(case, mode, tmp_path):
    path = tmp_path / "log.jsonl"
    case.write(path, final=mode != "tear")
    damage_log(path, mode)
    case.check(path, mode)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestAppendLogLifecycle:
    def test_start_stop(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append("{}")
        assert log._handle is not None
        log.close()
        assert log._handle is None

    def test_stop_without_start(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.close()  # should not raise
        assert not log.path.exists()

    def test_double_close_is_a_noop(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append("{}")
        log.close()
        log.close()
        assert log._handle is None

    def test_append_after_close_reopens(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append('{"n": 1}')
        log.close()
        log.append('{"n": 2}')
        assert log._handle is not None
        log.close()
        assert read_jsonl(log.path) == ([{"n": 1}, {"n": 2}], 0)

    def test_reset_deletes_and_restarts(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append('{"n": 1}')
        log.reset()
        assert log._handle is None and not log.path.exists()
        log.append('{"n": 2}')
        log.close()
        assert read_jsonl(log.path) == ([{"n": 2}], 0)


def _scrape(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read()


def _refused(host, port):
    try:
        socket.create_connection((host, port), timeout=2).close()
    except OSError:
        return True
    return False


class TestMetricsEndpointLifecycle:
    def test_start_stop(self):
        endpoint = MetricsEndpoint(lambda: "metric_a 1\n")
        assert _scrape(endpoint.url) == (200, b"metric_a 1\n")
        endpoint.close()
        assert not endpoint._thread.is_alive()
        assert _refused(endpoint.host, endpoint.port)

    def test_stop_before_any_scrape(self):
        # Closing races the serve thread's start-up; it must not hang.
        for _ in range(5):
            MetricsEndpoint(lambda: "").close()

    def test_double_close_is_a_noop(self):
        endpoint = MetricsEndpoint(lambda: "")
        endpoint.close()
        endpoint.close()

    def test_context_manager_closes(self):
        with MetricsEndpoint(lambda: "x 1\n") as endpoint:
            assert _scrape(endpoint.url)[0] == 200
        assert _refused(endpoint.host, endpoint.port)

    def test_root_path_is_served_and_others_are_404(self):
        with MetricsEndpoint(lambda: "x 1\n") as endpoint:
            base = f"http://{endpoint.host}:{endpoint.port}"
            assert _scrape(base + "/") == (200, b"x 1\n")
            assert _scrape(base + "/metrics?name=x") == (200, b"x 1\n")
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(base + "/nope")
            err.value.close()
            assert err.value.code == 404


