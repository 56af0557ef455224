"""Checkpoint/resume: interrupted sweeps salvage completed work and
resume to an artifact bit-identical to an uninterrupted run."""

import json

from repro.cli import main
from repro.runner import CheckpointJournal


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", "gridA")
        assert journal.load() is None  # nothing yet
        journal.append("k1", {"record": {"cycles": 10}})
        journal.append("k2", {"record": {"cycles": 20}})
        loaded = CheckpointJournal(tmp_path / "j.jsonl", "gridA").load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"]["record"] == {"cycles": 10}

    def test_torn_trailing_write_salvaged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, "gridA")
        journal.append("k1", {"record": 1})
        with open(path, "a") as fh:
            fh.write('{"key": "k2", "rec')  # killed mid-write
        loaded = CheckpointJournal(path, "gridA").load()
        assert set(loaded) == {"k1"}

    def test_non_utf8_middle_line_quarantined(self, tmp_path):
        """A garbled (non-UTF-8) record between intact ones costs only
        that record: the rest load and the bad bytes go to the
        quarantine sidecar instead of raising UnicodeDecodeError."""
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path, "gridA")
        for n in range(3):
            journal.append(f"k{n}", {"record": n})
        lines = path.read_bytes().splitlines()
        lines[2] = b"\xff\xfe garbled"
        path.write_bytes(b"\n".join(lines) + b"\n")
        reader = CheckpointJournal(path, "gridA")
        loaded = reader.load()
        assert set(loaded) == {"k0", "k2"}
        assert loaded["k2"]["record"] == 2
        assert reader.quarantined == 1
        sidecar = reader.quarantine_path.read_bytes()
        assert b"line 3" in sidecar and b"\xff\xfe garbled" in sidecar

    def test_grid_mismatch_ignored_wholesale(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", "gridA")
        journal.append("k1", {"record": 1})
        assert CheckpointJournal(tmp_path / "j.jsonl", "gridB").load() is None

    def test_garbage_header_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json at all\n")
        assert CheckpointJournal(path, "gridA").load() is None

    def test_discard_is_idempotent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl", "gridA")
        journal.append("k1", {"record": 1})
        journal.discard()
        journal.discard()
        assert not (tmp_path / "j.jsonl").exists()


class TestSweepResume:
    ARGS = ["sweep", "--workloads", "va,dp", "--policies", "ivb,scc",
            "--no-cache"]

    def test_interrupted_then_resumed_matches_uninterrupted(
            self, tmp_path, monkeypatch, capsys):
        reference = tmp_path / "ref.json"
        assert main(self.ARGS + ["--json", str(reference)]) == 0

        # Interrupt deterministically after the first completed job
        # (stand-in for Ctrl-C mid-sweep), then resume.
        resumed = tmp_path / "resumed.json"
        monkeypatch.setenv("REPRO_FAULT_INTERRUPT_AFTER", "1")
        rc = main(self.ARGS + ["--json", str(resumed)])
        assert rc == 130
        err = capsys.readouterr().err
        assert "1/4 job(s) completed" in err
        assert "--resume" in err
        assert not resumed.exists()  # no partial artifact published
        journal = resumed.with_name(resumed.name + ".journal")
        assert journal.exists()

        monkeypatch.delenv("REPRO_FAULT_INTERRUPT_AFTER")
        assert main(self.ARGS + ["--json", str(resumed), "--resume"]) == 0
        assert "resuming" in capsys.readouterr().err
        assert resumed.read_bytes() == reference.read_bytes()
        assert not journal.exists()  # cleaned up after success

    def test_resume_without_journal_starts_fresh(self, tmp_path, capsys):
        out = tmp_path / "fresh.json"
        rc = main(self.ARGS + ["--json", str(out), "--resume"])
        assert rc == 0
        assert "no matching journal" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["results"]) == 4

    def test_resume_requires_json_path(self, capsys):
        assert main(["sweep", "--workloads", "va", "--resume"]) == 2
        assert "--resume needs --json" in capsys.readouterr().err

    def test_changed_grid_invalidates_journal(self, tmp_path, monkeypatch,
                                              capsys):
        out = tmp_path / "grid.json"
        monkeypatch.setenv("REPRO_FAULT_INTERRUPT_AFTER", "1")
        assert main(self.ARGS + ["--json", str(out)]) == 130
        monkeypatch.delenv("REPRO_FAULT_INTERRUPT_AFTER")
        capsys.readouterr()

        # Same artifact path, different grid: the stale journal must
        # not leak its records into the new sweep.
        rc = main(["sweep", "--workloads", "va", "--policies", "ivb",
                   "--no-cache", "--json", str(out), "--resume"])
        assert rc == 0
        assert "no matching journal" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["results"]) == 1

    def test_mismatched_journal_replaced_on_resume(self, tmp_path,
                                                   monkeypatch, capsys):
        # Regression: --resume over a journal from a *different* grid
        # used to leave the stale file in place, so this run's records
        # were appended under the old header and a second --resume
        # ignored every one of them, redoing all completed work.
        out = tmp_path / "y.json"
        monkeypatch.setenv("REPRO_FAULT_INTERRUPT_AFTER", "1")
        assert main(self.ARGS + ["--json", str(out)]) == 130  # old grid

        args_b = ["sweep", "--workloads", "va,dp", "--policies", "ivb",
                  "--no-cache", "--json", str(out), "--resume"]
        assert main(args_b) == 130  # new grid, interrupted again
        assert "no matching journal" in capsys.readouterr().err

        monkeypatch.delenv("REPRO_FAULT_INTERRUPT_AFTER")
        assert main(args_b) == 0
        assert "resuming, 1/2 job(s)" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["results"]) == 2

    def test_stale_journal_discarded_without_resume_flag(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "x.json"
        monkeypatch.setenv("REPRO_FAULT_INTERRUPT_AFTER", "1")
        assert main(self.ARGS + ["--json", str(out)]) == 130
        monkeypatch.delenv("REPRO_FAULT_INTERRUPT_AFTER")
        journal = out.with_name(out.name + ".journal")
        assert journal.exists()

        # Without --resume the run starts from scratch and the old
        # journal is removed up front.
        assert main(self.ARGS + ["--json", str(out)]) == 0
        assert len(json.loads(out.read_text())["results"]) == 4
        assert not journal.exists()
