"""Fuzz corpus management and failure-signature dedup."""

import io
import json
import os

import pytest

from repro.resilience.corpus import (
    DEFAULT_CORPUS_DIR,
    FEATURES,
    Corpus,
    CorpusEntry,
    consider,
    load_corpus,
    program_features,
    save_corpus,
    seed_corpus,
)
from repro.resilience.faults import FaultSpec
from repro.resilience.fuzz import run_fuzz
from repro.resilience.triage import failure_signature

SPILLY = """
int f(int a, int b, int c, int d) {
    int e; int g; int h;
    e = a * b; g = c * d; h = a * d;
    return e + g + h + a + b + c + d;
}
void main() { print(f(2, 3, 5, 7)); }
"""

TRIVIAL = "void main() { int i; i = 2; print(i + 3); }"

#: Deterministic miscompile: corrupt every GRA spill slot with the check
#: that would catch it patched out (same scenario as test_triage).
MISCOMPILE_SPEC = FaultSpec("gra.spill.corrupt-slot", times=None)


class TestProgramFeatures:
    def test_spilly_program_spills(self):
        features = program_features(SPILLY)
        assert "gra.spill" in features
        # The same register pressure makes the interval scan spill too.
        assert "linearscan.spill" in features

    def test_trivial_program_has_no_features(self):
        assert program_features(TRIVIAL) == set()

    def test_broken_program_has_no_features(self):
        assert program_features("void main() { int ; }") == set()

    def test_error_axes_require_the_matching_machinery(self):
        # SPILLY peepholes (so the stale-holder probe has a rewrite to
        # corrupt) but hoists nothing (no loops), so the motion error
        # path is unreachable no matter what is armed.
        features = program_features(SPILLY)
        assert "error.peephole" in features
        assert "error.motion" not in features

    def test_committed_medium_entry_reaches_motion_error_path(self):
        corpus = load_corpus(DEFAULT_CORPUS_DIR)
        by_feature = {
            feature: [e.file for e in corpus.entries if feature in e.features]
            for feature in FEATURES
        }
        # Each validator-error path and the linearscan rung have at
        # least one committed witness seed.
        for axis in (
            "linearscan.spill",
            "ssaspill.spill",
            "error.motion",
            "error.schedule",
            "error.peephole",
            "error.ssa-destruct",
        ):
            assert by_feature[axis], axis


class TestCorpusGrowth:
    def test_consider_keeps_only_new_coverage(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        first = consider(corpus, 1, "small", SPILLY)
        assert first is not None
        assert os.path.exists(first.path(str(tmp_path)))
        # Same features again: rejected, nothing written.
        assert consider(corpus, 2, "small", SPILLY) is None
        assert not os.path.exists(os.path.join(str(tmp_path), "seed2.mc"))
        # No features at all: rejected.
        assert consider(corpus, 3, "small", TRIVIAL) is None

    def test_save_load_roundtrip(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        consider(corpus, 1, "small", SPILLY)
        save_corpus(corpus)
        loaded = load_corpus(str(tmp_path))
        assert [e.seed for e in loaded.entries] == [1]
        assert loaded.covered() == corpus.covered()
        assert loaded.sources() == [SPILLY]

    def test_absent_corpus_is_empty(self, tmp_path):
        corpus = load_corpus(str(tmp_path / "nowhere"))
        assert corpus.entries == []
        assert corpus.covered() == set()

    def test_missing_file_skipped_on_load(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = consider(corpus, 1, "small", SPILLY)
        save_corpus(corpus)
        os.remove(entry.path(str(tmp_path)))
        assert load_corpus(str(tmp_path)).entries == []

    def test_seed_corpus_scans_greedily(self, tmp_path):
        # Small seeds alone cannot cover error.motion (no loop-carried
        # write-back in small generated programs); the scan escalates to
        # medium and completes there.
        corpus = seed_corpus(
            str(tmp_path), seeds=range(35), sizes=("small", "medium")
        )
        assert corpus.entries
        assert corpus.covered() == set(FEATURES)
        manifest = json.load(open(os.path.join(str(tmp_path), "MANIFEST.json")))
        assert manifest["features"] == sorted(FEATURES)
        # Greedy minimality: every entry contributed something new.
        seen = set()
        for entry in corpus.entries:
            assert set(entry.features) - seen
            seen |= set(entry.features)


class TestCommittedCorpus:
    """The corpus checked into tests/corpus/ stays healthy and complete."""

    def test_covers_every_feature(self):
        corpus = load_corpus(DEFAULT_CORPUS_DIR)
        assert corpus.entries, "committed corpus is missing"
        assert corpus.covered() == set(FEATURES)

    def test_manifest_matches_reality(self):
        corpus = load_corpus(DEFAULT_CORPUS_DIR)
        for entry in corpus.entries:
            with open(entry.path(corpus.directory)) as handle:
                source = handle.read()
            assert program_features(source) == set(entry.features), entry.file


class TestFuzzCorpusReplay:
    def test_corpus_runs_ahead_of_seed_range(self, tmp_path):
        stream = io.StringIO()
        report = run_fuzz(
            seeds=0,
            out_dir=str(tmp_path),
            stream=stream,
            corpus_dir=DEFAULT_CORPUS_DIR,
        )
        entries = len(load_corpus(DEFAULT_CORPUS_DIR).entries)
        assert report.corpus_entries == entries
        assert report.scenarios == entries * 3 * 2  # allocators x k-values
        assert report.ok, stream.getvalue()
        assert f"{entries} corpus + 0 seeds" in stream.getvalue()

    def test_no_corpus_flag_skips_replay(self, tmp_path):
        report = run_fuzz(
            seeds=0,
            out_dir=str(tmp_path),
            stream=io.StringIO(),
            use_corpus=False,
        )
        assert report.corpus_entries == 0
        assert report.scenarios == 0

    def test_update_corpus_persists_new_seed(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        out_dir = str(tmp_path / "artifacts")
        stream = io.StringIO()
        report = run_fuzz(
            seeds=1,
            start=16,  # known to spill, hoist, and peephole at k=3
            out_dir=out_dir,
            stream=stream,
            corpus_dir=corpus_dir,
            update_corpus=True,
        )
        assert report.ok
        grown = load_corpus(corpus_dir)
        assert [e.seed for e in grown.entries] == [16]
        assert "corpus: persisted seed 16" in stream.getvalue()


class TestSignatureDedup:
    def test_same_signature_merges_into_one_bundle(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.resilience.pipeline.check_spill_discipline",
            lambda *args, **kwargs: None,
        )
        # Two corpus entries with the same spilling program: under an
        # armed corrupt-slot probe both fail identically, so the second
        # merges into the first bundle instead of re-minimizing.
        corpus_dir = str(tmp_path / "corpus")
        corpus = Corpus(corpus_dir)
        os.makedirs(corpus_dir)
        for seed in (1, 2):
            path = os.path.join(corpus_dir, f"seed{seed}.mc")
            with open(path, "w") as handle:
                handle.write(SPILLY)
            corpus.entries.append(
                CorpusEntry(seed, "small", ["gra.spill"], f"seed{seed}.mc")
            )
        save_corpus(corpus)

        out_dir = str(tmp_path / "artifacts")
        stream = io.StringIO()
        report = run_fuzz(
            seeds=0,
            allocators=("gra",),
            k_values=(3,),
            out_dir=out_dir,
            stream=stream,
            corpus_dir=corpus_dir,
            inject=[MISCOMPILE_SPEC],
            minimize=False,
        )
        assert len(report.failures) == 2
        assert report.distinct_signatures() == 1
        originals = [f for f in report.failures if not f.duplicate]
        duplicates = [f for f in report.failures if f.duplicate]
        assert len(originals) == 1 and len(duplicates) == 1
        assert duplicates[0].bundle_path == originals[0].bundle_path
        assert "duplicate of:" in stream.getvalue()

        # One bundle directory on disk, with both hits and both seeds.
        bundles = sorted(os.listdir(out_dir))
        assert len(bundles) == 1
        signature = failure_signature("miscompile", "compare", None)
        assert bundles[0].endswith(signature)
        meta = json.load(
            open(os.path.join(out_dir, bundles[0], "bundle.json"))
        )
        assert meta["hits"] == 2
        assert meta["seeds"] == [1, 2]
