"""Deleted second implementations stay deleted.

One table of (why, git grep flags, pattern, paths): code no CLI
command, example or bench_wall workload reached, each deleted beside the
path they do run (evidence in CHANGES.md).  Every entry is one
``git grep`` over the tracked files of ``paths``; an entry whose flags
are ``MULTILINE`` instead searches the whole text of each file that
``git grep -lE`` finds its call prefix in (a keyword argument may sit on
a later line than its call).  Prints each match and exits 1 if any entry
matches, 0 otherwise.

    python .github/guard_deleted.py
"""

import re
import subprocess
import sys

SRC_TESTS_EXAMPLES = ("src", "tests", "examples")
MULTILINE = "multiline"

GUARDS = [
    ("helpers no path ran", "-wE",
     "simulated_peak_bytes|FlopsProfiler|strong_scaling_table|seeded_skew_profile"
     "|chain_forward_sharded|chain_grad_input_sharded|grid_rank|_FileSystemShim",
     ("src",)),
    ("collectives no engine calls", "-E",
     r"def (broadcast|scatter|gather|all_to_all|barrier)\b", ("src/repro/cluster",)),
    # RunSpec describes only what Session runs: the analytic drivers
    # build a TrainingSetup, `repro serve` a ServePolicy.
    ("RunSpec runs what Session runs", "-wE",
     "training_setup|from_spec|serve_policy|policy_problems|policy_field_names"
     "|POLICY_METADATA_KEY"
     "|serve_(max_batch|window_s|queue_limit|cache_entries|min_replicas|max_replicas)",
     SRC_TESTS_EXAMPLES),
    # One save, one resume: the archive picks the restore path, and the
    # periodic cadence is the Supervisor's, not StepLoop's.
    ("one save, one resume", "-wE",
     "save_meta|resume_meta|resume_elastic|run_supervised|checkpoint_fn|health_fn"
     "|on_checkpoint|on_health|on_loss",
     SRC_TESTS_EXAMPLES),
    # One journal write path (EventJournal.append), and no metrics
    # exposition nothing reads.
    ("one journal write path", "-wE",
     "record_(finding|recovery|checkpoint|fold|serve|replan|run)|to_prometheus"
     "|write_prometheus|parse_prometheus",
     SRC_TESTS_EXAMPLES),
    # The journal is the one record: the Supervisor appends each event
    # once and reads the report's events back; the detector bank keeps
    # no alert list or counters.
    ("the report is read off the journal", "-F", "report.events.append",
     ("src",)),
    # EventJournal.append is the one write path: every writer appends to
    # the journal its run owns, and nothing wraps it.
    ("no journal wrapper", "-F", "monitor.record", SRC_TESTS_EXAMPLES),
    ("no journal wrapper", "-w", "record", ("src/repro/obs/off.py",)),
    ("no journal wrapper", "-E", r"def record\b", ("src/repro/obs/monitor.py",)),
    ("alerts are counted off the journal", "-wE", "critical_count|warning_count",
     SRC_TESTS_EXAMPLES),
    # One artifact layer: one error class, one canonical encoding.
    ("one artifact layer", "-wE",
     "BaselineError|TraceFormatError|TuneCacheError|_JSON_KWARGS",
     SRC_TESTS_EXAMPLES),
    # Session.save/resume are the only checkpoint paths, the fault
    # injector is the only replan evidence, and one context manager
    # attributes ranked compute.
    ("one checkpoint path, one replan evidence", "-wE",
     "save_trainer|resume_trainer|from_findings|rules_from_dicts|with_overrides"
     "|_RankedCompute",
     SRC_TESTS_EXAMPLES),
    ("replan reads no lost ranks", "", "lost_ranks", ("src/repro/replan",)),
    # One Finding shape, and obs options that had one value in use are
    # constants.
    ("one Finding shape", "-wE", "FindingKind|HealthThresholds|rules_for",
     SRC_TESTS_EXAMPLES),
    ("Finding has no codec", "-E", r"def (kind|magnitude|as_dict|from_dict)\b",
     ("src/repro/obs/health.py",)),
    # ... and one writer: every file reaches disk through
    # repro.utils.artifacts (temp file + os.replace), and every npz
    # archive is read there too (read_npz).
    ("one artifact writer", "-E",
     r"\.write_text\(|\.write_bytes\(|savez|os\.replace\(|np\.load\(|zipfile\.ZipFile\(",
     ("src/repro", ":(exclude)src/repro/utils/artifacts.py")),
    # One step tape store, key and capture-or-replay path for meta and
    # numeric steps (Session._taped).
    ("one step tape", "-wE",
     "NUMERIC_TAPES|META_STREAMS|NumericTape|MetaStream|_step_stream"
     "|_capture_meta_step|_record_numeric_segment",
     SRC_TESTS_EXAMPLES),
    # ops funnels no caller reached, and the fail-closed list that only
    # two of them needed.
    ("ops funnels no caller reached", "-E",
     r"ops\.(maximum|negative|tanh|var|split|zeros|zeros_like)\(|TAPE_FALLBACK",
     SRC_TESTS_EXAMPLES),
    # The engine owns recompute (HybridSTOPEngine's recompute=): no serial
    # checkpointing wrapper, and no model-level switch for it.
    ("the engine owns recompute", "-wE", "CheckpointWrapper", SRC_TESTS_EXAMPLES),
    ("no nn checkpoint module", "-E",
     r"repro\.nn\.checkpoint|from repro\.nn import checkpoint", SRC_TESTS_EXAMPLES),
    ("no model-level recompute switch", MULTILINE,
     r"(build_model|ClimaXViT)\((?:[^()]|\([^()]*\))*activation_checkpointing=",
     SRC_TESTS_EXAMPLES),
    # One NIC-contention price (FrontierTopology.effective_specs) and a
    # fold proof that compares link specs only; one layout
    # (RankClassPartition.rank) that the estimator and the legality
    # check read instead of adding stage offsets by hand; the evaluator
    # scores one forecaster at a time.
    ("one NIC price, one evaluator", "-wE", "_steps_batch|PROBE_BYTES|evaluate_many",
     SRC_TESTS_EXAMPLES),
    ("the fold proof compares link specs", "", "_effective_specs",
     ("src/repro/cluster/symmetry.py",)),
    ("one rank layout", "-E", r"\* stage_size|stage_size \+",
     ("src/repro/tune/estimator.py", "src/repro/runtime/spec.py")),
    # A group's link kind is read from node_of where a test needs it,
    # and the FSDP padding has one spelling (sharding's padded_size,
    # which the estimator's FSDP twin calls).
    ("link kind from node_of", "-w", "group_link_kind", SRC_TESTS_EXAMPLES),
    ("one padding spelling", "", "ceil(", ("src/repro/tune/estimator.py",)),
    # One compute price: the GCD's fp32 peak at one efficiency.
    ("one compute price", "-wE", "peak_flops_for|MI250X_GCD_PEAK_BF16",
     SRC_TESTS_EXAMPLES),
    # `repro crossover` ranks with run_search's score_space.
    ("one ranking for crossover", "-w", "CrossoverRow", SRC_TESTS_EXAMPLES),
    # One compiled replay form (EventStream.compiled per receiver
    # signature, landed by Timeline._land); the flat-only compiler and
    # its per-rank columns are gone.
    ("one compiled replay form", "-wE", "_compile|_apply|_RankColumns|exposed_memo",
     SRC_TESTS_EXAMPLES),
    # The injector's settled pricing is the one routing predicate of a
    # compiled landing, and the registry's compiled-replay pair runs on
    # the shared all-fast run: no injector-off fast side.
    ("one routing predicate", "-F", "injector is OFF",
     ("src/repro/cluster/timeline.py",)),
    ("one routing predicate", "-F", "uninjected(", ("tests/invariants",)),
    # Every injector declares pricing: no fallback for one that does not.
    ("every injector declares pricing", "-F", "except AttributeError",
     ("src/repro/cluster/timeline.py",)),
    # One walk landing: Timeline._land_* land on the receiver hooks'
    # ledgers, and FoldedTimeline's overrides only log before them.
    ("one walk landing", "-E", r"on_(compute|comm)\(self\._reps",
     ("src/repro/cluster/timeline.py",)),
    ("no FLOP total nothing reads", "-w", "total_flops", SRC_TESTS_EXAMPLES),
    # A build registers a module's shards in one batch per FSDP group
    # (HybridModuleBase._shard, register_shards); a meta array's flat
    # shard is memoized; a tracker keeps no per-tag dataclass; the
    # FSDP structure clones are made only while FSDP is not folded.
    ("one batch per FSDP group", "-F", "group=plan.fsdp_group(", ("src/repro/core",)),
    ("one batch per FSDP group", "-w", "register_untracked", SRC_TESTS_EXAMPLES),
    ("one memoized meta shard", "-F", "flat.size // num_shards",
     ("src/repro/core/sharding.py",)),
    ("lean tracker bookkeeping", "-E", r"_Category|max\(self\._peak, self\._current\)",
     ("src/repro/memory/tracker.py",)),
    ("clones only while FSDP is not folded", "-E",
     r"clone_module_shared_params\((front|head)\)", ("src/repro/parallel/engine.py",)),
    # A traced compiled landing appends one SpanBlock: its rows are
    # built by SpanBlock.rows when first read, not zipped at landing.
    ("one span block per traced landing", "-wE", "extend_rows|compute_rows|comm_rows|free_rows",
     SRC_TESTS_EXAMPLES),
    # A signature's first replay builds its form on every receiver: no
    # walk-first marks, and no compiler that declines to build (an
    # event the walk would refuse raises at compile time).
    ("one build rule", "-wE", "_WALKED|_UNSEEN", ("src/repro/cluster",)),
    ("one build rule", "-F", "self.valid", ("src/repro/cluster/timeline.py",)),
]


def _git_grep(*argv) -> str:
    result = subprocess.run(["git", "grep", *argv], capture_output=True, text=True)
    if result.returncode > 1:
        sys.exit(f"git grep failed: {result.stderr.strip()}")
    return result.stdout


def matches(flags: str, pattern: str, paths) -> str:
    """The lines (or, for MULTILINE, the files) ``pattern`` matches."""
    if flags != MULTILINE:
        return _git_grep("-n", *filter(None, [flags]), "-e", pattern, "--", *paths)
    prefix = pattern.split(r"\(", 1)[0] + r"\("
    found = []
    for path in _git_grep("-lE", "-e", prefix, "--", *paths).split():
        with open(path, encoding="utf-8") as handle:
            if re.search(pattern, handle.read()):
                found.append(path + "\n")
    return "".join(found)


def main() -> int:
    status = 0
    for why, flags, pattern, paths in GUARDS:
        hits = matches(flags, pattern, paths)
        if hits:
            print(f"deleted ({why}) is back: {pattern}\n{hits}", end="")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
