// Per-trial persistence for campaigns: the JSONL record stream that makes
// runs crash-safe, resumable, and shardable across machines.
//
// A record file is one header line (the campaign's spec fingerprint: base
// seed, trials per point, and the expanded grid) followed by one line per
// completed trial. Trials carry their grid position, so record order is
// irrelevant — workers append as they finish, k shard machines write k
// disjoint files, and netcons_merge folds any set of files for the same
// fingerprint back into the exact summary a single-process run produces.
//
// Crash model: the sink flushes after every line, so a killed run loses at
// most the line being written. Loaders therefore discard an unterminated
// final line (the partial write) and redo that trial; a malformed line
// anywhere *else* in a file is corruption and a hard error.
#pragma once

#include "campaign/campaign.hpp"

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netcons::campaign {

/// The spec fingerprint written at the head of every record file. Two
/// record files interoperate (merge, resume) iff their headers are equal.
struct CampaignHeader {
  std::uint64_t base_seed = 1;
  int trials = 0;
  std::vector<GridPoint> points;

  [[nodiscard]] static CampaignHeader describe(const CampaignSpec& spec);
  [[nodiscard]] bool operator==(const CampaignHeader&) const = default;
};

/// One completed trial, as streamed to disk.
struct TrialRecord {
  std::size_t point = 0;  ///< Grid-point index (into CampaignHeader::points).
  int trial = 0;          ///< Trial index within the point.
  std::uint64_t seed = 0; ///< The position-derived per-trial seed.
  TrialOutcome outcome;
};

/// Serialize to one JSONL line (no trailing newline).
[[nodiscard]] std::string header_line(const CampaignHeader& header);
[[nodiscard]] std::string record_line(const TrialRecord& record);

/// Parse one line (a view, so loaders can slice a whole-file buffer
/// without per-line copies). Throws std::runtime_error on malformed input.
[[nodiscard]] CampaignHeader parse_header_line(std::string_view line);
[[nodiscard]] TrialRecord parse_record_line(std::string_view line);

/// Empty string when the headers match; otherwise a human-readable
/// description naming the first differing field (e.g. "points[2].n:
/// records say 16, campaign says 32").
[[nodiscard]] std::string header_mismatch(const CampaignHeader& expected,
                                          const CampaignHeader& found);

/// Record file name for shard `shard_index` of `shard_count`, generation
/// `generation` (how many earlier invocations wrote records for this shard
/// into the directory). Zero-padded so lexicographic order equals scan
/// order: later generations sort after earlier ones and last-wins
/// deduplication picks up the freshest record.
[[nodiscard]] std::string record_file_name(int shard_index, int shard_count, int generation);

/// First generation number for which record_file_name does not yet exist
/// in `dir` (a resumed invocation writes a fresh file rather than
/// appending behind a possibly-truncated final line).
[[nodiscard]] int next_generation(const std::string& dir, int shard_index, int shard_count);

/// Streaming JSONL writer: header on construction, then one line per
/// record, flushed per line. Thread-safe (the campaign engine calls write
/// from its workers). Throws std::runtime_error if the file cannot be
/// opened or a write fails.
class TrialRecordSink {
 public:
  TrialRecordSink(const std::string& path, const CampaignHeader& header);

  void write(const TrialRecord& record);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ofstream file_;
  std::mutex mutex_;
};

/// Pull-based streaming reader over a set of record files. Inputs are
/// files and/or directories; a directory contributes its *.jsonl files in
/// sorted name order (== generation order, record_file_name zero-pads).
/// Every file's header must carry the same spec fingerprint; a mismatch is
/// a hard error naming the differing field. Records stream one line at a
/// time, so peak memory is one line — never the record set — which is what
/// lets netcons_report walk million-trial streams. Deduplication is the
/// caller's job (the reader reports scan order; last-wins is a property of
/// how the caller folds it).
class TrialRecordReader {
 public:
  explicit TrialRecordReader(const std::vector<std::string>& inputs);

  /// Pre-seed the expected fingerprint (resume, or validating records
  /// against a live spec): every file header must then match `header`.
  void expect_header(const CampaignHeader& header);

  /// Next record in scan order; std::nullopt at end of stream. Throws
  /// std::runtime_error on unreadable files, malformed headers/records,
  /// header mismatches, and records outside the campaign grid.
  [[nodiscard]] std::optional<TrialRecord> next();

  /// Fingerprint of the first non-empty file; unset until one was read.
  [[nodiscard]] const std::optional<CampaignHeader>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] std::size_t files() const noexcept { return files_; }
  [[nodiscard]] std::size_t records() const noexcept { return records_; }
  [[nodiscard]] std::size_t discarded_partial() const noexcept { return discarded_partial_; }

 private:
  /// True when a line was produced; false at end of the current file.
  bool next_line(std::string& line);

  std::vector<std::string> paths_;
  std::size_t path_index_ = 0;
  std::unique_ptr<std::ifstream> file_;
  std::size_t line_number_ = 0;
  std::optional<CampaignHeader> header_;
  std::size_t files_ = 0;
  std::size_t records_ = 0;
  std::size_t discarded_partial_ = 0;
};

/// Accumulated result of scanning record files.
struct LoadedRecords {
  /// Fingerprint of the first file scanned; every later file must match.
  std::optional<CampaignHeader> header;
  /// Last-wins per (point, trial) across scan order (files sorted by name,
  /// lines in file order).
  OutcomeMap outcomes;
  std::size_t files = 0;
  std::size_t records = 0;            ///< Lines parsed (including duplicates).
  std::size_t duplicates = 0;         ///< Records that overwrote an earlier one.
  std::size_t discarded_partial = 0;  ///< Unterminated final lines dropped.
};

/// Scan `path` — a single record file, or a directory whose *.jsonl files
/// are read in sorted name order — into `into`. When `into.header` is
/// already set (by a previous call, or pre-seeded with
/// CampaignHeader::describe for resume), every file's header must match it:
/// a mismatch is a hard error (std::runtime_error) naming the differing
/// field. Record indices outside the header's grid are hard errors too.
void load_records(const std::string& path, LoadedRecords& into);

/// The one resume-preload path shared by every surface that restarts a
/// campaign from its record directory (netcons_campaign --resume, the
/// serve-layer Scheduler): scan `dir` validated against `header` — a spec
/// mismatch is a hard error naming the differing field, never a silent
/// reuse of a different campaign's trials — and return the last-wins
/// outcome map. A missing directory resumes nothing (empty map), so first
/// runs and restarts share one call site.
[[nodiscard]] OutcomeMap load_resume_outcomes(const std::string& dir,
                                              const CampaignHeader& header);

/// What a compaction pass did (counts are over the whole input scan).
struct CompactionResult {
  CampaignHeader header;
  std::size_t files = 0;              ///< Input files scanned.
  std::size_t records = 0;            ///< Input lines parsed.
  std::size_t duplicates = 0;         ///< Records superseded by a later one.
  std::size_t discarded_partial = 0;  ///< Unterminated final lines dropped.
  std::size_t written = 0;            ///< Deduplicated records written out.
};

/// Fold any set of record files/directories — shard files, resume
/// generations, earlier compactions — into one deduplicated stream at
/// `output_path`: header, then every winning record (last-wins in scan
/// order) sorted by (point, trial). The order is canonical, so compacting
/// the same record set always yields the same bytes and compacting a
/// compacted file reproduces it exactly (a fixed point). Partial streams
/// compact fine; completeness is a merge/report concern, not a compaction
/// one. With `expected`, every input header must match it (resume-style
/// validation). Throws std::runtime_error on empty input sets, mismatched
/// headers, corruption, or write failure.
CompactionResult compact_records(const std::vector<std::string>& inputs,
                                 const std::string& output_path,
                                 const CampaignHeader* expected = nullptr);

}  // namespace netcons::campaign
