// Crash-tolerant JSON checkpointing for long-running sweeps.
//
// A checkpoint is a JSON-lines file: one header object naming the spec
// fingerprint it belongs to, then one completed task row per line, in
// COMPLETION order (which may differ run-to-run — only the final report
// is deterministic, not the order cells finish).  The format is designed
// around `kill -9` semantics:
//
//   - rows are appended and flushed in small batches, so a killed sweep
//     loses at most the unflushed tail;
//   - a torn final line (the kill landed mid-write) is detected and
//     ignored by the loader instead of poisoning the resume;
//   - the header's fingerprint (FNV-1a over the deterministic spec JSON)
//     refuses resumption under a different spec, where restored rows
//     would silently disagree with the enumerated grid.
//
// Lines are read back with common/json's parser, which keeps number
// tokens raw so full-range uint64 task seeds round-trip exactly.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace fmm::resilience {

/// Append-mode checkpoint writer.  Construction truncates `path` and
/// writes the header line; append_row buffers rows and flushes every
/// `flush_every` rows (and on destruction).  Thread-compatible, not
/// thread-safe: the sweep engine serializes access behind its own mutex.
///
/// With `replace_atomically`, construction instead truncates a sibling
/// temporary (`path` + ".tmp") and `path` itself is untouched until
/// publish() renames the temporary over it — so a kill at any point
/// before publish() leaves the previous checkpoint intact.  Used by
/// --resume, which must re-seed restored rows without a window where
/// the old file is truncated but the new one not yet durable.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, const std::string& header_json,
                   std::size_t flush_every = 1,
                   bool replace_atomically = false);
  ~CheckpointWriter();

  void append_row(const std::string& row_json);
  void flush();
  /// With replace_atomically: flushes, then atomically renames the
  /// temporary onto `path`; the open stream keeps appending to the
  /// renamed file.  Call once the rows that must survive a crash are
  /// appended.  No-op otherwise (or on a second call).
  void publish();
  std::size_t rows_written() const { return rows_written_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::string write_path_;
  bool published_ = true;
  std::size_t flush_every_ = 1;
  std::size_t pending_ = 0;
  std::size_t rows_written_ = 0;
};

/// A loaded checkpoint: parsed header plus parsed rows.  A torn final
/// line is dropped silently (`truncated_tail` reports it happened).
struct CheckpointFile {
  JsonValue header;
  std::vector<JsonValue> rows;
  /// The verbatim source line of each row (same indexing as `rows`), for
  /// callers that assert byte-exact round-trips.
  std::vector<std::string> raw_rows;
  bool truncated_tail = false;
};

/// Loads `path`; throws CheckError when the file is missing or the
/// header line is unreadable.
CheckpointFile load_checkpoint(const std::string& path);

}  // namespace fmm::resilience
