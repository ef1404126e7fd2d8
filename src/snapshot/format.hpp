// fmm.snap v1 — versioned, mmap-able binary snapshots of frozen CDAGs.
//
// A snapshot serializes one frozen cdag::Cdag (ROADMAP item 4(a)) into
// offsets-only flat sections so a reader can reconstruct the CDAG as
// span views DIRECTLY over an mmap-ed file: no pointers, no per-element
// decoding, no allocation proportional to the graph.  The layout:
//
//   [ 64-byte header ]
//     bytes  0..8   magic "fmm.snap"
//     bytes  8..12  format version (u32, currently 1)
//     bytes 12..16  endianness tag (u32 0x01020304 in the WRITER's byte
//                   order; a reader seeing it byte-swapped refuses the
//                   file rather than translating)
//     bytes 16..24  total file length in bytes (u64)
//     bytes 24..28  section count (u32)
//     bytes 28..32  reserved (must be 0)
//     bytes 32..40  section-table checksum (u64, snap_checksum over the
//                   table bytes)
//     bytes 40..48  reserved (must be 0)
//     bytes 48..56  header checksum (u64, snap_checksum over bytes
//                   [0, 48))
//     bytes 56..64  zero padding (must be 0)
//   [ section table ]  section_count x 32-byte entries:
//     u32 kind, u32 level, u64 offset, u64 length, u64 checksum
//   [ sections ]  each starting at a 64-byte-aligned offset, in the
//     fixed canonical order below, padded with zero bytes; every byte
//     of the file is therefore covered by exactly one of {header
//     checksum, table checksum, a section checksum, must-be-zero
//     padding} — any single corrupted byte is detectable.
//
// Canonical section order (kinds in parentheses):
//   meta(0), level_meta(1), out_offsets(2), in_offsets(3),
//   out_edges(4), in_edges(5), roles(6), inputs_a(7), inputs_b(8),
//   outputs(9), then per sub-problem level (ascending r):
//   output_pool(10), input_pool(11), span_begin(12), span_end(13)
//   with the level index in the entry's `level` field.
//
// The meta section is seven u64 fields — n, base, num_products,
// num_vertices, num_edges, num_levels, algorithm-name length — followed
// by the name bytes; level_meta is num_levels x {u64 r, u64 count}.
// Array sections are the raw little-endian u32 arrays (u8 for roles) in
// the exact in-memory layout of CsrGraph / SubproblemLevel.
//
// Checksum (snap_checksum): 8-lane FNV-1a-64 folded over 64-bit words.
// Lane j starts at (kFnvShortBasis ^ (j+1)) — common/hash.hpp's offset
// basis one digit short, kept because checksums are persisted; blocks
// of 64 bytes feed word w_j (bytes [8j, 8j+8) of the block, writer byte
// order) into lane j as h = (h ^ w_j) * FNV prime; trailing bytes fold
// byte-wise into lane 0; the lanes then fold into a fresh basis in
// order, followed by the byte length.  The lanes exist purely for speed (a single FNV
// chain is latency-bound at ~1 byte/cycle; eight interleaved chains
// verify at memory bandwidth) — the result is still deterministic and
// byte-order-pinned by the header's endianness tag.
//
// Verification policy: Verify::kFull (the SnapshotStore default)
// re-derives every section checksum and re-validates the structural
// invariants (monotone offsets, in-range topologically ordered edges,
// in-range pool/input/output ids) — any corrupt, truncated or
// version-mismatched file is refused with a one-line CheckError and
// never dereferenced out of bounds.  Verify::kMapped checks the
// header, section table, layout, metadata sections and the small
// id-list sections but maps the large flat sections WITHOUT reading
// them — the O(1) cold-start path for files whose integrity was
// already established (the store verifies at publish; see
// docs/SNAPSHOTS.md for the trust model).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "cdag/cdag.hpp"

namespace fmm::snapshot {

inline constexpr char kMagic[8] = {'f', 'm', 'm', '.', 's', 'n', 'a', 'p'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kSectionAlignment = 64;

/// Multi-lane FNV-1a-64 (see the format comment for the exact folding
/// rule).  Deterministic for a given byte string on a given endianness.
std::uint64_t snap_checksum(const void* data, std::size_t size);

enum class Verify {
  /// Every section checksum plus full structural validation; refuses
  /// any corrupt/truncated/tampered file.  The SnapshotStore load path.
  kFull,
  /// Header/table/layout/metadata verification only; large flat
  /// sections are mapped, not read — O(1) in the graph size.  For
  /// files whose integrity was established out of band.
  kMapped,
};

/// Serializes a frozen CDAG into fmm.snap v1 bytes.
std::string serialize_snapshot(const cdag::Cdag& cdag);

/// Validates `bytes` and reconstructs the CDAG as zero-copy views over
/// them; `keep_alive` (e.g. the mmap handle) is retained by every view.
/// Throws a one-line CheckError on any refused input.
cdag::Cdag deserialize_snapshot(std::span<const std::byte> bytes,
                                std::shared_ptr<const void> keep_alive,
                                Verify verify = Verify::kFull);

/// serialize_snapshot + binary write to `path` (not atomic — the
/// SnapshotStore wraps this in tmp-then-rename publish).
void write_snapshot_file(const cdag::Cdag& cdag, const std::string& path);

/// mmaps `path` (falling back to a buffered read off POSIX) and
/// deserializes with the given verification policy.  The mapping stays
/// alive for as long as any view into the returned Cdag does.
cdag::Cdag load_snapshot_file(const std::string& path,
                              Verify verify = Verify::kFull);

}  // namespace fmm::snapshot
