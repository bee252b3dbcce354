// Per-layer replays for the traced run: the benchmark calls each layer's
// public functions on the workload's own inputs, inside spans named after
// the layer, so each layer's host time is measured where its work happens.
#pragma once

#include <cstdint>

#include "spans.h"
#include "workloads.h"

namespace layerbench {

/// Work counts of one replay pass (the times come from the spans).
struct ReplayCounts {
  std::uint64_t formats = 0;         ///< distinct error formats memoized
  std::uint64_t cache_ops = 0;       ///< policy calls replayed
  std::uint64_t cache_lookups = 0;   ///< request() calls among them
  std::uint64_t cache_hits = 0;      ///< request() hits
  std::uint64_t fold_bytes = 0;      ///< source bytes folded by XOR
  std::uint64_t byte_mismatches = 0; ///< rebuilt chunks differing from truth
};

/// Replays the recovery, cache and codes layers over `run`'s trace:
///  - recovery: SchemeCache::get per trace error ("recovery.scheme"),
///    build_request_sequence per stripe ("recovery.sequence"),
///    plan_partial_stripe_write per app write ("recovery.write_plan");
///  - sim: ArrayGeometry::chunk_key over the access stream
///    ("sim.chunk_keys");
///  - cache: make_policy plus request/install over the recovery stream at
///    the engine's cache capacity, and request/write over the app stream
///    through a write cache when the workload has one ("cache.replay");
///  - codes: per block of stripes, fill + encode ("codes.encode"), the
///    scheme's chain folds through FoldBatch/xor_fold_batch
///    ("codes.fold") and decode_erasures on the lost cells
///    ("codes.decode"), then a byte check against the encoded truth
///    ("bench.check").
ReplayCounts replay_layers(const PreparedRun& run, SpanRecorder* rec);

}  // namespace layerbench
