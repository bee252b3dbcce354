#include "replay.h"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "cache/policy.h"
#include "codes/codec.h"
#include "recovery/request_sequence.h"
#include "recovery/scheme_cache.h"
#include "recovery/write_plan.h"
#include "util/rng.h"

namespace layerbench {

namespace {

using fbf::codes::Cell;
using fbf::recovery::ChunkOp;
using fbf::recovery::RecoveryScheme;

using Schemes = std::vector<std::shared_ptr<const RecoveryScheme>>;

/// Stripes per codes-replay block: bounds the replay's stripe buffers.
constexpr std::size_t kCodesBlock = 256;

/// One replayed policy call.
struct Access {
  enum class Op : std::uint8_t { Request, Install, Write };
  fbf::cache::Key key = 0;
  std::uint8_t priority = 1;
  Op op = Op::Request;
};

void replay_codes(const PreparedRun& run, const Schemes& schemes,
                  SpanRecorder* rec, ReplayCounts& out) {
  const fbf::codes::Layout& layout = run.layout;
  // The engines' verification chunk size.
  const std::size_t chunk_bytes =
      fbf::sim::ReconstructionConfig{}.verify_chunk_bytes;
  for (std::size_t begin = 0; begin < run.errors.size();
       begin += kCodesBlock) {
    const std::size_t end = std::min(run.errors.size(), begin + kCodesBlock);
    std::vector<std::unique_ptr<fbf::codes::StripeData>> truth;
    std::vector<std::unique_ptr<fbf::codes::StripeData>> folded;
    std::vector<std::unique_ptr<fbf::codes::StripeData>> decoded;
    {
      ScopedSpan span(rec, "codes.encode");
      for (std::size_t i = begin; i < end; ++i) {
        auto t = std::make_unique<fbf::codes::StripeData>(layout,
                                                          chunk_bytes);
        fbf::util::Rng rng(0x5eedull ^ run.errors[i].stripe);
        t->fill_random(rng);
        fbf::codes::encode(*t);
        auto f = std::make_unique<fbf::codes::StripeData>(*t);
        for (const Cell& c : run.errors[i].error.cells()) {
          f->erase(c);
        }
        decoded.push_back(std::make_unique<fbf::codes::StripeData>(*f));
        folded.push_back(std::move(f));
        truth.push_back(std::move(t));
      }
    }
    {
      // One batch per stripe, flushed at the stripe's end, as the SOR
      // engine's verify path does per worker stripe.
      ScopedSpan span(rec, "codes.fold");
      fbf::codes::FoldBatch batch;
      std::vector<std::span<const std::byte>> srcs;
      for (std::size_t i = begin; i < end; ++i) {
        fbf::codes::StripeData& s = *folded[i - begin];
        for (const auto& step : schemes[i]->steps) {
          srcs.clear();
          for (const Cell& c : layout.chain(step.chain_id).cells) {
            if (c != step.target) {
              srcs.push_back(s.chunk(c));
            }
          }
          batch.add(s.chunk(step.target), srcs);
          out.fold_bytes += srcs.size() * chunk_bytes;
        }
        batch.flush();
      }
    }
    {
      ScopedSpan span(rec, "codes.decode");
      for (std::size_t i = begin; i < end; ++i) {
        const auto result = fbf::codes::decode_erasures(
            *decoded[i - begin], run.errors[i].error.cells());
        out.byte_mismatches += result.ok ? 0 : 1;
      }
    }
    ScopedSpan span(rec, "bench.check");
    for (std::size_t i = begin; i < end; ++i) {
      for (const Cell& c : run.errors[i].error.cells()) {
        const auto want = truth[i - begin]->chunk(c);
        for (const auto* got : {&folded[i - begin], &decoded[i - begin]}) {
          const auto have = (*got)->chunk(c);
          out.byte_mismatches +=
              std::equal(have.begin(), have.end(), want.begin()) ? 0 : 1;
        }
      }
    }
  }
}

}  // namespace

ReplayCounts replay_layers(const PreparedRun& run, SpanRecorder* rec) {
  const fbf::core::ExperimentConfig& cfg = run.config;
  const fbf::codes::Layout& layout = run.layout;
  ReplayCounts out;

  fbf::recovery::SchemeCache scheme_cache(layout);
  Schemes schemes;
  {
    ScopedSpan span(rec, "recovery.scheme");
    schemes.reserve(run.errors.size());
    for (const auto& e : run.errors) {
      schemes.push_back(scheme_cache.get(e.error, cfg.scheme));
    }
  }
  out.formats = scheme_cache.size();

  // One op list per format feeds the cache replay's access stream.
  std::map<const RecoveryScheme*, std::vector<ChunkOp>> ops_by_scheme;
  std::size_t sequence_ops = 0;
  {
    ScopedSpan span(rec, "recovery.sequence");
    std::vector<ChunkOp> ops;
    for (const auto& s : schemes) {
      fbf::recovery::build_request_sequence(layout, *s, ops);
      sequence_ops += ops.size();
      ops_by_scheme.try_emplace(s.get(), ops);
    }
  }

  {
    ScopedSpan span(rec, "recovery.write_plan");
    std::unordered_map<std::uint64_t, const fbf::recovery::PartialStripeError*>
        damaged_by_stripe;
    for (const auto& e : run.errors) {
      damaged_by_stripe.emplace(e.stripe, &e.error);
    }
    const fbf::recovery::CellPredicate cached = [](Cell) { return false; };
    for (const auto& r : run.app) {
      if (r.is_read) {
        continue;
      }
      const auto it = damaged_by_stripe.find(r.stripe);
      const fbf::recovery::CellPredicate damaged = [&](Cell c) {
        return it != damaged_by_stripe.end() && c.col == it->second->col &&
               c.row >= it->second->first_row &&
               c.row < it->second->first_row + it->second->num_chunks;
      };
      fbf::recovery::plan_partial_stripe_write(layout, r.cell, cached,
                                               damaged);
    }
  }

  std::vector<Access> stream;
  std::vector<Access> app_stream;
  {
    ScopedSpan span(rec, "sim.chunk_keys");
    stream.reserve(sequence_ops);
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
      const std::uint64_t stripe = run.errors[i].stripe;
      for (const ChunkOp& op : ops_by_scheme.at(schemes[i].get())) {
        stream.push_back({run.geometry.chunk_key(stripe, op.cell), op.priority,
                          op.kind == fbf::recovery::OpKind::Read
                              ? Access::Op::Request
                              : Access::Op::Install});
      }
    }
    if (cfg.write_cache_chunks > 0) {
      app_stream.reserve(run.app.size());
      for (const auto& r : run.app) {
        app_stream.push_back({run.geometry.chunk_key(r.stripe, r.cell), 1,
                              r.is_read ? Access::Op::Request
                                        : Access::Op::Write});
      }
    }
  }

  {
    ScopedSpan span(rec, "cache.replay");
    const std::size_t capacity =
        cfg.engine == fbf::core::EngineKind::Dor
            ? dor_config(cfg).cache_capacity_chunks()
            : sor_config(cfg).per_worker_capacity();
    auto replay = [&out](fbf::cache::CachePolicy& policy,
                         const std::vector<Access>& accesses) {
      for (const Access& a : accesses) {
        switch (a.op) {
          case Access::Op::Request:
            out.cache_hits += policy.request(a.key, a.priority) ? 1 : 0;
            ++out.cache_lookups;
            break;
          case Access::Op::Install:
            policy.install(a.key, a.priority);
            break;
          case Access::Op::Write:
            policy.write(a.key, a.priority);
            break;
        }
      }
      out.cache_ops += accesses.size();
    };
    replay(*fbf::cache::make_policy(cfg.policy, capacity), stream);
    if (!app_stream.empty()) {
      replay(*fbf::cache::make_policy(cfg.policy, cfg.write_cache_chunks),
             app_stream);
    }
  }

  replay_codes(run, schemes, rec, out);
  return out;
}

}  // namespace layerbench
