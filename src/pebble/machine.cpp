#include "pebble/machine.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::pebble {

namespace {

constexpr std::size_t kNoNextUse = std::numeric_limits<std::size_t>::max();

/// Next-use chains of a static schedule's reference string: per step, the
/// operands are accessed, then the computed vertex.  Belady's victim
/// choice and liveness-aware write-back read the head of each chain;
/// executing a step consumes the uses it makes.
class NextUses {
 public:
  NextUses(const cdag::Cdag& cdag,
           const std::vector<graph::VertexId>& schedule)
      : head_(cdag.graph.num_vertices(), 0),
        uses_(cdag.graph.num_vertices()) {
    std::size_t time = 0;
    for (const graph::VertexId v : schedule) {
      for (const graph::VertexId u : cdag.graph.in_neighbors(v)) {
        uses_[u].push_back(time++);
      }
      uses_[v].push_back(time++);
    }
  }

  /// The next use of `v` at or after the current position.
  std::size_t next(graph::VertexId v) const {
    return head_[v] < uses_[v].size() ? uses_[v][head_[v]] : kNoNextUse;
  }

  /// Marks the current use of `v` as made; returns the following one.
  std::size_t consume(graph::VertexId v) {
    FMM_CHECK(head_[v] < uses_[v].size());
    ++head_[v];
    return next(v);
  }

 private:
  std::vector<std::size_t> head_;
  std::vector<std::vector<std::size_t>> uses_;
};

/// Fast-memory state with an ordered eviction index.
///
/// LRU keeps residents ordered by last-touch time (evict smallest);
/// Belady keeps them ordered by next-use time (evict largest, i.e. the
/// farthest next use; values never used again sort last).  Pinned
/// residents (the current step's working set) are skipped during victim
/// selection.
class Cache {
 public:
  Cache(const cdag::Cdag& cdag, const SimOptions& options)
      : cdag_(cdag), options_(options),
        in_slow_(cdag.graph.num_vertices(), false),
        resident_(cdag.graph.num_vertices(), false),
        dirty_(cdag.graph.num_vertices(), false),
        pinned_(cdag.graph.num_vertices(), 0),
        key_(cdag.graph.num_vertices(), 0),
        next_use_(cdag.graph.num_vertices(), kNoNextUse),
        is_output_(cdag.graph.num_vertices(), false),
        droppable_(cdag.graph.num_vertices(), false),
        consumers_left_(cdag.graph.num_vertices(), 0),
        computed_once_(cdag.graph.num_vertices(), false) {
    for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
      consumers_left_[v] =
          static_cast<std::uint32_t>(cdag.graph.out_degree(v));
    }
    for (const graph::VertexId v : cdag.inputs_a) {
      in_slow_[v] = true;
    }
    for (const graph::VertexId v : cdag.inputs_b) {
      in_slow_[v] = true;
    }
    for (const graph::VertexId v : cdag.outputs) {
      is_output_[v] = true;
    }
    // kDropRecomputable: a value is cheap to rematerialize iff all of its
    // operands live permanently in slow memory (they are inputs).
    for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
      if (is_output_[v] || cdag.graph.in_degree(v) == 0) {
        continue;
      }
      bool all_inputs = true;
      for (const graph::VertexId u : cdag.graph.in_neighbors(v)) {
        if (cdag.roles[u] != cdag::Role::kInputA &&
            cdag.roles[u] != cdag::Role::kInputB) {
          all_inputs = false;
          break;
        }
      }
      droppable_[v] = all_inputs;
    }
  }

  bool droppable(graph::VertexId v) const { return droppable_[v]; }

  std::int64_t evictions() const { return evictions_; }
  std::int64_t drops() const { return drops_; }

  /// Called when consumer `v` is computed for the FIRST time: each of
  /// its operands has one fewer outstanding consumer.  This gives an
  /// exact dynamic liveness signal usable even when the schedule is
  /// generated on the fly (recomputation mode), and is deterministic
  /// across dynamic generation and static replay.
  void retire_consumer_of(graph::VertexId u) {
    FMM_CHECK(consumers_left_[u] > 0);
    --consumers_left_[u];
  }

  bool provisionally_dead(graph::VertexId v) const {
    return consumers_left_[v] == 0;
  }

  bool resident(graph::VertexId v) const { return resident_[v]; }
  bool in_slow(graph::VertexId v) const { return in_slow_[v]; }
  bool computed(graph::VertexId v) const { return computed_once_[v]; }

  void set_next_use(graph::VertexId v, std::size_t at) {
    next_use_[v] = at;
    if (options_.replacement == ReplacementPolicy::kBelady && resident_[v]) {
      index_.erase({key_[v], v});
      key_[v] = at;
      index_.insert({key_[v], v});
    }
  }

  void touch(graph::VertexId v) {
    ++clock_;
    if (options_.replacement == ReplacementPolicy::kLru && resident_[v]) {
      index_.erase({key_[v], v});
      key_[v] = clock_;
      index_.insert({key_[v], v});
    }
  }

  void pin(graph::VertexId v) { ++pinned_[v]; }
  void unpin(graph::VertexId v) {
    FMM_CHECK(pinned_[v] > 0);
    --pinned_[v];
  }

  /// Inserts `v` into fast memory (must not be resident), evicting per
  /// policy as needed.
  void insert(graph::VertexId v, bool dirty, SimResult& result) {
    FMM_CHECK(!resident_[v]);
    while (occupancy_ >= options_.cache_size) {
      evict_one(result);
    }
    resident_[v] = true;
    dirty_[v] = dirty;
    ++occupancy_;
    ++clock_;
    key_[v] = options_.replacement == ReplacementPolicy::kLru ? clock_
                                                              : next_use_[v];
    index_.insert({key_[v], v});
  }

  void load(graph::VertexId v, SimResult& result) {
    FMM_CHECK_MSG(in_slow_[v], "load of value not in slow memory");
    insert(v, /*dirty=*/false, result);
    ++result.loads;
  }

  /// Executes one computation of `v`, the step both the static and the
  /// dynamic (recomputation) schedule run: load any operand not in fast
  /// memory, pin the working set, place v's result, release the
  /// operands, and on v's first computation retire it from each
  /// operand's consumer count.  `next_uses` is the static schedule's
  /// lookahead, consumed as the step makes its accesses; the dynamic
  /// schedule has none (nullptr).
  void step(graph::VertexId v, SimResult& result, NextUses* next_uses) {
    result.summary.compute_order.push_back(v);
    result.summary.io_before.push_back(result.total_io());

    const auto preds = cdag_.graph.in_neighbors(v);
    for (const graph::VertexId u : preds) {
      if (!resident(u)) {
        FMM_CHECK_MSG(in_slow(u),
                      "operand " << u << " of vertex " << v
                                 << " is neither resident nor in slow "
                                    "memory: illegal schedule (missing "
                                    "recomputation?)");
        load(u, result);
      }
      touch(u);
      pin(u);
    }
    if (!resident(v)) {
      insert(v, /*dirty=*/true, result);
    }
    touch(v);
    for (const graph::VertexId u : preds) {
      if (next_uses != nullptr) {
        set_next_use(u, next_uses->consume(u));
      }
      unpin(u);
    }
    if (next_uses != nullptr) {
      set_next_use(v, next_uses->consume(v));
    }

    ++result.computations;
    if (computed_once_[v]) {
      ++result.recomputations;
      FMM_TRACE_INSTANT("recompute", "pebble");
    } else {
      for (const graph::VertexId u : preds) {
        retire_consumer_of(u);
      }
    }
    computed_once_[v] = true;
  }

  /// Flushes outputs at the end of the run.
  void flush_outputs(SimResult& result) {
    for (const graph::VertexId v : cdag_.outputs) {
      if (!in_slow_[v]) {
        FMM_CHECK_MSG(resident_[v],
                      "output " << v << " lost (dropped and not recomputed)");
        ++result.stores;
        in_slow_[v] = true;
        dirty_[v] = false;
      }
    }
  }

 private:
  void evict_one(SimResult& result) {
    graph::VertexId victim = graph::kNoVertex;
    if (options_.replacement == ReplacementPolicy::kLru) {
      // Oldest touch first.
      for (auto it = index_.begin(); it != index_.end(); ++it) {
        if (pinned_[it->second] == 0) {
          victim = it->second;
          break;
        }
      }
    } else {
      // Farthest next use first.
      for (auto it = index_.rbegin(); it != index_.rend(); ++it) {
        if (pinned_[it->second] == 0) {
          victim = it->second;
          break;
        }
      }
    }
    FMM_CHECK_MSG(victim != graph::kNoVertex,
                  "fast memory of size " << options_.cache_size
                                         << " fully pinned: M too small");

    if (dirty_[victim]) {
      const bool keep = [&] {
        if (is_output_[victim]) {
          return true;  // outputs must survive to slow memory
        }
        switch (options_.writeback) {
          case WritebackPolicy::kWritebackLive:
            return next_use_[victim] != kNoNextUse;
          case WritebackPolicy::kDropIntermediates:
            return false;
          case WritebackPolicy::kDropRecomputable:
            // Drop cheap-to-rematerialize values outright; write back
            // other dirty values only while consumers remain (exact
            // dynamic liveness — identical in dynamic generation and
            // static replay, so schedules stay reproducible).
            return !droppable_[victim] && !provisionally_dead(victim);
        }
        return true;
      }();
      if (keep) {
        ++result.stores;
        in_slow_[victim] = true;
      } else {
        // Value dropped — recomputation will be required if reused.
        ++drops_;
        FMM_TRACE_INSTANT("drop", "pebble");
      }
    }
    ++evictions_;
    FMM_TRACE_INSTANT("evict", "pebble");
    index_.erase({key_[victim], victim});
    resident_[victim] = false;
    dirty_[victim] = false;
    --occupancy_;
  }

  const cdag::Cdag& cdag_;
  const SimOptions& options_;
  std::vector<bool> in_slow_;
  std::vector<bool> resident_;
  std::vector<bool> dirty_;
  std::vector<std::uint32_t> pinned_;
  std::vector<std::uint64_t> key_;
  std::vector<std::size_t> next_use_;
  std::vector<bool> is_output_;
  std::vector<bool> droppable_;
  std::vector<std::uint32_t> consumers_left_;
  std::vector<bool> computed_once_;
  std::set<std::pair<std::uint64_t, graph::VertexId>> index_;
  std::int64_t occupancy_ = 0;
  std::uint64_t clock_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t drops_ = 0;
};

/// Flushes one execution's tallies into the global metrics registry.
/// Hot loops only touch locals; the registry sees one add per run.
void flush_machine_metrics(const SimResult& result, const Cache& cache) {
  auto& registry = obs::Registry::instance();
  registry.counter("pebble.loads").add(result.loads);
  registry.counter("pebble.stores").add(result.stores);
  registry.counter("pebble.evictions").add(cache.evictions());
  registry.counter("pebble.drops").add(cache.drops());
  registry.counter("pebble.computations").add(result.computations);
  registry.counter("pebble.recomputations").add(result.recomputations);
  registry.counter("pebble.simulations").increment();
}

}  // namespace

SimResult simulate(const cdag::Cdag& cdag,
                   const std::vector<graph::VertexId>& schedule,
                   const SimOptions& options) {
  FMM_CHECK(options.cache_size >= 2);
  FMM_TRACE_SPAN("pebble.simulate", "pebble");
  SimResult result;
  Cache cache(cdag, options);

  NextUses next_uses(cdag, schedule);
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    cache.set_next_use(v, next_uses.next(v));
  }
  result.summary.compute_order.reserve(schedule.size());
  result.summary.io_before.reserve(schedule.size());
  for (const graph::VertexId v : schedule) {
    cache.step(v, result, &next_uses);
  }

  for (const graph::VertexId v : cdag.outputs) {
    FMM_CHECK_MSG(cache.computed(v),
                  "schedule never computes output vertex " << v);
  }

  cache.flush_outputs(result);
  result.summary.total_io = result.total_io();
  result.weighted_io =
      options.read_cost * result.loads + options.write_cost * result.stores;
  flush_machine_metrics(result, cache);
  return result;
}

namespace {

/// Dynamic-schedule executor for the maximal-recomputation regime.
class RecomputeRunner {
 public:
  RecomputeRunner(const cdag::Cdag& cdag, const SimOptions& options,
                  std::int64_t max_computations)
      : cdag_(cdag), options_(options), max_computations_(max_computations),
        cache_(cdag, options) {}

  SimResult run(const std::vector<graph::VertexId>& base_order) {
    FMM_TRACE_SPAN("pebble.simulate_with_recomputation", "pebble");
    for (const graph::VertexId v : base_order) {
      if (!cache_.computed(v)) {
        compute(v, /*depth=*/0);
      }
    }
    // Outputs are written back on eviction (never dropped), so they are
    // all available here; flush_outputs stores any still dirty.
    cache_.flush_outputs(result_);
    result_.summary.total_io = result_.total_io();
    result_.weighted_io = options_.read_cost * result_.loads +
                          options_.write_cost * result_.stores;
    flush_machine_metrics(result_, cache_);
    return std::move(result_);
  }

 private:
  void compute(graph::VertexId v, int depth) {
    FMM_CHECK_MSG(depth < 256, "recomputation recursion too deep");
    FMM_CHECK_MSG(result_.computations < max_computations_,
                  "recomputation thrash: exceeded "
                      << max_computations_
                      << " computations; increase M or the limit");
    const auto& preds = cdag_.graph.in_neighbors(v);
    // Bring every operand back into existence first (recursively); then
    // re-check, since a later recomputation may have evicted an earlier
    // operand again.
    for (int round = 0; round < 64; ++round) {
      bool all_available = true;
      for (const graph::VertexId u : preds) {
        if (!cache_.resident(u) && !cache_.in_slow(u)) {
          compute(u, depth + 1);
          all_available = false;  // re-verify from the top
        }
      }
      if (all_available) {
        break;
      }
      FMM_CHECK_MSG(round + 1 < 64,
                    "operands of vertex " << v
                                          << " keep thrashing: M too small");
    }

    cache_.step(v, result_, /*next_uses=*/nullptr);
  }

  const cdag::Cdag& cdag_;
  const SimOptions& options_;
  std::int64_t max_computations_;
  Cache cache_;
  SimResult result_;
};

}  // namespace

SimResult simulate_with_recomputation(
    const cdag::Cdag& cdag, const std::vector<graph::VertexId>& base_order,
    const SimOptions& options, std::int64_t max_computations) {
  FMM_CHECK_MSG(options.replacement == ReplacementPolicy::kLru,
                "recomputation mode requires LRU (no lookahead exists)");
  FMM_CHECK_MSG(options.writeback == WritebackPolicy::kDropIntermediates ||
                    options.writeback == WritebackPolicy::kDropRecomputable,
                "recomputation mode requires a dropping write-back policy");
  return RecomputeRunner(cdag, options, max_computations).run(base_order);
}

std::int64_t trivial_io_floor(const cdag::Cdag& cdag) {
  return static_cast<std::int64_t>(cdag.inputs_a.size() +
                                   cdag.inputs_b.size() +
                                   cdag.outputs.size());
}

}  // namespace fmm::pebble
