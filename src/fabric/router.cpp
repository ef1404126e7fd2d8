#include "fabric/router.hpp"

#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/timing.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault.hpp"
#include "service/protocol.hpp"

namespace fmm::fabric {

using service::Op;
using service::ProtocolError;
using service::Request;

namespace {

bool blank(const std::string& line) {
  for (const char ch : line) {
    if (ch != ' ' && ch != '\t' && ch != '\r') {
      return false;
    }
  }
  return true;
}

// Responses open with {"id": X, "ok": true|false, ...}; the first
// "ok" key is the envelope's.
bool response_is_ok(const std::string& response) {
  const auto pos = response.find("\"ok\": ");
  return pos != std::string::npos &&
         response.compare(pos + 6, 4, "true") == 0;
}

}  // namespace

/// One routed request in flight: the verbatim line (resent as-is on
/// requeue — idempotent by the canonical byte-identity contract), its
/// routing key, and the cross-worker retry budget.
struct Router::Job {
  std::size_t seq = 0;
  std::string line;
  std::string canonical;
  bool has_id = false;
  std::int64_t id = 0;
  resilience::RetryState retry;
};

struct Router::Slot {
  // The channel is serialized behind channel_mutex (dispatcher RPCs vs
  // heartbeat probes); queue/tally/respawns_left live under the
  // router-wide mutex_.
  std::unique_ptr<Channel> channel;
  std::mutex channel_mutex;
  std::deque<Job> queue;
  WorkerTally tally;
  int respawns_left = 0;
  std::thread dispatcher;
  obs::Histogram* latency = nullptr;
};

Router::Router(FabricConfig config, Transport& transport)
    : config_(std::move(config)), transport_(transport) {
  FMM_CHECK_MSG(config_.num_workers >= 1,
                "fabric needs at least one worker, got "
                    << config_.num_workers);
  FMM_CHECK_MSG(config_.worker_queue_depth >= 1,
                "fabric worker_queue_depth must be >= 1, got "
                    << config_.worker_queue_depth);
  FMM_CHECK_MSG(config_.max_respawns >= 0,
                "fabric max_respawns must be >= 0, got "
                    << config_.max_respawns);
  FMM_CHECK_MSG(config_.heartbeat_interval_ms >= 0,
                "fabric heartbeat_interval_ms must be >= 0, got "
                    << config_.heartbeat_interval_ms);
  resilience::validate(config_.retry);
  validate(config_.chaos);
}

Router::~Router() = default;

std::size_t Router::pick_worker(const std::string& canonical,
                                const std::vector<bool>& alive) {
  const std::uint64_t key = fnv1a64(canonical, kFnvShortBasis);
  std::uint64_t best_weight = 0;
  std::size_t best = alive.size();
  for (std::size_t k = 0; k < alive.size(); ++k) {
    if (!alive[k]) {
      continue;
    }
    const std::uint64_t weight = resilience::splitmix64(key, k);
    if (best == alive.size() || weight > best_weight) {
      best_weight = weight;
      best = k;
    }
  }
  FMM_CHECK_MSG(best < alive.size(),
                "rendezvous hash called with no alive workers");
  return best;
}

bool Router::probe(Channel& channel) {
  if (!channel.send_line("{\"op\": \"ping\"}")) {
    return false;
  }
  std::string response;
  if (!channel.recv_line(&response)) {
    return false;
  }
  return response.find("\"pong\": true") != std::string::npos;
}

int Router::alive_count() const {
  int alive = 0;
  for (const auto& slot : slots_) {
    if (slot->tally.alive) {
      ++alive;
    }
  }
  return alive;
}

bool Router::ensure_worker(std::size_t k) {
  Slot& slot = *slots_[k];
  const std::scoped_lock channel_lock(slot.channel_mutex);
  for (;;) {
    {
      const std::scoped_lock lock(mutex_);
      if (slot.respawns_left <= 0) {
        return false;
      }
      --slot.respawns_left;
    }
    if (slot.channel) {
      slot.channel->kill();
      slot.channel.reset();
    }
    slot.channel = transport_.connect(k);
    if (probe(*slot.channel)) {
      {
        const std::scoped_lock lock(mutex_);
        ++slot.tally.respawns;
        ++stats_.respawns;
      }
      obs::Registry::instance().counter("fabric.respawns").increment();
      return true;
    }
    slot.channel->kill();
    slot.channel.reset();
  }
}

void Router::mark_dead(std::size_t k) {
  std::int64_t dead = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (slots_[k]->tally.alive) {
      slots_[k]->tally.alive = false;
      ++stats_.dead_workers;
    }
    dead = stats_.dead_workers;
  }
  obs::Registry::instance().gauge("fabric.dead_workers").set(dead);
}

void Router::deliver_routed(std::size_t seq, std::string response,
                            bool response_ok, OrderedEmitter<>& emit) {
  bool finished = false;
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.responded;
    if (response_ok) {
      ++stats_.ok;
    } else {
      ++stats_.errors;
    }
    ++jobs_finished_;
    if (input_done_ && jobs_finished_ == jobs_admitted_) {
      all_done_ = true;
      finished = true;
    }
  }
  emit.push(seq, std::move(response));
  if (finished) {
    work_cv_.notify_all();
  }
}

void Router::reroute(Job job, OrderedEmitter<>& emit) {
  const std::size_t seq = job.seq;
  const bool has_id = job.has_id;
  const std::int64_t id = job.id;
  bool found = false;
  {
    const std::scoped_lock lock(mutex_);
    std::vector<bool> alive(slots_.size());
    bool any = false;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      alive[k] = slots_[k]->tally.alive;
      any = any || alive[k];
    }
    if (any) {
      // Rendezvous over the survivors; depth limits do not apply to
      // rescue traffic (shedding happens at admission only).
      slots_[pick_worker(job.canonical, alive)]->queue.push_back(
          std::move(job));
      found = true;
    } else {
      ++stats_.gave_up;
      ++stats_.unroutable;
    }
  }
  if (found) {
    work_cv_.notify_all();
    return;
  }
  deliver_routed(
      seq,
      service::error_response(has_id, id,
                              "internal_error: fabric: no alive workers"),
      false, emit);
}

void Router::process_job(std::size_t k, Job job,
                         OrderedEmitter<>& emit) {
  Slot& slot = *slots_[k];
  auto& registry = obs::Registry::instance();
  for (;;) {
    bool alive = false;
    std::int64_t dispatched_before = 0;
    {
      const std::scoped_lock lock(mutex_);
      alive = slot.tally.alive;
      dispatched_before = slot.tally.dispatched;
    }
    if (!alive) {
      reroute(std::move(job), emit);
      return;
    }
    // Seeded chaos: hard-kill this worker right before its scheduled
    // send — the attempt below then fails and takes the supervision
    // path for real.
    if (chaos_ && chaos_->should_kill(k, dispatched_before)) {
      {
        const std::scoped_lock channel_lock(slot.channel_mutex);
        if (slot.channel) {
          slot.channel->kill();
        }
      }
      {
        const std::scoped_lock lock(mutex_);
        ++stats_.kills_injected;
      }
      registry.counter("fabric.kills_injected").increment();
    }
    std::string response;
    bool rpc_ok = false;
    std::int64_t attempt_ns = 0;
    {
      const std::scoped_lock channel_lock(slot.channel_mutex);
      {
        const std::scoped_lock lock(mutex_);
        ++slot.tally.dispatched;
      }
      const Stopwatch attempt_timer;
      rpc_ok = slot.channel && slot.channel->send_line(job.line) &&
               slot.channel->recv_line(&response);
      attempt_ns = attempt_timer.nanoseconds();
    }
    bool dropped = false;
    if (rpc_ok && chaos_ &&
        chaos_->should_drop_response(job.seq, job.retry.attempts)) {
      // The worker answered but the answer is "lost in transit".  The
      // channel stays in sync (the response was consumed), so the
      // retry resends on the same worker without a respawn.
      dropped = true;
      rpc_ok = false;
      response.clear();
      {
        const std::scoped_lock lock(mutex_);
        ++stats_.dropped_responses;
      }
      registry.counter("fabric.dropped_responses").increment();
    }
    if (rpc_ok) {
      slot.latency->record(attempt_ns);
      const bool ok = response_is_ok(response);
      {
        const std::scoped_lock lock(mutex_);
        ++slot.tally.completed;
      }
      deliver_routed(job.seq, std::move(response), ok, emit);
      return;
    }
    if (!resilience::try_advance(config_.retry, job.retry)) {
      {
        const std::scoped_lock lock(mutex_);
        ++slot.tally.gave_up;
        ++stats_.gave_up;
      }
      deliver_routed(
          job.seq,
          service::error_response(
              job.has_id, job.id,
              "internal_error: fabric: request failed after " +
                  std::to_string(job.retry.attempts) +
                  " attempts (last worker " + std::to_string(k) + ")"),
          false, emit);
      return;
    }
    {
      const std::scoped_lock lock(mutex_);
      ++slot.tally.requeued;
      ++stats_.requeues;
    }
    registry.counter("fabric.requeues").increment();
    if (!dropped) {
      // Channel failure: the worker is presumed dead.  Respawn it (new
      // channel + health probe); when the respawn budget is spent the
      // slot degrades out of the fabric and the job rescues elsewhere.
      if (!ensure_worker(k)) {
        mark_dead(k);
        reroute(std::move(job), emit);
        return;
      }
    }
  }
}

bool Router::serve(std::istream& in, std::ostream& out) {
  FMM_CHECK_MSG(slots_.empty(), "Router::serve is single-shot");
  auto& registry = obs::Registry::instance();
  chaos_ = config_.chaos.any()
               ? std::make_unique<ChaosEngine>(config_.chaos)
               : nullptr;

  // Spawn + probe every slot; a slot that fails its very first health
  // probe starts dead (degraded fabric, not a fatal error).
  for (std::size_t k = 0; k < config_.num_workers; ++k) {
    auto slot = std::make_unique<Slot>();
    slot->respawns_left = config_.max_respawns;
    slot->latency = &registry.histogram("fabric.worker." +
                                        std::to_string(k) + ".latency");
    slot->channel = transport_.connect(k);
    if (!probe(*slot->channel)) {
      slot->channel->kill();
      slot->channel.reset();
      slot->tally.alive = false;
      ++stats_.dead_workers;
    }
    slots_.push_back(std::move(slot));
  }
  registry.gauge("fabric.dead_workers").set(stats_.dead_workers);

  // Responses re-sequence by admission index no matter which worker (or
  // requeue) produced them.
  OrderedEmitter<> emit(out);

  for (std::size_t k = 0; k < slots_.size(); ++k) {
    slots_[k]->dispatcher = std::thread([this, k, &emit] {
      Slot& slot = *slots_[k];
      for (;;) {
        Job job;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          work_cv_.wait(lock, [this, &slot] {
            return all_done_ || !slot.queue.empty();
          });
          if (slot.queue.empty()) {
            return;  // all_done_: every admitted job is answered
          }
          job = std::move(slot.queue.front());
          slot.queue.pop_front();
        }
        process_job(k, std::move(job), emit);
      }
    });
  }

  // Optional heartbeat prober: pings idle workers and counts failed
  // probes; the dispatcher's own supervision performs the respawn on
  // the next job (probing never steals the channel from an RPC).
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread heartbeat;
  if (config_.heartbeat_interval_ms > 0) {
    heartbeat = std::thread([this, &hb_mutex, &hb_cv, &hb_stop] {
      std::unique_lock<std::mutex> lock(hb_mutex);
      for (;;) {
        if (hb_cv.wait_for(
                lock,
                std::chrono::milliseconds(config_.heartbeat_interval_ms),
                [&hb_stop] { return hb_stop; })) {
          return;
        }
        lock.unlock();
        for (std::size_t k = 0; k < slots_.size(); ++k) {
          Slot& slot = *slots_[k];
          bool alive = false;
          {
            const std::scoped_lock state_lock(mutex_);
            alive = slot.tally.alive;
          }
          if (!alive) {
            continue;
          }
          std::unique_lock<std::mutex> channel_lock(slot.channel_mutex,
                                                    std::try_to_lock);
          if (!channel_lock.owns_lock()) {
            continue;  // mid-RPC: the worker is demonstrably alive
          }
          if (!slot.channel || !probe(*slot.channel)) {
            {
              const std::scoped_lock state_lock(mutex_);
              ++slot.tally.heartbeat_failures;
              ++stats_.heartbeat_failures;
            }
            obs::Registry::instance()
                .counter("fabric.heartbeat_failures")
                .increment();
          }
        }
        lock.lock();
      }
    });
  }

  const auto deliver_local = [this, &emit](std::size_t seq,
                                           std::string response, bool ok) {
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.local;
      ++stats_.responded;
      if (ok) {
        ++stats_.ok;
      } else {
        ++stats_.errors;
      }
    }
    emit.push(seq, std::move(response));
  };
  const auto stop_requested = [this] {
    return config_.stop_flag != nullptr && *config_.stop_flag != 0;
  };

  std::size_t seq = 0;
  bool shutdown = false;
  std::string line;
  while (!shutdown && !stop_requested() && std::getline(in, line)) {
    if (blank(line)) {
      continue;
    }
    const std::size_t index = seq++;
    {
      const std::scoped_lock lock(mutex_);
      ++stats_.requests;
    }
    Request request;
    try {
      request = service::parse_request(line);
    } catch (const ProtocolError& e) {
      deliver_local(index, service::error_response(false, 0, e.what()),
                    false);
      continue;
    }
    // Deterministic control ops answer here with the exact bytes a
    // single-process QueryService emits; shutdown drains the fabric.
    if (request.op == Op::kShutdown) {
      shutdown = true;
      deliver_local(index,
                    service::ok_response(request, "{\"draining\": true}"),
                    true);
      continue;
    }
    if (request.op == Op::kPing) {
      deliver_local(index,
                    service::ok_response(request, "{\"pong\": true}"),
                    true);
      continue;
    }
    if (request.op == Op::kVersion) {
      deliver_local(index,
                    service::ok_response(request, obs::build_info_json()),
                    true);
      continue;
    }
    // Everything else — compute ops and the point-in-time ops — routes
    // to a worker by rendezvous hash of the canonical preimage.
    Job job;
    job.seq = index;
    job.line = line;
    job.canonical = service::canonical_request(request);
    job.has_id = request.has_id;
    job.id = request.id;
    // First attempt consumes retry budget up front so the requeue path
    // shares one accounting scheme (attempts, not "retries").
    const bool first_attempt_ok =
        resilience::try_advance(config_.retry, job.retry);
    FMM_CHECK(first_attempt_ok);
    bool no_workers = false;
    bool shed = false;
    std::size_t target = 0;
    std::size_t depth = 0;
    {
      const std::scoped_lock lock(mutex_);
      std::vector<bool> alive(slots_.size());
      bool any = false;
      for (std::size_t k = 0; k < slots_.size(); ++k) {
        alive[k] = slots_[k]->tally.alive;
        any = any || alive[k];
      }
      if (!any) {
        no_workers = true;
        ++jobs_admitted_;
        ++stats_.routed;
        ++stats_.gave_up;
        ++stats_.unroutable;
      } else {
        target = pick_worker(job.canonical, alive);
        depth = slots_[target]->queue.size();
        if (depth >= config_.worker_queue_depth) {
          shed = true;
          ++stats_.rejected_queue_full;
        } else {
          ++jobs_admitted_;
          ++stats_.routed;
          slots_[target]->queue.push_back(std::move(job));
        }
      }
    }
    if (no_workers) {
      deliver_routed(index,
                     service::error_response(
                         request.has_id, request.id,
                         "internal_error: fabric: no alive workers"),
                     false, emit);
      continue;
    }
    if (shed) {
      registry.counter("fabric.rejected_queue_full").increment();
      deliver_local(index,
                    service::error_response(
                        request.has_id, request.id,
                        "rejected: queue_full (worker " +
                            std::to_string(target) + ", depth " +
                            std::to_string(depth) + ")"),
                    false);
      continue;
    }
    work_cv_.notify_all();
  }

  // Graceful drain: no new admissions; every admitted job is answered
  // (completed, requeued-to-completion, or terminal error) before the
  // dispatchers exit.
  {
    const std::scoped_lock lock(mutex_);
    input_done_ = true;
    if (jobs_finished_ == jobs_admitted_) {
      all_done_ = true;
    }
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [this] { return all_done_; });
  }
  for (auto& slot : slots_) {
    if (slot->dispatcher.joinable()) {
      slot->dispatcher.join();
    }
  }
  if (heartbeat.joinable()) {
    {
      const std::scoped_lock lock(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  }
  emit.finish(seq);
  out.flush();

  // Graceful worker teardown: close each channel so workers drain and
  // exit; channel destructors reap them.
  for (auto& slot : slots_) {
    const std::scoped_lock channel_lock(slot->channel_mutex);
    if (slot->channel) {
      slot->channel->shutdown();
      slot->channel.reset();
    }
  }

  const FabricStats totals = stats();
  registry.gauge("fabric.requests").set(totals.requests);
  registry.gauge("fabric.responded").set(totals.responded);
  registry.gauge("fabric.dead_workers").set(totals.dead_workers);
  return shutdown;
}

FabricStats Router::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

std::vector<WorkerTally> Router::worker_tallies() const {
  const std::scoped_lock lock(mutex_);
  std::vector<WorkerTally> tallies;
  tallies.reserve(slots_.size());
  for (const auto& slot : slots_) {
    tallies.push_back(slot->tally);
  }
  return tallies;
}

std::string Router::fabric_json() const {
  FabricStats totals;
  std::vector<WorkerTally> tallies;
  {
    const std::scoped_lock lock(mutex_);
    totals = stats_;
    tallies.reserve(slots_.size());
    for (const auto& slot : slots_) {
      tallies.push_back(slot->tally);
    }
  }
  std::ostringstream os;
  os << "{\n";
  os << "      \"schema\": \"" << kFabricSchema << "\",\n";
  os << "      \"schema_version\": " << kFabricSchemaVersion << ",\n";
  os << "      \"transport\": \"" << transport_.name() << "\",\n";
  os << "      \"num_workers\": " << config_.num_workers << ",\n";
  os << "      \"worker_queue_depth\": " << config_.worker_queue_depth
     << ",\n";
  os << "      \"retry_max_attempts\": " << config_.retry.max_attempts
     << ",\n";
  os << "      \"max_respawns\": " << config_.max_respawns << ",\n";
  os << "      \"requests\": " << totals.requests << ",\n";
  os << "      \"responded\": " << totals.responded << ",\n";
  os << "      \"ok\": " << totals.ok << ",\n";
  os << "      \"errors\": " << totals.errors << ",\n";
  os << "      \"routed\": " << totals.routed << ",\n";
  os << "      \"local\": " << totals.local << ",\n";
  os << "      \"requeues\": " << totals.requeues << ",\n";
  os << "      \"respawns\": " << totals.respawns << ",\n";
  os << "      \"gave_up\": " << totals.gave_up << ",\n";
  os << "      \"unroutable\": " << totals.unroutable << ",\n";
  os << "      \"kills_injected\": " << totals.kills_injected << ",\n";
  os << "      \"dropped_responses\": " << totals.dropped_responses
     << ",\n";
  os << "      \"rejected_queue_full\": " << totals.rejected_queue_full
     << ",\n";
  os << "      \"heartbeat_failures\": " << totals.heartbeat_failures
     << ",\n";
  os << "      \"dead_workers\": " << totals.dead_workers << ",\n";
  os << "      \"workers\": [";
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    const WorkerTally& row = tallies[k];
    os << (k == 0 ? "\n" : ",\n") << "        {\"worker\": " << k
       << ", \"alive\": " << (row.alive ? "true" : "false")
       << ", \"dispatched\": " << row.dispatched
       << ", \"completed\": " << row.completed
       << ", \"requeued\": " << row.requeued
       << ", \"gave_up\": " << row.gave_up
       << ", \"respawns\": " << row.respawns
       << ", \"heartbeat_failures\": " << row.heartbeat_failures << "}";
  }
  os << (tallies.empty() ? "" : "\n      ") << "]\n";
  os << "    }";
  return os.str();
}

void Router::attach_to(obs::RunReport& report) const {
  const FabricStats totals = stats();
  report.set_result("fabric_requests", totals.requests);
  report.set_result("fabric_responded", totals.responded);
  report.set_result("fabric_requeues", totals.requeues);
  report.set_result("fabric_respawns", totals.respawns);
  report.set_result("fabric_dead_workers", totals.dead_workers);
  report.add_raw_section("fabric", fabric_json());
}

}  // namespace fmm::fabric
