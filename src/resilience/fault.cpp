#include "resilience/fault.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace fmm::resilience {

std::uint64_t splitmix64(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) {
  // One SplitMix64 finalization per key component: decorrelated streams
  // for (seed, a, b) without any sequential state.
  return mix64(seed + kGoldenGamma * (a + 1) + kMixMul1 * (b + 1));
}

double splitmix_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // Top 53 bits -> [0, 1), the standard uniform-double construction.
  return static_cast<double>(splitmix64(seed, a, b) >> 11) *
         0x1.0p-53;
}

FaultSpec FaultSpec::random_schedule(std::uint64_t seed, int procs,
                                     int max_step, int wipe_count,
                                     double message_drop_rate) {
  FMM_CHECK_MSG(procs >= 1 && max_step >= 1 && wipe_count >= 0,
                "random_schedule needs procs/max_step >= 1, got procs="
                    << procs << " max_step=" << max_step);
  FaultSpec spec;
  spec.seed = seed;
  spec.message_drop_rate = message_drop_rate;
  spec.wipes.reserve(static_cast<std::size_t>(wipe_count));
  for (int i = 0; i < wipe_count; ++i) {
    WipeEvent wipe;
    // Stream component 1: processor draws; component 2: step draws.
    wipe.processor = static_cast<int>(
        splitmix64(seed, static_cast<std::uint64_t>(i), 1) %
        static_cast<std::uint64_t>(procs));
    wipe.step = static_cast<int>(
        splitmix64(seed, static_cast<std::uint64_t>(i), 2) %
        static_cast<std::uint64_t>(max_step));
    spec.wipes.push_back(wipe);
  }
  return spec;
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {
  FMM_CHECK_MSG(
      spec_.message_drop_rate >= 0.0 && spec_.message_drop_rate < 1.0,
      "message_drop_rate must be in [0, 1), got "
          << spec_.message_drop_rate);
  for (const WipeEvent& wipe : spec_.wipes) {
    FMM_CHECK_MSG(wipe.processor >= 0 && wipe.step >= 0,
                  "wipe event (proc=" << wipe.processor
                                      << ", step=" << wipe.step
                                      << ") must be non-negative");
  }
  FMM_CHECK_MSG(spec_.max_retransmissions >= 1,
                "max_retransmissions must be >= 1, got "
                    << spec_.max_retransmissions);
}

int FaultInjector::retransmissions(std::uint64_t transfer_index) const {
  return retransmissions(transfer_index, -1, -1);
}

int FaultInjector::retransmissions(std::uint64_t transfer_index, int step,
                                   int processor) const {
  if (spec_.message_drop_rate <= 0.0) {
    return 0;
  }
  // Geometric: attempt k of this transfer drops iff its own stream draw
  // lands below the rate, bounded by the spec's cap.  A transfer that
  // is STILL dropping at the cap is a hard fault, not a truncation —
  // report where it happened so the schedule is debuggable.
  int extra = 0;
  while (extra < spec_.max_retransmissions &&
         splitmix_unit(spec_.seed, transfer_index,
                       static_cast<std::uint64_t>(extra)) <
             spec_.message_drop_rate) {
    ++extra;
  }
  if (extra >= spec_.max_retransmissions &&
      splitmix_unit(spec_.seed, transfer_index,
                    static_cast<std::uint64_t>(extra)) <
          spec_.message_drop_rate) {
    std::ostringstream where;
    if (step >= 0 || processor >= 0) {
      where << " at step " << step << " on processor " << processor;
    } else {
      where << " (step/processor unknown)";
    }
    FMM_CHECK_MSG(false, "transfer "
                             << transfer_index
                             << " exceeded the retransmission cap of "
                             << spec_.max_retransmissions << where.str());
  }
  return extra;
}

std::vector<int> FaultInjector::wiped_at(int step) const {
  std::vector<int> procs;
  for (const WipeEvent& wipe : spec_.wipes) {
    if (wipe.step == step) {
      procs.push_back(wipe.processor);
    }
  }
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  return procs;
}

bool FaultInjector::inject_task_failure(std::uint64_t seed,
                                        std::uint64_t task_index,
                                        int attempt, double rate) {
  if (rate <= 0.0) {
    return false;
  }
  if (rate >= 1.0) {
    return true;
  }
  return splitmix_unit(seed, task_index,
                       static_cast<std::uint64_t>(attempt)) < rate;
}

std::string fault_events_to_json(std::vector<FaultEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.step != b.step ? a.step < b.step
                                      : a.processor < b.processor;
            });
  std::ostringstream oss;
  oss << "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    oss << (i == 0 ? "" : ", ") << "{\"step\": " << events[i].step
        << ", \"processor\": " << events[i].processor
        << ", \"kind\": \"wipe\", \"recovered_words\": "
        << events[i].recovered_words << "}";
  }
  oss << "]";
  return oss.str();
}

}  // namespace fmm::resilience
